// Package matching provides the one-to-one matching substrate of CSJ:
// the match graph built by the exact scan algorithms (the paper's
// matched_B / matched_A / sortedM_B / sortedM_A structures), the CSF
// (Cover Smallest First) heuristic from the paper, and a Hopcroft–Karp
// maximum bipartite matching used as an optimal oracle and as an
// alternative matcher.
package matching

import "slices"

// Pair is one matched user pair <b, a>. B and A are the users' real IDs
// (indexes into the respective community's Users slice).
type Pair struct {
	B, A int32
}

const (
	sideB = 0
	sideA = 1
)

// Graph is a bipartite multigraph of candidate matches between users of
// B and users of A. It corresponds to the paper's matched_B and
// matched_A maps. Edges are expected to be inserted at most once per
// pair (the scan algorithms compare each pair at most once).
//
// AddEdge only appends to a flat edge list. The first matcher call
// after a change builds the dense CSR form every matcher reads: real
// IDs remapped once to ascending dense indexes, and per user an
// ascending row of dense neighbour indexes. The CSR is a function of
// the edge multiset alone, so insertion order never changes a matching.
// All buffers, CSF's bucket queues included, are kept across Reset:
// a graph reused flush after flush stops allocating once it has grown
// to the largest segment. A Graph is not safe for concurrent use.
type Graph struct {
	ends [2][]int32 // ends[side][i] is edge i's endpoint on side, insertion order

	// Dense CSR form, current while built is set.
	built bool
	ids   [2][]int32 // dense index -> real ID, ascending
	off   [2][]int32 // row u of side spans adj[side][off[side][u]:off[side][u+1]]
	adj   [2][]int32 // dense neighbour indexes, ascending within a row
	pos   [2][]int32 // pos[side][i] is edge i's dense endpoint (build scratch)

	csf csfState
}

// NewGraph returns an empty match graph.
func NewGraph() *Graph { return &Graph{} }

// AddEdge records that user b of B matches user a of A.
func (g *Graph) AddEdge(b, a int32) {
	g.ends[sideB] = append(g.ends[sideB], b)
	g.ends[sideA] = append(g.ends[sideA], a)
	g.built = false
}

// Merge appends every edge of o to g.
func (g *Graph) Merge(o *Graph) {
	g.ends[sideB] = append(g.ends[sideB], o.ends[sideB]...)
	g.ends[sideA] = append(g.ends[sideA], o.ends[sideA]...)
	g.built = false
}

// Edges returns the number of candidate pairs recorded.
func (g *Graph) Edges() int { return len(g.ends[sideB]) }

// Reset empties the graph for reuse (Ex-MinMax empties its structures
// after every CSF flush), keeping every buffer's capacity.
func (g *Graph) Reset() {
	g.ends[sideB] = g.ends[sideB][:0]
	g.ends[sideA] = g.ends[sideA][:0]
	g.built = false
}

// Matcher selects one-to-one pairs from a match graph. The two
// implementations are CSF (the paper's heuristic) and HopcroftKarp
// (a true maximum matching).
type Matcher func(*Graph) []Pair

// row returns the ascending dense neighbours of dense user u on side.
func (g *Graph) row(side, u int) []int32 {
	return g.adj[side][g.off[side][u]:g.off[side][u+1]]
}

// dense builds the CSR form if the edge list changed since the last
// build.
func (g *Graph) dense() {
	if g.built {
		return
	}
	g.built = true
	for side := range 2 {
		g.remap(side)
	}
	for side := range 2 {
		g.off[side], g.adj[side] = groupRows(g.off[side], g.adj[side], len(g.ids[side]), g.pos[side], g.pos[1-side])
	}
}

// remap fills ids[side] with the ascending distinct endpoints on side
// and pos[side] with every edge's dense endpoint, by a sort and a
// binary search per edge: bounded by the edge count whatever the IDs.
func (g *Graph) remap(side int) {
	ends := g.ends[side]
	ids := append(g.ids[side][:0], ends...)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	pos := g.pos[side][:0]
	for _, id := range ends {
		p, _ := slices.BinarySearch(ids, id)
		pos = append(pos, int32(p))
	}
	g.ids[side], g.pos[side] = ids, pos
}

// groupRows is a counting sort of the edges by their endpoint on one
// side: row r of the result lists, ascending, the other-side endpoint of
// every edge whose this-side endpoint is r. off and adj are reused.
func groupRows(off, adj []int32, n int, this, other []int32) ([]int32, []int32) {
	off = slices.Grow(off[:0], n+1)[:n+1]
	clear(off)
	for _, r := range this {
		off[r+1]++
	}
	for r := 1; r <= n; r++ {
		off[r] += off[r-1]
	}
	adj = slices.Grow(adj[:0], len(this))[:len(this)]
	for i, r := range this {
		adj[off[r]] = other[i]
		off[r]++
	}
	// Each off[r] now holds the end of row r; shift back to starts.
	copy(off[1:], off[:n])
	off[0] = 0
	for r := 0; r < n; r++ {
		if row := adj[off[r]:off[r+1]]; len(row) > 1 {
			slices.Sort(row)
		}
	}
	return off, adj
}
