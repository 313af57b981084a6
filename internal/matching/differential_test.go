package matching

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// graphShape generates the edge list of one seeded test graph whose B
// IDs start at bBase and A IDs at aBase.
type graphShape struct {
	name string
	gen  func(rng *rand.Rand, bBase, aBase int32) [][2]int32
}

var diffShapes = []graphShape{
	{"sparse", func(rng *rand.Rand, bBase, aBase int32) [][2]int32 {
		nb, na := 1+rng.Intn(60), 1+rng.Intn(60)
		return randomEdges(rng, bBase, aBase, nb, na, 1+rng.Intn(nb+na))
	}},
	{"dense", func(rng *rand.Rand, bBase, aBase int32) [][2]int32 {
		nb, na := 1+rng.Intn(25), 1+rng.Intn(25)
		return randomEdges(rng, bBase, aBase, nb, na, nb*na*(2+rng.Intn(3))/4)
	}},
	{"wide-ids", func(rng *rand.Rand, bBase, aBase int32) [][2]int32 {
		// Few users spread over a large ID range.
		edges := randomEdges(rng, 0, 0, 12, 12, 1+rng.Intn(40))
		for i := range edges {
			edges[i][0] = bBase + edges[i][0]*int32(1+rng.Intn(5000))
			edges[i][1] = aBase + edges[i][1]*int32(1+rng.Intn(5000))
		}
		return dedupEdges(edges)
	}},
	{"regular", func(rng *rand.Rand, bBase, aBase int32) [][2]int32 {
		// Every user has degree r: each CSF step is a degree tie.
		n, r := 2+rng.Intn(20), 1+rng.Intn(4)
		r = min(r, n)
		var edges [][2]int32
		for b := 0; b < n; b++ {
			for j := 0; j < r; j++ {
				edges = append(edges, [2]int32{bBase + int32(b), aBase + int32((b+j)%n)})
			}
		}
		return edges
	}},
	{"tied-blocks", func(rng *rand.Rand, bBase, aBase int32) [][2]int32 {
		// Disjoint complete blocks of one size: equal degrees everywhere,
		// equal neighbour degrees, ties resolved by ID alone.
		blocks, size := 1+rng.Intn(5), 1+rng.Intn(4)
		var edges [][2]int32
		for k := 0; k < blocks; k++ {
			for b := 0; b < size; b++ {
				for a := 0; a < size; a++ {
					edges = append(edges, [2]int32{bBase + int32(k*size+b), aBase + int32(k*size+a)})
				}
			}
		}
		return edges
	}},
	{"stars", func(rng *rand.Rand, bBase, aBase int32) [][2]int32 {
		// B-side and A-side stars of equal arity interleaved.
		var edges [][2]int32
		arms := 1 + rng.Intn(5)
		for k := int32(0); k < int32(2+rng.Intn(4)); k++ {
			for j := int32(0); j < int32(arms); j++ {
				edges = append(edges, [2]int32{bBase + 2*k, aBase + 10*k + j})
				edges = append(edges, [2]int32{bBase + 2*k + 1 + 10*j, aBase + 10*k + 9})
			}
		}
		return dedupEdges(edges)
	}},
}

// randomEdges draws up to m distinct edges over nb x na users.
func randomEdges(rng *rand.Rand, bBase, aBase int32, nb, na, m int) [][2]int32 {
	m = min(m, nb*na)
	seen := make(map[[2]int32]bool, m)
	edges := make([][2]int32, 0, m)
	for len(edges) < m {
		e := [2]int32{bBase + int32(rng.Intn(nb)), aBase + int32(rng.Intn(na))}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	return edges
}

func dedupEdges(edges [][2]int32) [][2]int32 {
	seen := make(map[[2]int32]bool, len(edges))
	out := edges[:0]
	for _, e := range edges {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

var diffMatchers = []struct {
	name string
	got  Matcher
	want func(*refGraph) []Pair
}{
	{"CSF", CSF, refCSF},
	{"HopcroftKarp", HopcroftKarp, refHopcroftKarp},
	{"Greedy", Greedy, refGreedy},
}

// TestMatchersMatchMapReference is the differential property of the
// CSR graph: on seeded sparse, dense, wide-ID and degree-tie graphs,
// each matcher returns exactly the pairs, in the same order, of its
// map-based reference. One Graph is reused across Reset for the whole
// run, with ID ranges that grow and shrink between graphs, and every
// graph is inserted in a shuffled order. A failure names its seed.
func TestMatchersMatchMapReference(t *testing.T) {
	g := NewGraph()
	for _, shape := range diffShapes {
		for seed := int64(1); seed <= 150; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// Bases move up and down so consecutive graphs on the
			// reused Graph cover larger and smaller ID ranges.
			bBase := int32(rng.Intn(4)) * int32(rng.Intn(3000))
			aBase := int32(rng.Intn(4)) * int32(rng.Intn(3000))
			edges := shape.gen(rng, bBase, aBase)
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

			ref := newRefGraph()
			g.Reset()
			for _, e := range edges {
				ref.addEdge(e[0], e[1])
				g.AddEdge(e[0], e[1])
			}
			g.dense()
			if g.Edges() != ref.edges || len(g.ids[sideB]) != len(ref.bAdj) || len(g.ids[sideA]) != len(ref.aAdj) {
				t.Fatalf("%s seed %d: counts edges/B/A %d/%d/%d, reference %d/%d/%d", shape.name, seed,
					g.Edges(), len(g.ids[sideB]), len(g.ids[sideA]), ref.edges, len(ref.bAdj), len(ref.aAdj))
			}
			for _, m := range diffMatchers {
				got, want := m.got(g), m.want(ref)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d %s: pairs %v, reference %v", shape.name, seed, m.name, got, want)
				}
			}
		}
	}
}

// TestMatchersInsertionOrderFree: the CSR depends on the edge multiset
// only, so any insertion order and any split into merged graphs yields
// the same pairs.
func TestMatchersInsertionOrderFree(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		edges := diffShapes[seed%int64(len(diffShapes))].gen(rng, 0, 0)
		whole := NewGraph()
		for _, e := range edges {
			whole.AddEdge(e[0], e[1])
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		merged, part := NewGraph(), NewGraph()
		for i, e := range edges {
			part.AddEdge(e[0], e[1])
			if i%7 == 6 {
				merged.Merge(part)
				part.Reset()
			}
		}
		merged.Merge(part)
		for _, m := range diffMatchers {
			if got, want := m.got(merged), m.got(whole); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: merged shuffled graph gives %v, in-order graph %v", seed, m.name, got, want)
			}
		}
	}
}

// TestGraphRebuildsAfterGrowth: edges added after a matcher built the
// CSR form invalidate it, so the next matcher sees them.
func TestGraphRebuildsAfterGrowth(t *testing.T) {
	g := buildGraph([][2]int32{{3, 9}, {1, 4}})
	CSF(g)
	g.AddEdge(2, 7)
	g.AddEdge(3, 5)
	if got := fmt.Sprint(CSF(g)); got != "[{1 4} {2 7} {3 5}]" {
		t.Fatalf("CSF after growth = %s", got)
	}
	if got, want := g.ids[sideB], []int32{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dense B users = %v, want %v", got, want)
	}
}
