package matching

import "sort"

// This file holds test-only, map-based implementations of the match
// graph and of the CSF, Hopcroft–Karp and Greedy matchers over it: each
// builds its own dense remap and sorted adjacency per call. They are the
// references of differential_test.go, which requires the CSR-based
// matchers to return exactly the pairs these return.

// refGraph is the map-based multimap of candidate matches.
type refGraph struct {
	bAdj  map[int32][]int32
	aAdj  map[int32][]int32
	edges int
}

func newRefGraph() *refGraph {
	return &refGraph{bAdj: map[int32][]int32{}, aAdj: map[int32][]int32{}}
}

func (g *refGraph) addEdge(b, a int32) {
	g.bAdj[b] = append(g.bAdj[b], a)
	g.aAdj[a] = append(g.aAdj[a], b)
	g.edges++
}

func (g *refGraph) bUsers() []int32 {
	out := make([]int32, 0, len(g.bAdj))
	for b := range g.bAdj {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refCSF is the map-based CSF.
func refCSF(g *refGraph) []Pair {
	if g.edges == 0 {
		return nil
	}
	s := newRefCSFState(g)
	pairs := make([]Pair, 0, min(len(s.bIDs), len(s.aIDs)))
	for {
		sB, okB := s.peekMin(sideB)
		sA, okA := s.peekMin(sideA)
		// The loop terminates when either sorted map is exhausted: with
		// no coverable user left on one side, no edge remains.
		if !okB || !okA {
			break
		}
		var b, a int
		switch {
		case s.deg[sideB][sB] < s.deg[sideA][sA]:
			b, a = sB, s.minNeighbor(sideB, sB)
		case s.deg[sideB][sB] > s.deg[sideA][sA]:
			a, b = sA, s.minNeighbor(sideA, sA)
		default:
			// Tie: the paper covers the B side first, falling back to the
			// A side unless B's choice already pins a single-match user.
			// We realize that as "take the pair with minimum connections
			// in B and A", preferring the B side on a further tie.
			bCandA := s.minNeighbor(sideB, sB)
			aCandB := s.minNeighbor(sideA, sA)
			if s.deg[sideB][sB]+s.deg[sideA][bCandA] <= s.deg[sideB][aCandB]+s.deg[sideA][sA] {
				b, a = sB, bCandA
			} else {
				b, a = aCandB, sA
			}
		}
		pairs = append(pairs, Pair{B: s.bIDs[b], A: s.aIDs[a]})
		s.cover(b, a)
	}
	return pairs
}

// refCSFState is the dense-index working state of CSF: the paper's
// matched_B / matched_A adjacency plus the sortedM_B / sortedM_A
// degree-ordered maps, realized as bucket queues with lazy deletion.
type refCSFState struct {
	bIDs, aIDs []int32      // dense index -> real ID, ascending
	adj        [2][][]int32 // adj[sideB][b] lists dense A indexes, and vice versa
	alive      [2][]bool
	deg        [2][]int
	buckets    [2][][]int32 // buckets[side][d] holds dense indexes with (stale) degree d
	minDeg     [2]int
}

func newRefCSFState(g *refGraph) *refCSFState {
	s := &refCSFState{}
	s.bIDs = g.bUsers()
	s.aIDs = make([]int32, 0, len(g.aAdj))
	for a := range g.aAdj {
		s.aIDs = append(s.aIDs, a)
	}
	sort.Slice(s.aIDs, func(i, j int) bool { return s.aIDs[i] < s.aIDs[j] })

	bIdx := make(map[int32]int, len(s.bIDs))
	for i, id := range s.bIDs {
		bIdx[id] = i
	}
	aIdx := make(map[int32]int, len(s.aIDs))
	for i, id := range s.aIDs {
		aIdx[id] = i
	}

	s.adj[sideB] = make([][]int32, len(s.bIDs))
	s.adj[sideA] = make([][]int32, len(s.aIDs))
	for i, id := range s.bIDs {
		src := g.bAdj[id]
		dst := make([]int32, len(src))
		for j, a := range src {
			dst[j] = int32(aIdx[a])
		}
		sort.Slice(dst, func(x, y int) bool { return dst[x] < dst[y] })
		s.adj[sideB][i] = dst
	}
	for i, id := range s.aIDs {
		src := g.aAdj[id]
		dst := make([]int32, len(src))
		for j, b := range src {
			dst[j] = int32(bIdx[b])
		}
		sort.Slice(dst, func(x, y int) bool { return dst[x] < dst[y] })
		s.adj[sideA][i] = dst
	}

	for side := 0; side < 2; side++ {
		n := len(s.adj[side])
		s.alive[side] = make([]bool, n)
		s.deg[side] = make([]int, n)
		maxDeg := 0
		for i, nbrs := range s.adj[side] {
			s.alive[side][i] = true
			s.deg[side][i] = len(nbrs)
			if len(nbrs) > maxDeg {
				maxDeg = len(nbrs)
			}
		}
		s.buckets[side] = make([][]int32, maxDeg+1)
		for i, d := range s.deg[side] {
			s.buckets[side][d] = append(s.buckets[side][d], int32(i))
		}
		s.minDeg[side] = 1
	}
	return s
}

// peekMin returns the alive user with the smallest positive degree on
// the given side, without removing it. Stale bucket entries (dead users
// or entries pushed for an outdated degree) are discarded lazily.
func (s *refCSFState) peekMin(side int) (int, bool) {
	for d := s.minDeg[side]; d < len(s.buckets[side]); d++ {
		bucket := s.buckets[side][d]
		for len(bucket) > 0 {
			u := bucket[0]
			if s.alive[side][u] && s.deg[side][u] == d {
				s.buckets[side][d] = bucket
				s.minDeg[side] = d
				return int(u), true
			}
			bucket = bucket[1:]
		}
		s.buckets[side][d] = nil
	}
	s.minDeg[side] = len(s.buckets[side])
	return 0, false
}

// minNeighbor returns the alive neighbour of u (on side) with the
// smallest degree, breaking ties toward smaller dense index (and hence
// smaller real ID). u is guaranteed to have an alive neighbour because
// degrees are kept exact.
func (s *refCSFState) minNeighbor(side, u int) int {
	other := 1 - side
	best, bestDeg := -1, int(^uint(0)>>1)
	for _, v := range s.adj[side][u] {
		if !s.alive[other][v] {
			continue
		}
		if d := s.deg[other][v]; d < bestDeg {
			best, bestDeg = int(v), d
			if d == 1 {
				break // cannot do better, and smaller IDs come first
			}
		}
	}
	return best
}

// cover commits the pair (dense indexes b, a): both users die and every
// alive neighbour's degree drops, with a fresh bucket entry pushed so
// the sorted maps stay current.
func (s *refCSFState) cover(b, a int) {
	s.alive[sideB][b] = false
	s.alive[sideA][a] = false
	for _, v := range s.adj[sideB][b] {
		if int(v) != a && s.alive[sideA][v] {
			s.decay(sideA, int(v))
		}
	}
	for _, v := range s.adj[sideA][a] {
		if int(v) != b && s.alive[sideB][v] {
			s.decay(sideB, int(v))
		}
	}
}

func (s *refCSFState) decay(side, u int) {
	s.deg[side][u]--
	d := s.deg[side][u]
	if d == 0 {
		// No remaining matches: the user can never be covered.
		s.alive[side][u] = false
		return
	}
	s.buckets[side][d] = append(s.buckets[side][d], int32(u))
	if d < s.minDeg[side] {
		s.minDeg[side] = d
	}
}

// refHopcroftKarp is the map-based Hopcroft–Karp.
func refHopcroftKarp(g *refGraph) []Pair {
	if g.edges == 0 {
		return nil
	}
	bIDs := g.bUsers()
	aIDs := make([]int32, 0, len(g.aAdj))
	for a := range g.aAdj {
		aIDs = append(aIDs, a)
	}
	sort.Slice(aIDs, func(i, j int) bool { return aIDs[i] < aIDs[j] })
	aIdx := make(map[int32]int, len(aIDs))
	for i, id := range aIDs {
		aIdx[id] = i
	}
	adj := make([][]int32, len(bIDs))
	for i, id := range bIDs {
		src := g.bAdj[id]
		dst := make([]int32, len(src))
		for j, a := range src {
			dst[j] = int32(aIdx[a])
		}
		sort.Slice(dst, func(x, y int) bool { return dst[x] < dst[y] })
		adj[i] = dst
	}

	const unmatched = -1
	matchB := make([]int32, len(bIDs)) // b -> a (dense) or -1
	matchA := make([]int32, len(aIDs)) // a -> b (dense) or -1
	for i := range matchB {
		matchB[i] = unmatched
	}
	for i := range matchA {
		matchA[i] = unmatched
	}

	const inf = int32(^uint32(0) >> 1)
	dist := make([]int32, len(bIDs))
	queue := make([]int32, 0, len(bIDs))

	// bfs layers free B vertices and returns whether an augmenting path
	// exists.
	bfs := func() bool {
		queue = queue[:0]
		for b := range matchB {
			if matchB[b] == unmatched {
				dist[b] = 0
				queue = append(queue, int32(b))
			} else {
				dist[b] = inf
			}
		}
		found := false
		for head := 0; head < len(queue); head++ {
			b := queue[head]
			for _, a := range adj[b] {
				nb := matchA[a]
				if nb == unmatched {
					found = true
				} else if dist[nb] == inf {
					dist[nb] = dist[b] + 1
					queue = append(queue, nb)
				}
			}
		}
		return found
	}

	// dfs follows layered edges to augment along a shortest path.
	var dfs func(b int32) bool
	dfs = func(b int32) bool {
		for _, a := range adj[b] {
			nb := matchA[a]
			if nb == unmatched || (dist[nb] == dist[b]+1 && dfs(nb)) {
				matchB[b] = a
				matchA[a] = b
				return true
			}
		}
		dist[b] = inf
		return false
	}

	for bfs() {
		for b := range matchB {
			if matchB[b] == unmatched {
				dfs(int32(b))
			}
		}
	}

	pairs := make([]Pair, 0, len(bIDs))
	for b, a := range matchB {
		if a != unmatched {
			pairs = append(pairs, Pair{B: bIDs[b], A: aIDs[a]})
		}
	}
	return pairs
}

// refGreedy is the map-based Greedy.
func refGreedy(g *refGraph) []Pair {
	if g.edges == 0 {
		return nil
	}
	usedA := make(map[int32]bool, len(g.aAdj))
	pairs := make([]Pair, 0, min(len(g.bAdj), len(g.aAdj)))
	for _, b := range g.bUsers() {
		best := int32(-1)
		for _, a := range g.bAdj[b] {
			if !usedA[a] && (best < 0 || a < best) {
				best = a
			}
		}
		if best >= 0 {
			usedA[best] = true
			pairs = append(pairs, Pair{B: b, A: best})
		}
	}
	return pairs
}
