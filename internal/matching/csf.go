package matching

// CSF is the paper's Cover Smallest First function (Section 4.2). It
// selects one-to-one pairs from the match graph by repeatedly covering
// the user with the fewest remaining matches first, pairing it with its
// neighbour of fewest remaining matches. Covering small-degree users
// first leaves the largest pool of options open, so the heuristic
// usually finds a maximum matching; Hopcroft–Karp is available when an
// optimal guarantee is required.
//
// The returned pairs are deterministic for a given graph: ties are broken
// toward the B side and then toward smaller user IDs. The returned slice
// is freshly allocated; every other piece of working state lives in the
// graph and is reused by the next call.
func CSF(g *Graph) []Pair {
	if g.Edges() == 0 {
		return nil
	}
	g.dense()
	s := &g.csf
	s.init(g)
	pairs := make([]Pair, 0, min(len(g.ids[sideB]), len(g.ids[sideA])))
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
			b, a = sB, s.minNeighbor(g, sideB, sB)
		case s.deg[sideB][sB] > s.deg[sideA][sA]:
			a, b = sA, s.minNeighbor(g, sideA, sA)
		default:
			// Tie: the paper covers the B side first, falling back to the
			// A side unless B's choice already pins a single-match user.
			// We realize that as "take the pair with minimum connections
			// in B and A", preferring the B side on a further tie.
			bCandA := s.minNeighbor(g, sideB, sB)
			aCandB := s.minNeighbor(g, sideA, sA)
			if s.deg[sideB][sB]+s.deg[sideA][bCandA] <= s.deg[sideB][aCandB]+s.deg[sideA][sA] {
				b, a = sB, bCandA
			} else {
				b, a = aCandB, sA
			}
		}
		pairs = append(pairs, Pair{B: g.ids[sideB][b], A: g.ids[sideA][a]})
		s.cover(g, b, a)
	}
	return pairs
}

// csfState is CSF's working state over the graph's CSR: per user an
// alive flag and its remaining degree, plus the paper's sortedM_B /
// sortedM_A degree-ordered maps, realized as bucket queues with lazy
// deletion. It belongs to its Graph and keeps its capacity across calls.
type csfState struct {
	alive   [2][]bool
	deg     [2][]int32
	buckets [2][]bucket // buckets[side][d] queues dense users of (possibly stale) degree d
	minDeg  [2]int
}

// bucket is a FIFO queue: items before head are consumed. Exhausted
// queues rewind to the start instead of dropping their storage.
type bucket struct {
	items []int32
	head  int
}

// init sizes the state for g's CSR and queues every user in its
// degree bucket, ascending by dense index.
func (s *csfState) init(g *Graph) {
	for side := range 2 {
		n := len(g.ids[side])
		off := g.off[side]
		alive := grow(s.alive[side], n)
		deg := grow(s.deg[side], n)
		maxDeg := 0
		for u := range n {
			alive[u] = true
			d := int(off[u+1] - off[u])
			deg[u] = int32(d)
			maxDeg = max(maxDeg, d)
		}
		qs := grow(s.buckets[side], maxDeg+1)
		for d := range qs {
			qs[d].items, qs[d].head = qs[d].items[:0], 0
		}
		for u, d := range deg {
			qs[d].items = append(qs[d].items, int32(u))
		}
		s.alive[side], s.deg[side], s.buckets[side] = alive, deg, qs
		s.minDeg[side] = 1
	}
}

// grow returns s resized to n elements, reusing its storage when the
// capacity suffices. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// peekMin returns the alive user with the smallest positive degree on
// the given side, without removing it. Stale bucket entries (dead users
// or entries pushed for an outdated degree) are discarded lazily.
func (s *csfState) peekMin(side int) (int, bool) {
	qs := s.buckets[side]
	for d := s.minDeg[side]; d < len(qs); d++ {
		q := &qs[d]
		for ; q.head < len(q.items); q.head++ {
			u := q.items[q.head]
			if s.alive[side][u] && int(s.deg[side][u]) == d {
				s.minDeg[side] = d
				return int(u), true
			}
		}
		q.items, q.head = q.items[:0], 0
	}
	s.minDeg[side] = len(qs)
	return 0, false
}

// minNeighbor returns the alive neighbour of u (on side) with the
// smallest degree, breaking ties toward smaller dense index (and hence
// smaller real ID). u is guaranteed to have an alive neighbour because
// degrees are kept exact.
func (s *csfState) minNeighbor(g *Graph, side, u int) int {
	other := 1 - side
	best, bestDeg := -1, int32(1<<31-1)
	for _, v := range g.row(side, u) {
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
func (s *csfState) cover(g *Graph, b, a int) {
	s.alive[sideB][b] = false
	s.alive[sideA][a] = false
	for _, v := range g.row(sideB, b) {
		if int(v) != a && s.alive[sideA][v] {
			s.decay(sideA, int(v))
		}
	}
	for _, v := range g.row(sideA, a) {
		if int(v) != b && s.alive[sideB][v] {
			s.decay(sideB, int(v))
		}
	}
}

func (s *csfState) decay(side, u int) {
	s.deg[side][u]--
	d := int(s.deg[side][u])
	if d == 0 {
		// No remaining matches: the user can never be covered.
		s.alive[side][u] = false
		return
	}
	s.buckets[side][d].items = append(s.buckets[side][d].items, int32(u))
	if d < s.minDeg[side] {
		s.minDeg[side] = d
	}
}
