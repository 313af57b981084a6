package matching

// HopcroftKarp computes a maximum one-to-one matching of the match
// graph in O(E * sqrt(V)). The CSJ paper's exact methods use the CSF
// heuristic; HopcroftKarp serves as the optimality oracle in tests and
// as an optional drop-in matcher for callers who need a guaranteed
// maximum similarity.
func HopcroftKarp(g *Graph) []Pair {
	if g.Edges() == 0 {
		return nil
	}
	g.dense()
	bIDs, aIDs := g.ids[sideB], g.ids[sideA]

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
			for _, a := range g.row(sideB, int(b)) {
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
		for _, a := range g.row(sideB, int(b)) {
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

// MaximumMatchingSize returns the size of a maximum one-to-one matching
// of g.
func MaximumMatchingSize(g *Graph) int { return len(HopcroftKarp(g)) }
