package matching

// Greedy pairs each B user, in ascending ID order, with its
// smallest-ID free neighbour. It is the naive maximal-matching
// baseline the CSF heuristic improves on: Greedy can lose up to half
// the optimum on adversarial graphs, while CSF's cover-smallest-first
// order almost always reaches it. Exposed so the matcher ablation can
// quantify that gap.
func Greedy(g *Graph) []Pair {
	if g.Edges() == 0 {
		return nil
	}
	g.dense()
	usedA := make([]bool, len(g.ids[sideA]))
	pairs := make([]Pair, 0, min(len(g.ids[sideB]), len(g.ids[sideA])))
	for b := range g.ids[sideB] {
		// Rows ascend, so the first free neighbour has the smallest ID.
		for _, a := range g.row(sideB, b) {
			if !usedA[a] {
				usedA[a] = true
				pairs = append(pairs, Pair{B: g.ids[sideB][b], A: g.ids[sideA][a]})
				break
			}
		}
	}
	return pairs
}
