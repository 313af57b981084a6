package csj_test

import (
	"math/rand"
	"sort"
	"testing"

	csj "github.com/opencsj/csj"
)

// tiedCorpus builds a corpus dominated by equal bounds: a few distinct
// communities, each repeated under several names, plus undersized
// copies that fail the size precondition. Repeats share their summary
// and their similarity to the pivot, so the visit order and the answer
// hinge on the candidate-index tie-break. Every View call appends the
// candidate's index to *views, recording the visit order.
func tiedCorpus(t *testing.T, rng *rand.Rand, opts *csj.Options, views *[]int) (*csj.PreparedCommunity, []csj.IndexedCandidate, []*csj.PreparedCommunity) {
	t.Helper()
	d := 1 + rng.Intn(4)
	bases := [][]int32{randBase(rng, d), randBase(rng, d)}
	noise := int32(300 + rng.Intn(1500))
	pivot, err := csj.Precompute(clusteredComm(rng, "pivot", 30, bases[0], noise), opts)
	if err != nil {
		t.Fatal(err)
	}
	distinct := make([]*csj.Community, 3+rng.Intn(4))
	for i := range distinct {
		size := 24 + rng.Intn(12)
		if rng.Intn(4) == 0 {
			size = 5 // ceil(30/2) > 5: skipped
		}
		distinct[i] = clusteredComm(rng, "", size, bases[rng.Intn(len(bases))], noise)
	}
	n := 30 + rng.Intn(30)
	pcs := make([]*csj.PreparedCommunity, n)
	ics := make([]csj.IndexedCandidate, n)
	for i := range pcs {
		src := distinct[rng.Intn(len(distinct))]
		c := &csj.Community{Name: "cand" + itoa(i), Users: src.Users}
		if pcs[i], err = csj.Precompute(c, opts); err != nil {
			t.Fatal(err)
		}
		sum, err := pcs[i].Summarize(0)
		if err != nil {
			t.Fatal(err)
		}
		pc, i := pcs[i], i
		ics[i] = csj.IndexedCandidate{Name: c.Name, Summary: sum,
			View: func() (*csj.PreparedCommunity, error) {
				*views = append(*views, i)
				return pc, nil
			}}
	}
	return pivot, ics, pcs
}

type refEntry struct {
	idx   int
	bound float64
}

// sortedVisitOrder is the reference visit order: every size-eligible
// candidate's bound, fully sorted by bound descending and index
// ascending. It also returns the size-skipped indexes.
func sortedVisitOrder(t *testing.T, pivot *csj.PreparedCommunity, ics []csj.IndexedCandidate, eps int32) ([]refEntry, []int) {
	t.Helper()
	ps, err := pivot.Summarize(0)
	if err != nil {
		t.Fatal(err)
	}
	var order []refEntry
	var skipped []int
	for i, c := range ics {
		b, a := pivot.Size(), c.Summary.Size()
		if a < b {
			b, a = a, b
		}
		if b < (a+1)/2 {
			skipped = append(skipped, i)
			continue
		}
		order = append(order, refEntry{i, float64(csj.UpperBoundPairs(ps, c.Summary, eps)) / float64(b)})
	}
	sort.Slice(order, func(x, y int) bool {
		if order[x].bound != order[y].bound {
			return order[x].bound > order[y].bound
		}
		return order[x].idx < order[y].idx
	})
	return order, skipped
}

// exactSims maps candidate index to its exhaustive similarity under
// method (size-skipped candidates are absent).
func exactSims(t *testing.T, pivot *csj.PreparedCommunity, pcs []*csj.PreparedCommunity, method csj.Method, opts *csj.Options) map[int]float64 {
	t.Helper()
	ranked, err := csj.RankPrepared(pivot, pcs, method, opts)
	if err != nil {
		t.Fatal(err)
	}
	sims := map[int]float64{}
	for _, r := range ranked {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Result != nil {
			sims[r.Index] = r.Result.Similarity
		}
	}
	return sims
}

// bySimThenIndex sorts scored indexes the way both engines order
// their answers.
func bySimThenIndex(idx []int, sims map[int]float64) {
	sort.Slice(idx, func(x, y int) bool {
		if sims[idx[x]] != sims[idx[y]] {
			return sims[idx[x]] > sims[idx[y]]
		}
		return idx[x] < idx[y]
	})
}

// checkVisitOrder asserts the engine resolved views in a prefix of the
// sorted reference order.
func checkVisitOrder(t *testing.T, views []int, order []refEntry) {
	t.Helper()
	if len(views) > len(order) {
		t.Fatalf("%d views resolved for %d eligible candidates", len(views), len(order))
	}
	for i, idx := range views {
		if idx != order[i].idx {
			t.Fatalf("visit %d resolved cand %d, sorted order has cand %d", i, idx, order[i].idx)
		}
	}
}

// TestIndexedEnginesFollowSortedOrder pins the best-first visit to an
// independent sort of the bounds: on corpora dominated by equal
// bounds, TopKIndexed and RankAboveIndexed must return the answers and
// the exact IndexStats of a walk over the sorted reference order, visit
// (resolve views) in that order, and their stats must partition the
// candidates.
func TestIndexedEnginesFollowSortedOrder(t *testing.T) {
	var prunedTopK, prunedRank int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eps := int32(rng.Intn(2500))
		opts := &csj.Options{Epsilon: eps, Workers: 1}
		var views []int
		pivot, ics, pcs := tiedCorpus(t, rng, opts, &views)
		order, skipped := sortedVisitOrder(t, pivot, ics, eps)
		base := csj.IndexStats{Candidates: int64(len(ics)), BoundChecks: int64(len(order)), Skipped: int64(len(skipped))}

		// Top-k: visit until the bound falls strictly below the kth best
		// exact similarity.
		exSims := exactSims(t, pivot, pcs, csj.ExMinMax, opts)
		for _, k := range []int{1, 2, 5, len(ics)} {
			want := base
			var visited, best []int
			for pos, e := range order {
				if len(best) == k && e.bound < exSims[best[k-1]] {
					want.Pruned = int64(len(order) - pos)
					break
				}
				visited = append(visited, e.idx)
				best = append(best, e.idx)
				bySimThenIndex(best, exSims)
				best = best[:min(len(best), k)]
			}
			want.Visited = int64(len(visited))
			if want.Pruned > 0 {
				prunedTopK++
			}
			bySimThenIndex(visited, exSims)

			var got csj.IndexStats
			iopts := *opts
			iopts.OnIndexStats = func(s csj.IndexStats) { got = s }
			views = views[:0]
			top, err := csj.TopKIndexed(pivot, ics, k, &iopts)
			if err != nil {
				t.Fatal(err)
			}
			checkVisitOrder(t, views, order)
			if got != want {
				t.Fatalf("seed %d k=%d: stats %+v, sorted reference %+v", seed, k, got, want)
			}
			if got.Candidates != got.Pruned+got.Visited+got.Skipped {
				t.Fatalf("seed %d k=%d: top-k stats do not partition the candidates: %+v", seed, k, got)
			}
			for i, r := range top {
				switch {
				case i < len(visited):
					if r.Index != visited[i] || r.Result == nil || r.Result.Similarity != exSims[r.Index] {
						t.Fatalf("seed %d k=%d: entry %d = %+v, reference cand %d sim %v", seed, k, i, r, visited[i], exSims[visited[i]])
					}
				case i-len(visited) < len(skipped):
					if r.Index != skipped[i-len(visited)] || !r.Skipped {
						t.Fatalf("seed %d k=%d: padding entry %d = %+v, reference skipped cand %d", seed, k, i, r, skipped[i-len(visited)])
					}
				default:
					t.Fatalf("seed %d k=%d: entry %d = %+v beyond the reference answer", seed, k, i, r)
				}
			}
			if wantLen := min(k, len(visited)+len(skipped)); len(top) != wantLen {
				t.Fatalf("seed %d k=%d: %d entries, reference %d", seed, k, len(top), wantLen)
			}
		}

		// Threshold ranking: visit until the bound falls strictly below
		// minSim; answers are the visited candidates reaching it.
		for _, method := range []csj.Method{csj.ExMinMax, csj.ApMinMax} {
			sims := exactSims(t, pivot, pcs, method, opts)
			minSim := 0.05 + rng.Float64()*0.9
			want := base
			var above []int
			for pos, e := range order {
				if e.bound < minSim {
					want.Pruned = int64(len(order) - pos)
					break
				}
				want.Visited++
				if sims[e.idx] >= minSim {
					above = append(above, e.idx)
				}
			}
			bySimThenIndex(above, sims)
			if want.Pruned > 0 {
				prunedRank++
			}

			var got csj.IndexStats
			iopts := *opts
			iopts.OnIndexStats = func(s csj.IndexStats) { got = s }
			views = views[:0]
			ranked, err := csj.RankAboveIndexed(pivot, ics, method, minSim, &iopts)
			if err != nil {
				t.Fatal(err)
			}
			checkVisitOrder(t, views, order)
			if got != want {
				t.Fatalf("seed %d %v minSim=%.3f: stats %+v, sorted reference %+v", seed, method, minSim, got, want)
			}
			if got.Candidates != got.Pruned+got.Visited+got.Skipped {
				t.Fatalf("seed %d %v: rank stats do not partition the candidates: %+v", seed, method, got)
			}
			if len(ranked) != len(above) {
				t.Fatalf("seed %d %v minSim=%.3f: %d entries, reference %d", seed, method, minSim, len(ranked), len(above))
			}
			for i, r := range ranked {
				if r.Index != above[i] || r.Result == nil || r.Result.Similarity != sims[r.Index] {
					t.Fatalf("seed %d %v: entry %d = %+v, reference cand %d sim %v", seed, method, i, r, above[i], sims[above[i]])
				}
			}
		}
	}
	if prunedTopK == 0 || prunedRank == 0 {
		t.Fatalf("the corpora never exercised pruning: %d top-k and %d rank cases pruned", prunedTopK, prunedRank)
	}
	t.Logf("%d top-k and %d rank cases pruned", prunedTopK, prunedRank)
}
