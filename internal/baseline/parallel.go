package baseline

import (
	"sync"

	"github.com/opencsj/csj/internal/core"
	"github.com/opencsj/csj/internal/matching"
	"github.com/opencsj/csj/internal/vector"
)

// ExBaselineParallel is the multi-worker variant of Ex-Baseline: B is
// partitioned into contiguous chunks, each worker nested-loop joins its
// chunk against all of A into a private graph, the graphs merge, and a
// single matcher call resolves the one-to-one pairs. The candidate
// graph is identical to the serial run's.
func ExBaselineParallel(b, a *vector.Community, opts Options, workers int) (*core.Result, error) {
	if workers <= 1 {
		return ExBaseline(b, a, opts)
	}
	if err := checkInputs(b, a, &opts); err != nil {
		return nil, err
	}
	if workers > b.Size() {
		workers = b.Size()
	}

	type shard struct {
		graph  *matching.Graph
		events core.Events
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	chunk := (b.Size() + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > b.Size() {
			hi = b.Size()
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			g := matching.NewGraph()
			ev := &shards[w].events
			for bi := lo; bi < hi; bi++ {
				for ai, ua := range a.Users {
					if vector.MatchEpsilon(b.Users[bi], ua, opts.Eps) {
						ev.Matches++
						g.AddEdge(int32(bi), int32(ai))
					} else {
						ev.NoMatches++
					}
				}
			}
			shards[w].graph = g
		}(w, lo, hi)
	}
	wg.Wait()

	res := &core.Result{}
	merged := matching.NewGraph()
	for w := range shards {
		if shards[w].graph == nil {
			continue
		}
		res.Events.Add(shards[w].events)
		merged.Merge(shards[w].graph)
	}
	if merged.Edges() > 0 {
		res.Events.CSFCalls++
		res.Pairs = opts.matcher()(merged)
	}
	return res, nil
}
