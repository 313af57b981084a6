package ego

import (
	"sync"

	"github.com/opencsj/csj/internal/core"
	"github.com/opencsj/csj/internal/matching"
	"github.com/opencsj/csj/internal/vector"
)

// ExSuperEGOParallel is the multi-worker variant of Ex-SuperEGO. The
// EGO-sorted B points are partitioned into contiguous chunks and each
// worker runs the full SuperEGO recursion of its chunk against all of
// A into a private graph; a single matcher call resolves the merged
// graph. (Kalashnikov's Super-EGO parallelizes the same way; the paper
// pins it to one thread for fair comparison.)
func ExSuperEGOParallel(b, a *vector.Community, opts Options, workers int) (*core.Result, error) {
	if workers <= 1 {
		return ExSuperEGO(b, a, opts)
	}
	base, sb, sa, err := prepare(b, a, &opts)
	if err != nil {
		return nil, err
	}
	if workers > len(sb.pts) {
		workers = len(sb.pts)
	}

	type shard struct {
		graph  *matching.Graph
		events core.Events
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	chunk := (len(sb.pts) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(sb.pts) {
			hi = len(sb.pts)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			j := &joiner{
				opts:  base.opts,
				norm:  base.norm,
				d:     base.d,
				t:     base.t,
				ub:    base.ub,
				ua:    base.ua,
				exact: true,
				graph: matching.NewGraph(),
			}
			j.events = &shards[w].events
			j.join(newSegment(sb.pts[lo:hi], j.d), sa)
			shards[w].graph = j.graph
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
