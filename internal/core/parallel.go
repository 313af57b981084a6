package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/opencsj/csj/internal/matching"
	"github.com/opencsj/csj/internal/vector"
)

// scanTileRows is the B-row granularity of the parallel scan's
// cache-blocked tiling: workers claim fixed-size tiles of the sorted B
// buffer from a shared counter instead of one static chunk each. Tiles
// bound skew (a worker stuck on a dense region gives up only one tile,
// not a fixed 1/workers share — the skew-aware distribution problem of
// LSF-Join), and a tile's A-window strip is small enough to stay
// cache-resident across its rows under the flat SoA streams.
const scanTileRows = 256

// ExMinMaxParallel is the multi-worker variant of Ex-MinMax. The sorted
// Encd_B buffer is processed in scanTileRows-row tiles claimed from a
// shared counter, each worker window-scans its tiles against Encd_A
// collecting matches into a private graph, the graphs merge, and a
// single matcher call resolves the one-to-one pairs.
//
// The result is a maximum matching of exactly the same candidate graph
// the serial algorithm sees, so with the Hopcroft–Karp matcher the pair
// count is identical to the serial run; with CSF it may differ by the
// heuristic's tie-breaking (both are valid exact answers). The paper
// evaluates single-threaded runs; this entry point exists because the
// scan phase is embarrassingly parallel over B.
//
// The goroutine count is clamped to GOMAXPROCS: the scan is pure CPU
// work, so extra goroutines only add dispatch overhead. When the
// effective worker count is 1 (single-core box, or fewer tiles than
// workers) the same collect-then-match algorithm runs inline on the
// calling goroutine — identical output, none of the goroutine+merge
// machinery.
func ExMinMaxParallel(b, a *vector.Community, opts Options, workers int) (*Result, error) {
	if workers <= 1 {
		return ExMinMax(b, a, opts)
	}
	if err := validate(b, a, &opts); err != nil {
		return nil, err
	}
	in, bb, ab, err := encode(b, a, &opts)
	if err != nil {
		return nil, err
	}
	if g := runtime.GOMAXPROCS(0); workers > g {
		workers = g
	}
	tiles := (len(in.BID) + scanTileRows - 1) / scanTileRows
	if workers > tiles {
		workers = tiles
	}

	res := &Result{}
	// The matcher reads the graph's CSR form, which depends on the edge
	// multiset only: the pairs are the same for every worker count and
	// every interleaving of the workers' tiles.
	merged := matching.NewGraph()
	if workers <= 1 {
		scanWindowCollect(in, 0, len(in.BID), 0, merged, &res.Events)
		if canceled(in.Done) {
			return nil, ErrCanceled
		}
	} else {
		type shard struct {
			graph  *matching.Graph
			events Events
		}
		shards := make([]shard, workers)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				shards[w].graph = matching.NewGraph()
				// offset carries across this worker's tiles: tiles are
				// claimed in ascending order, and an A entry the
				// skip/offset logic consumed is dead for every later
				// (larger) encoded B ID.
				offset := 0
				for {
					t := int(next.Add(1)) - 1
					if t >= tiles || canceled(in.Done) {
						return
					}
					lo := t * scanTileRows
					hi := min(lo+scanTileRows, len(in.BID))
					offset = scanWindowCollect(in, lo, hi, offset, shards[w].graph, &shards[w].events)
				}
			}(w)
		}
		wg.Wait()
		// Every worker bailed at its next checkpoint; report the
		// cancellation instead of matching a partial graph.
		if canceled(in.Done) {
			return nil, ErrCanceled
		}
		for w := range shards {
			if shards[w].graph == nil {
				continue
			}
			res.Events.Add(shards[w].events)
			merged.Merge(shards[w].graph)
		}
	}

	if merged.Edges() > 0 {
		res.Events.CSFCalls++
		pairs := opts.matcher()(merged)
		positions := make([][2]int, len(pairs))
		for i, p := range pairs {
			positions[i] = [2]int{int(p.B), int(p.A)}
		}
		res.Pairs = translate(positions, bb, ab)
	}
	return res, nil
}

// scanWindowCollect runs the Ex-MinMax window scan for B positions
// [lo, hi) against the full A buffer, collecting every match into g.
// It applies MIN PRUNE and the skip/offset fast-forwarding starting
// from the caller's offset, and returns the advanced offset for the
// caller's next (higher) tile; no segment flushing happens here (the
// caller matches globally). Like the serial scans it polls in.Done on a
// step budget carried across rows; the caller detects the cancellation
// after joining the workers.
func scanWindowCollect(in *Input, lo, hi, offset int, g *matching.Graph, ev *Events) int {
	budget := cancelCheckEvery
	for bi := lo; bi < hi; bi++ {
		if budget--; budget <= 0 {
			if canceled(in.Done) {
				return offset
			}
			budget = cancelCheckEvery
		}
		skip := true
		id := in.BID[bi]
	scanA:
		for ai := offset; ai < len(in.AMin); ai++ {
			if budget--; budget <= 0 {
				if canceled(in.Done) {
					return offset
				}
				budget = cancelCheckEvery
			}
			switch {
			case id < in.AMin[ai]:
				ev.MinPrunes++
				break scanA
			case id <= in.AMax[ai]:
				skip = false
				switch in.Cmp.Compare(bi, ai) {
				case OutcomeNoOverlap:
					ev.NoOverlaps++
				case OutcomeNoMatch:
					ev.NoMatches++
				case OutcomeMatch:
					ev.Matches++
					g.AddEdge(int32(bi), int32(ai))
				}
			default:
				ev.MaxPrunes++
				if skip && !in.DisableSkipOffset {
					offset = ai + 1
					ev.OffsetAdvances++
				}
			}
		}
	}
	return offset
}
