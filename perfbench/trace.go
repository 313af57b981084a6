package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The traced run replays a workload's seeded requests in-process and
// records one span per call into a layer, from this package's own code
// around the call. Spans stay in memory and are written out at the end.

// Span kinds. A request's own time is the sum of its top-level spans of
// kind "" plus the longest of its "par" spans (branches the real system
// runs concurrently, such as the shards of a scatter). A "probe" span
// times a layer entry point on the request's data beside the request —
// work the real path does inside another layer's call, so it is not
// added to the request's time.
const (
	kindSeq   = ""
	kindPar   = "par"
	kindProbe = "probe"
)

// span is one timed call into a layer.
type span struct {
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1: top level of the request
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	Tag    string `json:"tag,omitempty"` // e.g. hit/miss for store.view
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. With on false every call is a no-op, so a
// replay can run with the same code and no recording.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex // spans is appended from the store's checkpoint goroutine too
	spans []span
	stack []int32 // open spans of the replay goroutine
	req   int64   // request the replay goroutine is working on
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// request starts attributing spans to request id.
func (t *tracer) request(id int64) { t.req = id }

// begin opens a span under the innermost open span of the replay
// goroutine.
func (t *tracer) begin(name, kind string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Name: name, Kind: kind, Start: t.now()})
	t.mu.Unlock()
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
	t.stack = t.stack[:len(t.stack)-1]
}

// tag labels span id.
func (t *tracer) tag(id int32, tag string) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Tag = tag
	t.mu.Unlock()
}

// detached records a finished top-level span from any goroutine.
func (t *tracer) detached(req int64, name string, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, ID: int32(len(t.spans)), Parent: -1, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// spanStats aggregates a recorded trace.
type spanStats struct {
	spans    []span
	children map[int32][]int32
}

func newSpanStats(t *tracer) *spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &spanStats{spans: append([]span(nil), t.spans...), children: map[int32][]int32{}}
	for _, s := range st.spans {
		if s.Parent >= 0 {
			st.children[s.Parent] = append(st.children[s.Parent], s.ID)
		}
	}
	return st
}

// self is the span's duration minus the time its children cover.
func (st *spanStats) self(s *span) time.Duration {
	d := s.dur()
	for _, c := range st.children[s.ID] {
		d -= st.spans[c].dur()
	}
	return d
}

// agg sums the durations (or self times) and counts of the spans named
// name (and tagged tag, when tag is non-empty) over the requests
// accepted by keep.
func (st *spanStats) agg(name, tag string, self bool, keep func(req int64) bool) (sum time.Duration, n int) {
	for i := range st.spans {
		s := &st.spans[i]
		if s.Name != name || (tag != "" && s.Tag != tag) || (keep != nil && !keep(s.Req)) {
			continue
		}
		if self {
			sum += st.self(s)
		} else {
			sum += s.dur()
		}
		n++
	}
	return sum, n
}

// mean of the span durations (self times) in unit, 0 when none exist:
// the layer did no work of that kind on this workload.
func (st *spanStats) mean(name, tag string, self bool, unit time.Duration, keep func(int64) bool) float64 {
	sum, n := st.agg(name, tag, self, keep)
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(unit)
}

// requestTimes returns each accepted request's own time (see the span
// kinds above) in milliseconds.
func (st *spanStats) requestTimes(keep func(req int64) bool) []float64 {
	seq := map[int64]time.Duration{}
	par := map[int64]time.Duration{}
	for i := range st.spans {
		s := &st.spans[i]
		if s.Parent != -1 || !keep(s.Req) {
			continue
		}
		switch s.Kind {
		case kindSeq:
			seq[s.Req] += s.dur()
		case kindPar:
			if d := s.dur(); d > par[s.Req] {
				par[s.Req] = d
			}
			if _, ok := seq[s.Req]; !ok {
				seq[s.Req] = 0
			}
		}
	}
	out := make([]float64, 0, len(seq))
	for r, d := range seq {
		out = append(out, float64(d+par[r])/1e6)
	}
	return out
}

// writeTrace writes the spans (one JSON object a line) and the
// per-layer summary of a traced run.
func writeTrace(dir, workload string, seed int64, t *tracer, summary map[string]any) error {
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	raw, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".summary.json", append(raw, '\n'), 0o644)
}

// layerUnits fixes the name and unit of every per-layer metric.
var layerUnits = []struct{ name, unit string }{
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"store.view_hit_ratio", "ratio"},
	{"store.evictions_per_op", "count/op"},
	{"store.view_build_ms", "ms"},
	{"store.view_lookup_us", "us"},
	{"store.create_ms", "ms"},
	{"store.delete_ms", "ms"},
	{"core.prepare_ms", "ms"},
	{"core.scan_ms", "ms"},
	{"core.joins_per_op", "count/op"},
	{"matching.match_ms", "ms"},
	{"matching.edges_per_join", "count/join"},
	{"index.bound_us", "us"},
	{"index.prune_ratio", "ratio"},
	{"index.summary_ms", "ms"},
	{"cluster.pivot_fetch_ms", "ms"},
	{"cluster.shard_p50_ms", "ms"},
	{"cluster.shard_max_ms", "ms"},
	{"cluster.gather_overhead_ms", "ms"},
	{"durable.append_us", "us"},
	{"durable.checkpoint_ms", "ms"},
	{"durable.write_amp", "ratio"},
	{"trace.residual_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"error_ratio", "ratio"},
}

// finishLayers attaches units to the per-layer values. Every workload
// reports every name: a layer the workload does not exercise reports 0
// (README.md lists which apply where).
func finishLayers(vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(layerUnits))
	for _, lu := range layerUnits {
		out[lu.name] = metric{vals[lu.name], lu.unit}
		delete(vals, lu.name)
	}
	for k := range vals {
		return nil, fmt.Errorf("per-layer value %q has no declared metric", k)
	}
	return out, nil
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
