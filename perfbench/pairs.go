package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/server"
	"github.com/opencsj/csj/internal/store"
)

// pairs-cold: one in-memory csjserve whose prepared-view cache holds
// well under half of the corpus's views, hit by uniformly random
// /similarity pairs. Evictions, view rebuilds, the pruned scan and CSF
// matching share the work; the index, cluster and WAL layers do
// nothing.
const (
	pairsCommunities = 100
	pairsSize        = 1000
	pairsEps         = 1
	pairsCacheBytes  = 32 << 20
	pairsWarmup      = 500  // requests of each set-up round, so the cache is full and churning
	pairsReplay      = 1500 // traced requests replayed in-process
	pairsOracle      = 40   // answers checked against the oracle
	pairsWritePasses = 5    // passes replacing every community, timed as the workload's writes
	setupRounds      = 3
)

// pairSeq is the seeded request sequence: ordered pairs of distinct
// corpus indexes, uniformly random.
func pairSeq(seed int64, n, length int) [][2]int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([][2]int, length)
	for i := range out {
		b := rng.Intn(n)
		a := rng.Intn(n - 1)
		if a >= b {
			a++
		}
		out[i] = [2]int{b, a}
	}
	return out
}

func similarityBody(b, a int64) []byte {
	return fmt.Appendf(nil, `{"b":%d,"a":%d,"method":"exminmax","options":{"epsilon":%d},"orient":true}`, b, a, pairsEps)
}

// pairAnswer is one /similarity answer kept for the oracle.
type pairAnswer struct {
	b, a int // corpus indexes as requested
	resp server.SimilarityResponse
}

// similarityWorkers returns the closed-loop callers that walk seq from
// *next, recording answers when rec is non-nil.
func similarityWorkers(url string, seq [][2]int, next *atomic.Int64, ids []int64, rec *answerLog) []worker {
	ws := make([]worker, callers)
	for w := range ws {
		ws[w] = func(c *conn) (op, error) {
			i := next.Add(1) - 1
			p := seq[i%int64(len(seq))]
			t0 := time.Now()
			status, body, err := c.do(http.MethodPost, url+"/similarity", similarityBody(ids[p[0]], ids[p[1]]))
			o := op{lat: time.Since(t0)}
			if err != nil || status != http.StatusOK {
				o.failed = true
				return o, nil
			}
			if rec != nil {
				var resp server.SimilarityResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					return o, fmt.Errorf("decoding /similarity answer: %w", err)
				}
				rec.add(pairAnswer{b: p[0], a: p[1], resp: resp})
			}
			return o, nil
		}
	}
	return ws
}

// answerLog collects answers from the generator goroutines.
type answerLog struct {
	mu  sync.Mutex
	all []pairAnswer
}

func (l *answerLog) add(a pairAnswer) {
	l.mu.Lock()
	l.all = append(l.all, a)
	l.mu.Unlock()
}

// checkPairs compares a seeded sample of answers with the oracle: the
// scalar reference Ex-MinMax scan with Hopcroft–Karp matching, run
// in-process on the same communities.
func checkPairs(seed int64, comms []*csj.Community, answers []pairAnswer, sample int) error {
	if len(answers) == 0 {
		return fmt.Errorf("no answers to check")
	}
	rng := rand.New(rand.NewSource(seed ^ 0x0a11))
	opts := &csj.Options{Epsilon: pairsEps, Matcher: csj.MatcherHopcroftKarp, ReferenceScan: true}
	for k := 0; k < sample; k++ {
		ans := answers[rng.Intn(len(answers))]
		if err := checkPair(comms[ans.b], comms[ans.a], &ans.resp, opts); err != nil {
			return fmt.Errorf("pair (%d,%d): %w", ans.b, ans.a, err)
		}
	}
	return nil
}

// checkPair checks one oriented /similarity answer against the oracle.
func checkPair(b, a *csj.Community, got *server.SimilarityResponse, opts *csj.Options) error {
	if b.Size() > a.Size() {
		b, a = a, b
	}
	want, err := csj.SimilarityCtx(context.Background(), b, a, csj.ExMinMax, opts)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if got.Matched != len(want.Pairs) || got.SizeB != want.SizeB || got.SizeA != want.SizeA || got.Similarity != want.Similarity {
		return fmt.Errorf("answer matched=%d sizes=%d/%d similarity=%v, oracle matched=%d sizes=%d/%d similarity=%v",
			got.Matched, got.SizeB, got.SizeA, got.Similarity, len(want.Pairs), want.SizeB, want.SizeA, want.Similarity)
	}
	return nil
}

// pairsServer is one running set-up of pairs-cold.
type pairsServer struct {
	p   *proc
	ids []int64 // corpus index -> community id
}

func (ps *pairsServer) procs() []*proc { return []*proc{ps.p} }
func (ps *pairsServer) stop() error    { return ps.p.stop() }

func startPairs(cfg config, round int, bodies [][]byte, seq [][2]int) (*pairsServer, time.Duration, latencies, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, nil, err
	}
	t0 := time.Now()
	p, err := startProc(cfg.RunDir, fmt.Sprintf("csjserve-%d", round), cfg.BinDir+"/csjserve", port,
		"-prepared-cache-bytes", strconv.Itoa(pairsCacheBytes))
	if err != nil {
		return nil, 0, nil, err
	}
	ps := &pairsServer{p: p}
	writes, err := func() (latencies, error) {
		if err := waitReady(p, 30*time.Second); err != nil {
			return nil, err
		}
		ids, writes, err := upload(p.url, "/communities", bodies)
		if err != nil {
			return nil, err
		}
		ps.ids = ids
		var next atomic.Int64
		st, err := runCount(pairsWarmup, similarityWorkers(p.url, seq, &next, ids, nil))
		if err != nil {
			return nil, err
		}
		if st.failed > 0 {
			return nil, fmt.Errorf("%d of %d warm-up requests failed", st.failed, st.attempted)
		}
		return writes, nil
	}()
	if err != nil {
		_ = p.stop() // the set-up error is the one to report
		return nil, 0, nil, err
	}
	return ps, time.Since(t0), writes, nil
}

func runPairsCold(cfg config) (*result, error) {
	comms := pairsCorpus(cfg.Seed, pairsCommunities, pairsSize)
	bodies := make([][]byte, len(comms))
	for i, c := range comms {
		b, err := uploadBody(c)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	vb, err := viewBytes(comms, &csj.Options{Epsilon: pairsEps})
	if err != nil {
		return nil, err
	}
	seq := pairSeq(cfg.Seed, len(comms), 200_000)

	ps, su, err := setUp(cfg, func(r int) (*pairsServer, time.Duration, latencies, error) {
		return startPairs(cfg, r, bodies, seq)
	})
	if err != nil {
		return nil, err
	}
	defer ps.stop()
	var next atomic.Int64
	next.Store(pairsWarmup)
	answers := &answerLog{}
	m, err := measure(cfg, ps, ps.procs(), similarityWorkers(ps.p.url, seq, &next, ps.ids, answers))
	if err != nil {
		return nil, err
	}
	// The workload's writes are timed after the window, on a server
	// whose heap already holds the corpus (see timedWrites).
	var writes []latencies
	if !cfg.Trace {
		if writes, err = timedWrites(ps.p.url, bodies, ps.ids, pairsWritePasses); err != nil {
			return nil, err
		}
	}

	if err := checkPairs(cfg.Seed, comms, answers.all, pairsOracle); err != nil {
		return nil, fmt.Errorf("wrong answer: %w", err)
	}
	hits := m.delta("csj_prepared_cache_hits_total")
	misses := m.delta("csj_prepared_cache_misses_total")
	evicted := m.delta("csj_prepared_cache_evicted_bytes_total")
	hitRatio := ratio(hits, hits+misses)
	info(m, "pairs-cold", cfg.Seed, map[string]any{
		"communities": len(comms), "users": userCount(comms), "view_bytes": vb,
		"cache_cap_bytes": pairsCacheBytes, "view_hit_ratio": hitRatio, "evicted_bytes": evicted,
		"oracle_checked": pairsOracle, "setup_rounds": su.rounds, "setup_steal_ms": su.stealMS,
	})
	// The workload measures a cache too small for its corpus: if the
	// views fit, or the window barely misses, it no longer does.
	if float64(vb) < 1.8*pairsCacheBytes {
		return nil, fmt.Errorf("self-check: corpus views are %d bytes, want at least 1.8x the %d-byte cache", vb, pairsCacheBytes)
	}
	if hitRatio > 0.75 || evicted == 0 {
		return nil, fmt.Errorf("self-check: view hit ratio %.3f (want <= 0.75) with %v evicted bytes", hitRatio, evicted)
	}

	res := &result{Correct: true, Attempted: m.win.attempted, Failed: m.win.failed}
	if !cfg.Trace {
		res.Metrics = e2eMetrics(m.win, writes, m.rssMB, su.secs)
		return res, nil
	}
	if err := ps.stop(); err != nil {
		return nil, err
	}
	vals, err := tracePairs(cfg, comms, bodies, seq, m)
	if err != nil {
		return nil, err
	}
	if res.Metrics, err = finishLayers(vals); err != nil {
		return nil, err
	}
	return res, nil
}

// replayPairs runs pairs-cold in-process: create the corpus, warm the
// cache with the same requests the server's set-up sends, then replay
// pairsReplay requests of the timed sequence.
func replayPairs(t *tracer, comms []*csj.Community, bodies [][]byte, seq [][2]int) (*joiner, store.CacheStats, store.CacheStats, time.Duration, error) {
	st := store.New(store.Config{MaxCacheBytes: pairsCacheBytes})
	j := newJoiner(t, pairsEps)
	ids := make([]int64, len(comms))
	for i := range comms {
		t.request(-1 - int64(i))
		e, err := j.create(st, bodies[i])
		if err != nil {
			return nil, store.CacheStats{}, store.CacheStats{}, 0, err
		}
		ids[i] = e.ID
	}
	for i := 0; i < pairsWarmup; i++ {
		t.request(-1_000_000 - int64(i))
		p := seq[i]
		if _, err := j.similarity(st, similarityBody(ids[p[0]], ids[p[1]])); err != nil {
			return nil, store.CacheStats{}, store.CacheStats{}, 0, err
		}
	}
	j.joins, j.edges = 0, 0
	before := st.CacheStats()
	t0 := time.Now()
	for i := 0; i < pairsReplay; i++ {
		t.request(int64(i))
		p := seq[pairsWarmup+i]
		if _, err := j.similarity(st, similarityBody(ids[p[0]], ids[p[1]])); err != nil {
			return nil, store.CacheStats{}, store.CacheStats{}, 0, err
		}
	}
	wall := time.Since(t0)
	return j, before, st.CacheStats(), wall, nil
}

func tracePairs(cfg config, comms []*csj.Community, bodies [][]byte, seq [][2]int, m *measured) (map[string]float64, error) {
	_, _, _, offWall, err := replayPairs(newTracer(false), comms, bodies, seq)
	if err != nil {
		return nil, err
	}
	t := newTracer(true)
	j, before, after, onWall, err := replayPairs(t, comms, bodies, seq)
	if err != nil {
		return nil, err
	}
	ss := newSpanStats(t)
	timed := func(r int64) bool { return r >= 0 }
	ops := float64(pairsReplay)
	match, _ := ss.agg("matching.match", "", false, timed)
	vals := map[string]float64{
		"server.decode_us":        ss.mean("server.decode", "", false, time.Microsecond, timed),
		"server.encode_us":        ss.mean("server.encode", "", false, time.Microsecond, timed),
		"store.view_hit_ratio":    ratio(float64(after.Hits-before.Hits), float64(after.Hits-before.Hits+after.Misses-before.Misses)),
		"store.evictions_per_op":  float64(after.Evictions-before.Evictions) / ops,
		"store.view_build_ms":     ss.mean("store.view", "miss", false, time.Millisecond, timed),
		"store.view_lookup_us":    ss.mean("store.view", "hit", false, time.Microsecond, timed),
		"store.create_ms":         ss.mean("store.create", "", true, time.Millisecond, nil),
		"index.summary_ms":        ss.mean("index.summary", "", false, time.Millisecond, nil),
		"core.prepare_ms":         ss.mean("core.prepare", "", false, time.Millisecond, timed),
		"core.scan_ms":            ss.mean("core.join", "", true, time.Millisecond, timed),
		"core.joins_per_op":       float64(j.joins) / ops,
		"matching.match_ms":       ratio(float64(match)/1e6, float64(j.joins)),
		"matching.edges_per_join": ratio(float64(j.edges), float64(j.joins)),
		"trace.residual_ms":       m.win.reads.quantileMS(0.5) - median(ss.requestTimes(timed)),
		"trace.overhead_ratio":    onWall.Seconds() / offWall.Seconds(),
		"error_ratio":             m.errorRatio(),
	}
	summary := map[string]any{"workload": "pairs-cold", "seed": cfg.Seed, "replayed_requests": pairsReplay,
		"replay_wall_s_traced": onWall.Seconds(), "replay_wall_s_untraced": offWall.Seconds(),
		"e2e_read_p50_ms": m.win.reads.quantileMS(0.5), "median_request_span_sum_ms": median(ss.requestTimes(timed)),
		"layers": vals}
	if err := writeTrace(cfg.OutDir, "pairs-cold", cfg.Seed, t, summary); err != nil {
		return nil, err
	}
	return vals, nil
}
