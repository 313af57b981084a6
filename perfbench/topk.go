package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/index"
	"github.com/opencsj/csj/internal/server"
	"github.com/opencsj/csj/internal/store"
)

// topk-sharded: csjcoord over three csjserve shards holding a clustered
// corpus of small communities, hit by /topk over every candidate with
// the envelope index. Index bound checks, the coordinator's pivot
// fetch, fan-out and merge, and shard JSON do most of the work; the few
// joins are small, every view is resident after warm-up, and there is
// no WAL.
const (
	topkCommunities = 5_000
	topkDims        = 6
	topkArchetypes  = 64
	topkSize        = 10
	topkEps         = 1500
	topkK           = 10
	topkShards      = 3
	topkPivots      = 256 // distinct pivots; set-up warms every one
	topkReplay      = 256 // traced queries replayed in-process
	topkOracle      = 16  // pivots whose answers are checked
)

func topkBody(pivot int64) []byte {
	return fmt.Appendf(nil, `{"pivot":%d,"k":%d,"all_candidates":true,"use_index":true,"options":{"epsilon":%d}}`, pivot, topkK, topkEps)
}

// topkEnvelope is the coordinator's reply shape.
type topkEnvelope struct {
	Partial bool               `json:"partial"`
	Result  []server.TopKEntry `json:"result"`
}

// topkAnswer is one /topk answer kept for the oracle.
type topkAnswer struct {
	pivot   int // corpus index
	entries []server.TopKEntry
}

// topkCluster is one running set-up of topk-sharded.
type topkCluster struct {
	shards []*proc
	coord  *proc
	ids    []int64 // corpus index -> community id
}

func (tc *topkCluster) procs() []*proc {
	out := append([]*proc(nil), tc.shards...)
	if tc.coord != nil {
		out = append(out, tc.coord)
	}
	return out
}

func (tc *topkCluster) stop() error { return stopAll(tc.procs()) }

// topkWorkers returns the closed-loop callers that walk the pivot list
// from *next, recording answers when rec is non-nil.
func topkWorkers(url string, pivots []int, next *atomic.Int64, ids []int64, rec *topkLog) []worker {
	ws := make([]worker, callers)
	for w := range ws {
		ws[w] = func(c *conn) (op, error) {
			i := next.Add(1) - 1
			pv := pivots[i%int64(len(pivots))]
			t0 := time.Now()
			// require_complete: a shard that does not answer fails the
			// request instead of shrinking the candidate set.
			status, body, err := c.do(http.MethodPost, url+"/topk?require_complete=1", topkBody(ids[pv]))
			o := op{lat: time.Since(t0)}
			if err != nil || status != http.StatusOK {
				o.failed = true
				return o, nil
			}
			if rec != nil {
				var env topkEnvelope
				if err := json.Unmarshal(body, &env); err != nil {
					return o, fmt.Errorf("decoding /topk answer: %w", err)
				}
				if env.Partial {
					o.failed = true
					return o, nil
				}
				rec.add(topkAnswer{pivot: pv, entries: env.Result})
			}
			return o, nil
		}
	}
	return ws
}

type topkLog struct {
	mu  sync.Mutex
	all []topkAnswer
}

func (l *topkLog) add(a topkAnswer) {
	l.mu.Lock()
	l.all = append(l.all, a)
	l.mu.Unlock()
}

func startTopK(cfg config, round int, bodies [][]byte, pivots []int) (*topkCluster, time.Duration, latencies, error) {
	ports := make([]int, topkShards+1)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, 0, nil, err
		}
		ports[i] = p
	}
	tc := &topkCluster{}
	t0 := time.Now()
	writes, err := func() (latencies, error) {
		var shardArgs []string
		for s := 0; s < topkShards; s++ {
			p, err := startProc(cfg.RunDir, fmt.Sprintf("shard%d-%d", s, round), cfg.BinDir+"/csjserve", ports[s])
			if err != nil {
				return nil, err
			}
			tc.shards = append(tc.shards, p)
			shardArgs = append(shardArgs, "-shard", fmt.Sprintf("s%d=%s", s, p.url))
		}
		coord, err := startProc(cfg.RunDir, fmt.Sprintf("coord-%d", round), cfg.BinDir+"/csjcoord", ports[topkShards], shardArgs...)
		if err != nil {
			return nil, err
		}
		tc.coord = coord
		for _, p := range tc.procs() {
			if err := waitReady(p, 30*time.Second); err != nil {
				return nil, err
			}
		}
		ids, writes, err := upload(coord.url, "/communities", bodies)
		if err != nil {
			return nil, err
		}
		tc.ids = ids
		var next atomic.Int64
		st, err := runCount(int64(len(pivots)), topkWorkers(coord.url, pivots, &next, ids, nil))
		if err != nil {
			return nil, err
		}
		if st.failed > 0 {
			return nil, fmt.Errorf("%d of %d warm-up queries failed", st.failed, st.attempted)
		}
		return writes, nil
	}()
	if err != nil {
		_ = tc.stop() // the set-up error is the one to report
		return nil, 0, nil, err
	}
	return tc, time.Since(t0), writes, nil
}

// topkOracleCheck compares the answers of a seeded sample of pivots
// with single-node csj.TopKIndexedCtx over the whole corpus, candidates
// in ascending id order as a single csjserve orders them.
func topkOracleCheck(seed int64, comms []*csj.Community, ids []int64, answers []topkAnswer) error {
	byPivot := map[int][]topkAnswer{}
	for _, a := range answers {
		byPivot[a.pivot] = append(byPivot[a.pivot], a)
	}
	pivots := make([]int, 0, len(byPivot))
	for p := range byPivot {
		pivots = append(pivots, p)
	}
	sort.Ints(pivots)
	if len(pivots) == 0 {
		return fmt.Errorf("no answers to check")
	}
	rng := rand.New(rand.NewSource(seed ^ 0x0a11))
	rng.Shuffle(len(pivots), func(i, j int) { pivots[i], pivots[j] = pivots[j], pivots[i] })
	if len(pivots) > topkOracle {
		pivots = pivots[:topkOracle]
	}

	opts := &csj.Options{Epsilon: topkEps}
	order := make([]int, len(comms)) // corpus indexes by ascending id
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return ids[order[i]] < ids[order[j]] })
	sums := make([]*csj.CommunitySummary, len(comms))
	for i, c := range comms {
		s, err := csj.SummarizeCommunity(c, 0)
		if err != nil {
			return err
		}
		sums[i] = s
	}
	for _, pv := range pivots {
		var cands []csj.IndexedCandidate
		var candIdx []int
		for _, ci := range order {
			if ci == pv {
				continue
			}
			c := comms[ci]
			cands = append(cands, csj.IndexedCandidate{Name: c.Name, Summary: sums[ci],
				View: func() (*csj.PreparedCommunity, error) { return csj.Precompute(c, opts) }})
			candIdx = append(candIdx, ci)
		}
		pp, err := csj.Precompute(comms[pv], opts)
		if err != nil {
			return err
		}
		want, err := csj.TopKIndexedCtx(context.Background(), pp, cands, topkK, opts)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		for _, got := range byPivot[pv] {
			if len(got.entries) != len(want) {
				return fmt.Errorf("pivot %d: %d entries, oracle %d", pv, len(got.entries), len(want))
			}
			for i, w := range want {
				g := got.entries[i]
				wantSim := 0.0
				if w.Result != nil {
					wantSim = w.Result.Similarity
				}
				if g.Community != ids[candIdx[w.Index]] || g.Skipped != w.Skipped || g.Exact != wantSim {
					return fmt.Errorf("pivot %d rank %d: got community %d similarity %v skipped %v, oracle community %d similarity %v skipped %v",
						pv, i, g.Community, g.Exact, g.Skipped, ids[candIdx[w.Index]], wantSim, w.Skipped)
				}
			}
		}
	}
	return nil
}

func runTopKSharded(cfg config) (*result, error) {
	comms := topkCorpus(cfg.Seed, topkCommunities, topkDims, topkArchetypes, topkSize)
	bodies := make([][]byte, len(comms))
	for i, c := range comms {
		b, err := uploadBody(c)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	vb, err := viewBytes(comms, &csj.Options{Epsilon: topkEps})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x70c))
	pivots := rng.Perm(len(comms))[:topkPivots]

	tc, su, err := setUp(cfg, func(r int) (*topkCluster, time.Duration, latencies, error) {
		return startTopK(cfg, r, bodies, pivots)
	})
	if err != nil {
		return nil, err
	}
	defer tc.stop()
	var next atomic.Int64
	answers := &topkLog{}
	m, err := measure(cfg, tc, tc.shards, topkWorkers(tc.coord.url, pivots, &next, tc.ids, answers))
	if err != nil {
		return nil, err
	}
	if err := topkOracleCheck(cfg.Seed, comms, tc.ids, answers.all); err != nil {
		return nil, fmt.Errorf("wrong answer: %w", err)
	}
	hits := m.delta("csj_prepared_cache_hits_total")
	misses := m.delta("csj_prepared_cache_misses_total")
	checks := m.delta("csj_index_bound_checks_total")
	pruned := m.delta("csj_index_candidates_pruned_total")
	hitRatio, pruneRatio := ratio(hits, hits+misses), ratio(pruned, checks)
	info(m, "topk-sharded", cfg.Seed, map[string]any{
		"communities": len(comms), "users": userCount(comms), "shards": topkShards, "pivots": topkPivots,
		"view_bytes": vb, "cache_cap_bytes": "default (256 MiB per shard)", "view_hit_ratio": hitRatio,
		"index_prune_ratio": pruneRatio, "oracle_pivots": topkOracle,
		"setup_rounds": su.rounds, "setup_steal_ms": su.stealMS,
	})
	// After warm-up every view the queries touch is resident, and the
	// index must prune nearly every candidate: otherwise the workload
	// has drifted into measuring joins or view builds.
	if hitRatio < 0.99 || pruneRatio < 0.9 {
		return nil, fmt.Errorf("self-check: view hit ratio %.4f (want >= 0.99), index prune ratio %.4f (want >= 0.9)", hitRatio, pruneRatio)
	}

	res := &result{Correct: true, Attempted: m.win.attempted, Failed: m.win.failed}
	if !cfg.Trace {
		res.Metrics = e2eMetrics(m.win, su.writes, m.rssMB, su.secs)
		return res, nil
	}
	vals, err := traceTopK(cfg, tc, comms, pivots, m)
	if err != nil {
		return nil, err
	}
	if res.Metrics, err = finishLayers(vals); err != nil {
		return nil, err
	}
	return res, nil
}

// clusterTimes times the cluster layer from outside, query by query:
// the pivot profile fetch from its owner, each shard's /internal/topk
// called directly (concurrently, as the coordinator does), and the
// coordinator's own /topk.
func clusterTimes(tc *topkCluster, owner map[int64]int, pivots []int) (fetch, shard, shardMax, overhead []float64, err error) {
	conns := make([]*conn, topkShards+1)
	for i := range conns {
		conns[i] = newConn()
		defer conns[i].close()
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for _, pv := range pivots {
		id := tc.ids[pv]
		own := owner[id]
		t0 := time.Now()
		status, body, err := conns[0].do(http.MethodGet, fmt.Sprintf("%s/communities/%d/profile", tc.shards[own].url, id), nil)
		if err != nil || status != http.StatusOK {
			return nil, nil, nil, nil, fmt.Errorf("profile fetch of %d: status %d, %v", id, status, err)
		}
		fetch = append(fetch, ms(time.Since(t0)))
		var profile server.CommunityPayload
		if err := json.Unmarshal(body, &profile); err != nil {
			return nil, nil, nil, nil, err
		}
		times := make([]float64, topkShards)
		errs := make([]error, topkShards)
		var wg sync.WaitGroup
		for s := 0; s < topkShards; s++ {
			req := server.ShardQueryRequest{K: topkK, UseIndex: true, Options: server.OptionsPayload{Epsilon: topkEps}}
			if s == own {
				req.Pivot.ID = &id
			} else {
				req.Pivot.Profile = &profile
			}
			b, err := json.Marshal(req)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			wg.Add(1)
			go func(s int, b []byte) {
				defer wg.Done()
				t := time.Now()
				status, body, err := conns[1+s].do(http.MethodPost, tc.shards[s].url+"/internal/topk", b)
				times[s] = ms(time.Since(t))
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, body)
				}
				errs[s] = err
			}(s, b)
		}
		wg.Wait()
		slowest := 0.0
		for s, t := range times {
			if errs[s] != nil {
				return nil, nil, nil, nil, fmt.Errorf("shard %d /internal/topk: %w", s, errs[s])
			}
			shard = append(shard, t)
			if t > slowest {
				slowest = t
			}
		}
		shardMax = append(shardMax, slowest)
		t0 = time.Now()
		status, body, err = conns[0].do(http.MethodPost, tc.coord.url+"/topk?require_complete=1", topkBody(id))
		if err != nil || status != http.StatusOK {
			return nil, nil, nil, nil, fmt.Errorf("coordinator /topk: status %d, %v: %s", status, err, body)
		}
		overhead = append(overhead, ms(time.Since(t0))-slowest)
	}
	return fetch, shard, shardMax, overhead, nil
}

// shardOwners asks every shard which communities it holds.
func shardOwners(tc *topkCluster) (map[int64]int, error) {
	c := newConn()
	defer c.close()
	owner := map[int64]int{}
	for s, p := range tc.shards {
		status, body, err := c.do(http.MethodGet, p.url+"/communities", nil)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("listing shard %d: status %d, %v", s, status, err)
		}
		var list []server.CommunityInfo
		if err := json.Unmarshal(body, &list); err != nil {
			return nil, err
		}
		for _, ci := range list {
			owner[ci.ID] = s
		}
	}
	return owner, nil
}

// topkReplayer replays /internal/topk on in-process shard stores that
// hold exactly what the real shards hold.
type topkReplayer struct {
	t      *tracer
	stores []*store.Store
	opts   *csj.Options
	stats  csj.IndexStats // summed over replayed queries
}

func newTopKReplayer(t *tracer, comms []*csj.Community, ids []int64, owner map[int64]int) (*topkReplayer, error) {
	r := &topkReplayer{t: t, opts: &csj.Options{Epsilon: topkEps}}
	for s := 0; s < topkShards; s++ {
		r.stores = append(r.stores, store.New(store.Config{}))
	}
	for i, c := range comms {
		t.request(-1 - int64(i))
		id := t.begin("store.create", kindSeq)
		_, err := r.stores[owner[ids[i]]].CreateWithID(ids[i], c)
		t.end(id)
		if err != nil {
			return nil, err
		}
		id = t.begin("index.summary", kindProbe)
		_, err = index.NewSummary(internal(c), 0)
		t.end(id)
		if err != nil {
			return nil, err
		}
	}
	r.opts.OnIndexStats = func(s csj.IndexStats) {
		r.stats.Candidates += s.Candidates
		r.stats.Pruned += s.Pruned
		r.stats.Visited += s.Visited
		r.stats.BoundChecks += s.BoundChecks
	}
	return r, nil
}

// shardQuery replays one shard's /internal/topk handler.
func (r *topkReplayer) shardQuery(st *store.Store, body []byte) error {
	t := r.t
	var req server.ShardQueryRequest
	id := t.begin("server.decode", kindSeq)
	err := json.Unmarshal(body, &req)
	t.end(id)
	if err != nil {
		return err
	}
	snap := st.Snapshot()
	var pivotID int64
	var pv *csj.PreparedCommunity
	if req.Pivot.ID != nil {
		pivotID = *req.Pivot.ID
		pv, _, err = tracedView(t, st, snap, pivotID, r.opts.Spec())
	} else {
		c := &csj.Community{Name: req.Pivot.Profile.Name, Category: req.Pivot.Profile.Category,
			Users: make([]csj.Vector, len(req.Pivot.Profile.Users))}
		for i, u := range req.Pivot.Profile.Users {
			c.Users[i] = u
		}
		id = t.begin("core.prepare", kindSeq)
		pv, err = csj.Precompute(c, r.opts)
		t.end(id)
	}
	if err != nil {
		return err
	}
	var cands []csj.IndexedCandidate
	var candIDs []int64
	for _, e := range snap.List() {
		if e.ID == pivotID {
			continue
		}
		e := e
		cands = append(cands, csj.IndexedCandidate{Name: e.Comm.Name, Summary: e.Summary,
			View: func() (*csj.PreparedCommunity, error) {
				v, _, err := tracedView(t, st, snap, e.ID, r.opts.Spec())
				return v, err
			}})
		candIDs = append(candIDs, e.ID)
	}
	// The bound pass the engine makes internally, timed on its own.
	ps, err := pv.Summarize(0)
	if err != nil {
		return err
	}
	id = t.begin("index.bound", kindProbe)
	for _, c := range cands {
		_ = csj.UpperBoundPairs(ps, c.Summary, topkEps)
	}
	t.end(id)
	id = t.begin("csj.topk", kindSeq)
	top, err := csj.TopKIndexedCtx(context.Background(), pv, cands, req.K, r.opts)
	t.end(id)
	if err != nil {
		return err
	}
	out := make([]server.TopKEntry, len(top))
	for i, e := range top {
		out[i] = server.TopKEntry{Community: candIDs[e.Index], Name: e.Name, Approx: e.ApproxSimilarity, Skipped: e.Skipped}
		if e.Result != nil {
			out[i].Exact, out[i].Refined = e.Result.Similarity, true
		}
	}
	id = t.begin("server.encode", kindSeq)
	_, err = json.Marshal(out)
	t.end(id)
	return err
}

// query replays one /topk: the coordinator's per-shard requests, each
// shard's handler run in turn as a parallel branch of the request.
func (r *topkReplayer) query(comms []*csj.Community, ids []int64, owner map[int64]int, pv int) error {
	id := ids[pv]
	c := comms[pv]
	profile := server.CommunityPayload{Name: c.Name, Category: c.Category, Users: make([][]int32, len(c.Users))}
	for i, u := range c.Users {
		profile.Users[i] = u
	}
	for s, st := range r.stores {
		req := server.ShardQueryRequest{K: topkK, UseIndex: true, Options: server.OptionsPayload{Epsilon: topkEps}}
		if s == owner[id] {
			req.Pivot.ID = &id
		} else {
			req.Pivot.Profile = &profile
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		sid := r.t.begin("shard", kindPar)
		err = r.shardQuery(st, body)
		r.t.end(sid)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayTopK creates the shard stores, warms every pivot once, and
// replays topkReplay queries of the timed pivot walk.
func replayTopK(t *tracer, comms []*csj.Community, ids []int64, owner map[int64]int, pivots []int) (*topkReplayer, []store.CacheStats, []store.CacheStats, time.Duration, error) {
	r, err := newTopKReplayer(t, comms, ids, owner)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	for i, pv := range pivots {
		t.request(-1_000_000 - int64(i))
		if err := r.query(comms, ids, owner, pv); err != nil {
			return nil, nil, nil, 0, err
		}
	}
	r.stats = csj.IndexStats{}
	var before, after []store.CacheStats
	for _, st := range r.stores {
		before = append(before, st.CacheStats())
	}
	t0 := time.Now()
	for i := 0; i < topkReplay; i++ {
		t.request(int64(i))
		if err := r.query(comms, ids, owner, pivots[i%len(pivots)]); err != nil {
			return nil, nil, nil, 0, err
		}
	}
	wall := time.Since(t0)
	for _, st := range r.stores {
		after = append(after, st.CacheStats())
	}
	return r, before, after, wall, nil
}

func traceTopK(cfg config, tc *topkCluster, comms []*csj.Community, pivots []int, m *measured) (map[string]float64, error) {
	owner, err := shardOwners(tc)
	if err != nil {
		return nil, err
	}
	if len(owner) != len(comms) {
		return nil, fmt.Errorf("shards hold %d communities, corpus has %d", len(owner), len(comms))
	}
	fetch, shard, shardMax, overhead, err := clusterTimes(tc, owner, pivots)
	if err != nil {
		return nil, err
	}
	if err := tc.stop(); err != nil {
		return nil, err
	}
	_, _, _, offWall, err := replayTopK(newTracer(false), comms, tc.ids, owner, pivots)
	if err != nil {
		return nil, err
	}
	t := newTracer(true)
	r, before, after, onWall, err := replayTopK(t, comms, tc.ids, owner, pivots)
	if err != nil {
		return nil, err
	}
	var hits, misses, evictions int64
	for s := range before {
		hits += after[s].Hits - before[s].Hits
		misses += after[s].Misses - before[s].Misses
		evictions += after[s].Evictions - before[s].Evictions
	}
	ss := newSpanStats(t)
	timed := func(r int64) bool { return r >= 0 }
	ops := float64(topkReplay)
	bound, _ := ss.agg("index.bound", "", false, timed)
	reqTimes := ss.requestTimes(timed)
	vals := map[string]float64{
		"server.decode_us":           ss.mean("server.decode", "", false, time.Microsecond, timed),
		"server.encode_us":           ss.mean("server.encode", "", false, time.Microsecond, timed),
		"store.view_hit_ratio":       ratio(float64(hits), float64(hits+misses)),
		"store.evictions_per_op":     float64(evictions) / ops,
		"store.view_build_ms":        ss.mean("store.view", "miss", false, time.Millisecond, timed),
		"store.view_lookup_us":       ss.mean("store.view", "hit", false, time.Microsecond, timed),
		"store.create_ms":            ss.mean("store.create", "", true, time.Millisecond, nil),
		"index.summary_ms":           ss.mean("index.summary", "", false, time.Millisecond, nil),
		"core.prepare_ms":            ss.mean("core.prepare", "", false, time.Millisecond, timed),
		"core.joins_per_op":          float64(r.stats.Visited) / ops,
		"index.bound_us":             float64(bound.Microseconds()) / ops,
		"index.prune_ratio":          ratio(float64(r.stats.Pruned), float64(r.stats.Candidates)),
		"cluster.pivot_fetch_ms":     median(fetch),
		"cluster.shard_p50_ms":       median(shard),
		"cluster.shard_max_ms":       median(shardMax),
		"cluster.gather_overhead_ms": median(overhead),
		"trace.residual_ms":          m.win.reads.quantileMS(0.5) - median(reqTimes),
		"trace.overhead_ratio":       onWall.Seconds() / offWall.Seconds(),
		"error_ratio":                m.errorRatio(),
	}
	summary := map[string]any{"workload": "topk-sharded", "seed": cfg.Seed, "replayed_queries": topkReplay,
		"replay_wall_s_traced": onWall.Seconds(), "replay_wall_s_untraced": offWall.Seconds(),
		"e2e_read_p50_ms": m.win.reads.quantileMS(0.5), "median_request_span_sum_ms": median(reqTimes),
		"index_stats": r.stats, "layers": vals}
	if err := writeTrace(cfg.OutDir, "topk-sharded", cfg.Seed, t, summary); err != nil {
		return nil, err
	}
	return vals, nil
}
