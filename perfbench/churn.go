package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/durable"
	"github.com/opencsj/csj/internal/faultfs"
	"github.com/opencsj/csj/internal/server"
	"github.com/opencsj/csj/internal/store"
)

// ingest-churn: one durable csjserve (-fsync always) holding a steady
// live set. One caller POSTs a new community and then DELETEs the
// oldest; the other asks /similarity of one of the newest communities
// and a random live one. The write path does most of the work: upload
// decode, summary build, WAL append and fsync, checkpoints. Reads pay
// view builds because deletes and creates invalidate, not because the
// cache is small (every live view fits the default cap).
const (
	churnLive        = 200
	churnSize        = 500
	churnEps         = 1
	churnNewest      = 16  // reads pair one of the newest churnNewest communities...
	churnStable      = 50  // ...with a live one outside the oldest churnStable (never deleted mid-read)
	churnCkptEvery   = 500 // WAL appends between checkpoints: several per timed window
	churnReplaySteps = 300 // create+delete pairs replayed in-process (one checkpoint)
	churnOracle      = 40
	churnWarmReads   = 3 // set-up reads per live community
)

// churnState is the live set as the generator knows it: every create
// and delete the server acknowledged.
type churnState struct {
	mu      sync.Mutex
	live    []int64       // oldest first
	index   map[int64]int // community id -> stream index
	next    int           // next stream index to create
	created int64
	deleted int64
}

func (s *churnState) sortedLive() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]int64(nil), s.live...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// churnServer is one running set-up of ingest-churn.
type churnServer struct {
	p   *proc
	dir string
	st  *churnState
}

func (cs *churnServer) procs() []*proc { return []*proc{cs.p} }
func (cs *churnServer) stop() error    { return cs.p.stop() }

func churnArgs(dir string) []string {
	return []string{"-store-dir", dir, "-fsync", "always", "-checkpoint-every", strconv.Itoa(churnCkptEvery)}
}

// readPair picks a read: one of the newest communities and a live one
// old enough to be safe from the writer but not among the newest.
func (s *churnState) readPair(rng *rand.Rand) (int64, int64, int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.live)
	b := s.live[n-1-rng.Intn(churnNewest)]
	a := s.live[churnStable+rng.Intn(n-churnStable-churnNewest)]
	return b, a, s.index[b], s.index[a]
}

func startChurn(cfg config, round int, bodies [][]byte) (*churnServer, time.Duration, latencies, error) {
	dir := filepath.Join(cfg.RunDir, fmt.Sprintf("store-%d", round))
	port, err := freePort()
	if err != nil {
		return nil, 0, nil, err
	}
	t0 := time.Now()
	p, err := startProc(cfg.RunDir, fmt.Sprintf("csjserve-%d", round), cfg.BinDir+"/csjserve", port, churnArgs(dir)...)
	if err != nil {
		return nil, 0, nil, err
	}
	cs := &churnServer{p: p, dir: dir, st: &churnState{index: map[int64]int{}}}
	writes, err := func() (latencies, error) {
		if err := waitReady(p, 30*time.Second); err != nil {
			return nil, err
		}
		ids, writes, err := upload(p.url, "/communities", bodies)
		if err != nil {
			return nil, err
		}
		for i, id := range ids {
			cs.st.index[id] = i
		}
		live := append([]int64(nil), ids...)
		sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
		cs.st.live = live
		cs.st.next = len(bodies)
		cs.st.created = int64(len(bodies))
		// Warm-up: every live community is read with each of its next
		// churnWarmReads neighbours in id order, so every live view is
		// built and reused.
		var next atomic.Int64
		n := int64(len(live))
		warm := make([]worker, callers)
		for w := range warm {
			warm[w] = func(c *conn) (op, error) {
				k := next.Add(1) - 1
				if k >= churnWarmReads*n {
					return op{}, errDone
				}
				b, a := live[k%n], live[(k%n+1+k/n)%n]
				status, body, err := c.do(http.MethodPost, p.url+"/similarity", churnReadBody(b, a))
				if err != nil || status != http.StatusOK {
					return op{}, fmt.Errorf("warm-up read: status %d, %v: %s", status, err, body)
				}
				return op{}, nil
			}
		}
		_, err = closedLoop(time.Hour, 0, warm)
		return writes, err
	}()
	if err != nil {
		_ = p.stop() // the set-up error is the one to report
		return nil, 0, nil, err
	}
	return cs, time.Since(t0), writes, nil
}

func churnReadBody(b, a int64) []byte {
	return fmt.Appendf(nil, `{"b":%d,"a":%d,"method":"exminmax","options":{"epsilon":%d},"orient":true}`, b, a, churnEps)
}

// churnWorkers returns the writer, which replaces the oldest live
// community with a new one per op, and the reader.
func churnWorkers(url string, src *churnSource, st *churnState, seed int64, answers *answerLog) []worker {
	writer := func(c *conn) (op, error) {
		st.mu.Lock()
		i := st.next
		st.next++
		oldest := st.live[0]
		st.mu.Unlock()
		body, err := uploadBody(src.community(i))
		if err != nil {
			return op{}, err
		}
		id, deleted, lat, err := replace(c, url, body, oldest)
		if err != nil {
			return op{}, err
		}
		st.mu.Lock()
		if id != 0 {
			st.live = append(st.live, id)
			st.index[id] = i
			st.created++
		}
		if deleted {
			// Readers never pick the oldest churnStable communities, so
			// none was reading this one while its DELETE ran.
			st.live = st.live[1:]
			st.deleted++
		}
		st.mu.Unlock()
		return op{write: true, lat: lat, failed: id == 0 || !deleted}, nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7ead))
	reader := func(c *conn) (op, error) {
		b, a, bi, ai := st.readPair(rng)
		t0 := time.Now()
		status, body, err := c.do(http.MethodPost, url+"/similarity", churnReadBody(b, a))
		o := op{lat: time.Since(t0)}
		if err != nil || status != http.StatusOK {
			o.failed = true
			return o, nil
		}
		var resp server.SimilarityResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return o, fmt.Errorf("decoding /similarity answer: %w", err)
		}
		answers.add(pairAnswer{b: bi, a: ai, resp: resp})
		return o, nil
	}
	return []worker{writer, reader}
}

// liveIDs lists the community ids a server holds, ascending.
func liveIDs(p *proc) ([]int64, error) {
	c := newConn()
	defer c.close()
	status, body, err := c.do(http.MethodGet, p.url+"/communities", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("listing communities: status %d, %v", status, err)
	}
	var list []server.CommunityInfo
	if err := json.Unmarshal(body, &list); err != nil {
		return nil, err
	}
	ids := make([]int64, len(list))
	for i, ci := range list {
		ids[i] = ci.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

func sameIDs(got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d live communities, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("live id %d is %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

func runIngestChurn(cfg config) (*result, error) {
	src := newChurnSource(cfg.Seed, churnSize)
	initial := make([]*csj.Community, churnLive)
	for i := range initial {
		initial[i] = src.community(i)
	}
	vb, err := viewBytes(initial, &csj.Options{Epsilon: churnEps})
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(initial))
	for i, c := range initial {
		if bodies[i], err = uploadBody(c); err != nil {
			return nil, err
		}
	}
	cs, su, err := setUp(cfg, func(r int) (*churnServer, time.Duration, latencies, error) {
		return startChurn(cfg, r, bodies)
	})
	if err != nil {
		return nil, err
	}
	defer cs.stop()
	answers := &answerLog{}
	m, err := measure(cfg, cs, cs.procs(), churnWorkers(cs.p.url, src, cs.st, cfg.Seed, answers))
	if err != nil {
		return nil, err
	}

	// Answers: sampled reads against the oracle, then the live set as
	// acknowledged, before and after a restart over the same store.
	comms := map[int]*csj.Community{}
	community := func(i int) *csj.Community {
		if c, ok := comms[i]; ok {
			return c
		}
		c := src.community(i)
		comms[i] = c
		return c
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0a11))
	opts := &csj.Options{Epsilon: churnEps, Matcher: csj.MatcherHopcroftKarp, ReferenceScan: true}
	if len(answers.all) == 0 {
		return nil, fmt.Errorf("no reads answered")
	}
	for k := 0; k < churnOracle; k++ {
		ans := answers.all[rng.Intn(len(answers.all))]
		if err := checkPair(community(ans.b), community(ans.a), &ans.resp, opts); err != nil {
			return nil, fmt.Errorf("wrong answer for stream communities (%d,%d): %w", ans.b, ans.a, err)
		}
	}
	want := cs.st.sortedLive()
	if int64(len(want)) != cs.st.created-cs.st.deleted {
		return nil, fmt.Errorf("generator bookkeeping: %d live, %d created, %d deleted", len(want), cs.st.created, cs.st.deleted)
	}
	got, err := liveIDs(cs.p)
	if err != nil {
		return nil, err
	}
	if err := sameIDs(got, want); err != nil {
		return nil, fmt.Errorf("wrong live set: %w", err)
	}
	if err := cs.p.stop(); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	re, err := startProc(cfg.RunDir, "csjserve-restart", cfg.BinDir+"/csjserve", port, churnArgs(cs.dir)...)
	if err != nil {
		return nil, err
	}
	if err := waitReady(re, 60*time.Second); err != nil {
		_ = re.stop()
		return nil, err
	}
	got, err = liveIDs(re)
	if serr := re.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if err := sameIDs(got, want); err != nil {
		return nil, fmt.Errorf("wrong live set after restart: %w", err)
	}

	ckpts := m.delta("csj_checkpoint_seconds_count")
	hits := m.delta("csj_prepared_cache_hits_total")
	misses := m.delta("csj_prepared_cache_misses_total")
	info(m, "ingest-churn", cfg.Seed, map[string]any{
		"live_communities": churnLive, "community_size": churnSize,
		"created_in_window": cs.st.created - churnLive, "deleted_in_window": cs.st.deleted,
		"checkpoints_in_window": ckpts, "checkpoint_every": churnCkptEvery, "view_hit_ratio": ratio(hits, hits+misses),
		"live_view_bytes": vb, "cache_cap_bytes": "default (256 MiB)", "oracle_checked": churnOracle,
		"setup_rounds": su.rounds, "setup_steal_ms": su.stealMS,
	})
	if ckpts < 3 {
		return nil, fmt.Errorf("self-check: %v checkpoints in the timed window, want at least 3", ckpts)
	}

	res := &result{Correct: true, Attempted: m.win.attempted, Failed: m.win.failed}
	if !cfg.Trace {
		res.Metrics = e2eMetrics(m.win, []latencies{m.win.writes}, m.rssMB, su.secs)
		return res, nil
	}
	readsPerWrite := math.Max(1, math.Round(float64(len(m.win.reads))/float64(len(m.win.writes))))
	vals, err := traceChurn(cfg, src, int(readsPerWrite), m)
	if err != nil {
		return nil, err
	}
	if res.Metrics, err = finishLayers(vals); err != nil {
		return nil, err
	}
	return res, nil
}

// churnReplay is what one in-process replay of ingest-churn measured.
type churnReplay struct {
	j         *joiner
	log       *tracedLog
	reads     map[int64]bool // request ids of reads
	creates   map[int64]bool // request ids of creates
	ops       int
	userBytes int64
	diskBytes int64
	before    store.CacheStats
	after     store.CacheStats
	wall      time.Duration
}

// replayChurn runs ingest-churn in-process over a fresh store
// directory: the same initial live set and warm-up, then
// churnReplaySteps steps of one replacement (create, then delete the
// oldest) followed by readsPerWrite reads, the window's read/write mix.
func replayChurn(t *tracer, dir string, src *churnSource, readsPerWrite int, seed int64) (*churnReplay, error) {
	var written atomic.Int64
	dl, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways, CheckpointEvery: churnCkptEvery,
		FS: countingFS{FS: faultfs.OS, n: &written}})
	if err != nil {
		return nil, err
	}
	tl := &tracedLog{log: dl, t: t}
	st := store.New(store.Config{Persistence: tl, Seed: dl.Seed()})
	r := &churnReplay{j: newJoiner(t, churnEps), log: tl, reads: map[int64]bool{}, creates: map[int64]bool{}}
	defer st.Close()
	state := &churnState{index: map[int64]int{}}
	create := func(req int64) error {
		t.request(req)
		i := state.next
		state.next++
		c := src.community(i)
		body, err := uploadBody(c)
		if err != nil {
			return err
		}
		e, err := r.j.create(st, body)
		if err != nil {
			return err
		}
		state.live = append(state.live, e.ID)
		state.index[e.ID] = i
		if req >= 0 {
			r.creates[req] = true
			r.userBytes += int64(c.Size() * c.Dim() * 4)
		}
		return nil
	}
	read := func(req int64, b, a int64) error {
		t.request(req)
		if req >= 0 {
			r.reads[req] = true
		}
		_, err := r.j.similarity(st, churnReadBody(b, a))
		return err
	}
	for k := 0; k < churnLive; k++ {
		if err := create(-1 - int64(k)); err != nil {
			return nil, err
		}
	}
	for k := 0; k < churnWarmReads*churnLive; k++ {
		b, a := state.live[k%churnLive], state.live[(k%churnLive+1+k/churnLive)%churnLive]
		if err := read(-1_000_000-int64(k), b, a); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7ead))
	req := int64(0)
	reads := func() error {
		for k := 0; k < readsPerWrite; k++ {
			b, a, _, _ := state.readPair(rng)
			if err := read(req, b, a); err != nil {
				return err
			}
			req++
		}
		return nil
	}
	r.j.joins, r.j.edges = 0, 0
	r.before = st.CacheStats()
	disk0 := written.Load()
	t0 := time.Now()
	for step := 0; step < churnReplaySteps; step++ {
		if err := create(req); err != nil {
			return nil, err
		}
		req++
		oldest := state.live[0]
		state.live = state.live[1:]
		t.request(req)
		if err := r.j.remove(st, oldest); err != nil {
			return nil, err
		}
		req++
		if err := reads(); err != nil {
			return nil, err
		}
	}
	r.wall = time.Since(t0)
	r.after = st.CacheStats()
	if err := st.Close(); err != nil {
		return nil, err
	}
	r.diskBytes = written.Load() - disk0
	r.ops = int(req)
	return r, nil
}

func traceChurn(cfg config, src *churnSource, readsPerWrite int, m *measured) (map[string]float64, error) {
	off, err := replayChurn(newTracer(false), filepath.Join(cfg.RunDir, "replay-untraced"), src, readsPerWrite, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := newTracer(true)
	r, err := replayChurn(t, filepath.Join(cfg.RunDir, "replay-traced"), src, readsPerWrite, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ss := newSpanStats(t)
	timed := func(q int64) bool { return q >= 0 }
	isRead := func(q int64) bool { return r.reads[q] }
	isCreate := func(q int64) bool { return r.creates[q] }
	ops := float64(r.ops)
	match, _ := ss.agg("matching.match", "", false, timed)
	hits, misses := r.after.Hits-r.before.Hits, r.after.Misses-r.before.Misses
	vals := map[string]float64{
		"server.decode_us":        ss.mean("server.decode", "", false, time.Microsecond, isCreate),
		"server.encode_us":        ss.mean("server.encode", "", false, time.Microsecond, timed),
		"store.view_hit_ratio":    ratio(float64(hits), float64(hits+misses)),
		"store.evictions_per_op":  float64(r.after.Evictions-r.before.Evictions) / ops,
		"store.view_build_ms":     ss.mean("store.view", "miss", false, time.Millisecond, timed),
		"store.view_lookup_us":    ss.mean("store.view", "hit", false, time.Microsecond, timed),
		"store.create_ms":         ss.mean("store.create", "", true, time.Millisecond, timed),
		"store.delete_ms":         ss.mean("store.delete", "", true, time.Millisecond, timed),
		"index.summary_ms":        ss.mean("index.summary", "", false, time.Millisecond, timed),
		"core.prepare_ms":         ss.mean("core.prepare", "", false, time.Millisecond, timed),
		"core.scan_ms":            ss.mean("core.join", "", true, time.Millisecond, timed),
		"core.joins_per_op":       float64(len(r.reads)) / ops,
		"matching.match_ms":       ratio(float64(match)/1e6, float64(len(r.reads))),
		"matching.edges_per_join": ratio(float64(r.j.edges), float64(r.j.joins)),
		"durable.append_us":       ss.mean("durable.append", "", false, time.Microsecond, timed),
		"durable.checkpoint_ms":   ss.mean("durable.checkpoint", "", false, time.Millisecond, nil),
		"durable.write_amp":       ratio(float64(r.diskBytes), float64(r.userBytes)),
		"trace.residual_ms":       m.win.reads.quantileMS(0.5) - median(ss.requestTimes(isRead)),
		"trace.overhead_ratio":    r.wall.Seconds() / off.wall.Seconds(),
		"error_ratio":             m.errorRatio(),
	}
	summary := map[string]any{"workload": "ingest-churn", "seed": cfg.Seed, "replayed_ops": r.ops,
		"reads_per_write": readsPerWrite, "checkpoints": r.log.ckpts.Load(),
		"replay_wall_s_traced": r.wall.Seconds(), "replay_wall_s_untraced": off.wall.Seconds(),
		"e2e_read_p50_ms": m.win.reads.quantileMS(0.5), "median_read_span_sum_ms": median(ss.requestTimes(isRead)),
		"layers": vals}
	if err := writeTrace(cfg.OutDir, "ingest-churn", cfg.Seed, t, summary); err != nil {
		return nil, err
	}
	return vals, nil
}
