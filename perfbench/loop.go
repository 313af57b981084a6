package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/opencsj/csj/internal/server"
)

// op is one request issued by a generator connection: its kind, its
// latency, and whether it failed (transport error, non-success status,
// or shed with 429/503).
type op struct {
	write  bool
	lat    time.Duration
	failed bool
}

// worker issues the next request of one closed-loop caller on its own
// connection. A returned error is fatal to the run (a broken invariant
// of the generator itself, not a failed request).
type worker func(c *conn) (op, error)

// loopStats is what a closed-loop phase measured.
type loopStats struct {
	reads, writes     latencies
	ends              []time.Duration // completion offsets of the ops that succeeded
	attempted, failed int64
	// sliceRPS and sliceCPU are the per-second throughput and server
	// CPU per op of the timed window's whole one-second slices.
	sliceRPS, sliceCPU []float64
}

// closedLoop runs one goroutine per worker, each sending its next
// request only after the previous reply: callers that wait for each
// answer. It runs until the deadline passes (or, when maxOps > 0,
// until that many ops were started) and waits for every in-flight
// request to finish.
func closedLoop(d time.Duration, maxOps int64, workers []worker) (*loopStats, error) {
	return closedLoopFrom(time.Now(), d, maxOps, workers)
}

func closedLoopFrom(start time.Time, d time.Duration, maxOps int64, workers []worker) (*loopStats, error) {
	var (
		mu      sync.Mutex
		st      loopStats
		started atomic.Int64
		firstE  error
		wg      sync.WaitGroup
	)
	deadline := start.Add(d)
	for _, w := range workers {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			c := newConn()
			defer c.close()
			var reads, writes latencies
			var ends []time.Duration
			var attempted, failed int64
			for time.Now().Before(deadline) {
				if maxOps > 0 && started.Add(1) > maxOps {
					break
				}
				o, err := w(c)
				if err == errDone {
					break
				}
				if err != nil {
					mu.Lock()
					if firstE == nil {
						firstE = err
					}
					mu.Unlock()
					break
				}
				attempted++
				if o.failed {
					failed++
					continue
				}
				if o.write {
					writes = append(writes, o.lat)
				} else {
					reads = append(reads, o.lat)
				}
				ends = append(ends, time.Since(start))
			}
			mu.Lock()
			st.reads = append(st.reads, reads...)
			st.writes = append(st.writes, writes...)
			st.ends = append(st.ends, ends...)
			st.attempted += attempted
			st.failed += failed
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if firstE != nil {
		return nil, firstE
	}
	return &st, nil
}

// timedWindow runs the timed window of a workload: the closed loop
// for d, while the servers' CPU time is read at every whole second of
// it. Throughput and CPU per op are then taken per one-second slice,
// so that a burst of outside load on the machine moves one slice, not
// the reported median.
func timedWindow(d time.Duration, workers []worker, servers []*proc) (*loopStats, error) {
	slices := int(d / time.Second)
	at := make([]time.Duration, 0, slices+1) // when each CPU reading was taken
	cpu := make([]float64, 0, slices+1)
	var cpuErr error
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k <= slices; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * time.Second)))
			ms, err := serverCPU(servers)
			if err != nil {
				cpuErr = err
				return
			}
			at = append(at, time.Since(start))
			cpu = append(cpu, ms)
		}
	}()
	st, err := closedLoopFrom(start, d, 0, workers)
	<-done
	if err != nil {
		return nil, err
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	// A slice runs from one CPU reading to the next; its ops are those
	// that completed in between.
	ops := make([]float64, slices)
	for _, e := range st.ends {
		k := sort.Search(len(at), func(i int) bool { return at[i] > e }) - 1
		if k >= 0 && k < slices {
			ops[k]++
		}
	}
	// A second in which the host froze every process completes no op:
	// it counts as zero throughput and has no CPU per op.
	for k := 0; k < slices; k++ {
		st.sliceRPS = append(st.sliceRPS, ops[k]/(at[k+1]-at[k]).Seconds())
		if ops[k] > 0 {
			st.sliceCPU = append(st.sliceCPU, (cpu[k+1]-cpu[k])/ops[k])
		}
	}
	if len(st.sliceCPU) == 0 {
		return nil, fmt.Errorf("no op completed in the %v window", d)
	}
	return st, nil
}

// upload POSTs every body to url+path, one after another on one
// connection, and returns the assigned ids (in body order) and the
// per-request latencies. On the read-only workloads these are the
// reported write latencies; one upload at a time keeps them the
// service time of an upload rather than of two competing for the CPUs.
func upload(url, path string, bodies [][]byte) ([]int64, latencies, error) {
	c := newConn()
	defer c.close()
	ids := make([]int64, len(bodies))
	lat := make(latencies, len(bodies))
	for i, b := range bodies {
		t0 := time.Now()
		status, body, err := c.do(http.MethodPost, url+path, b)
		lat[i] = time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("uploading community %d: %w", i, err)
		}
		if status != http.StatusCreated {
			return nil, nil, fmt.Errorf("uploading community %d: status %d: %s", i, status, body)
		}
		var info server.CommunityInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return nil, nil, fmt.Errorf("uploading community %d: %w", i, err)
		}
		ids[i] = info.ID
	}
	return ids, lat, nil
}

// replace is one write: POST a community, then DELETE the one it
// replaces. Its latency runs from sending the POST to the DELETE's
// reply, so the write percentiles come from one latency mode rather
// than from a mix of slow uploads and fast deletes. id is 0 when the
// POST failed; deleted reports whether the DELETE succeeded.
func replace(c *conn, url string, body []byte, old int64) (id int64, deleted bool, lat time.Duration, err error) {
	t0 := time.Now()
	status, resp, err := c.do(http.MethodPost, url+"/communities", body)
	if err != nil || status != http.StatusCreated {
		return 0, false, time.Since(t0), nil
	}
	var info server.CommunityInfo
	if err := json.Unmarshal(resp, &info); err != nil {
		return 0, false, 0, fmt.Errorf("decoding create answer: %w", err)
	}
	status, _, err = c.do(http.MethodDelete, fmt.Sprintf("%s/communities/%d", url, old), nil)
	return info.ID, err == nil && status == http.StatusNoContent, time.Since(t0), nil
}

// timedWrites times the writes of a read-only workload after its
// window: rounds passes, each replacing every community (ids, updated
// in place) with an identical copy, one at a time on one connection.
// The server's heap already holds the corpus, so the write path, not a
// fresh process growing its heap, is timed. It returns one latency set
// per pass; the reported quantiles are the median over the passes, so
// a burst of outside load during one pass does not move them.
func timedWrites(url string, bodies [][]byte, ids []int64, rounds int) ([]latencies, error) {
	c := newConn()
	defer c.close()
	out := make([]latencies, rounds)
	for r := range out {
		lat := make(latencies, len(bodies))
		for i, b := range bodies {
			id, deleted, d, err := replace(c, url, b, ids[i])
			if err != nil {
				return nil, err
			}
			if id == 0 || !deleted {
				return nil, fmt.Errorf("replacing community %d failed", i)
			}
			ids[i], lat[i] = id, d
		}
		out[r] = lat
	}
	return out, nil
}

// errDone, returned by a worker, ends that worker's loop: its part of
// a bounded phase is complete.
var errDone = errors.New("phase done")

// runCount runs a closed loop until n ops were started (a warm-up).
func runCount(n int64, workers []worker) (*loopStats, error) {
	return closedLoop(time.Hour, n, workers)
}

// e2eMetrics assembles the end-to-end metrics of one run. writes holds
// one or more sets of write latencies (one per set-up round or write
// pass on the read-only workloads); quantiles are taken per set and the
// median over the sets is reported.
func e2eMetrics(win *loopStats, writes []latencies, rssMB float64, setups []float64) map[string]metric {
	var p50 []float64
	for _, w := range writes {
		p50 = append(p50, w.quantileMS(0.5))
	}
	return map[string]metric{
		"throughput_rps":       {median(win.sliceRPS), "1/s"},
		"read_p50_ms":          {win.reads.quantileMS(0.5), "ms"},
		"read_p90_ms":          {win.reads.quantileMS(0.9), "ms"},
		"write_p50_ms":         {median(p50), "ms"},
		"server_cpu_ms_per_op": {median(win.sliceCPU), "ms"},
		"peak_rss_mb":          {rssMB, "MB"},
		"setup_s":              {median(setups), "s"},
	}
}

// deployment is the running servers of one set-up round.
type deployment interface {
	procs() []*proc
	stop() error
}

// setupStats is what the set-up rounds of a run report: the set-up
// time and upload latencies of the rounds kept, and, for the info line,
// how many rounds ran and the CPU time stolen over all of them.
type setupStats struct {
	secs    []float64
	writes  []latencies
	rounds  int
	stealMS float64
}

// setUp runs a workload's set-up setupRounds times (once for a traced
// run), stopping every deployment but the last, and returns the last
// one. A round that lost more than maxStealShare of its CPU time to the
// hypervisor earns one more round, up to maxExtraRounds; the
// setupRounds rounds with the least stolen share are kept, as measure
// keeps the window with less steal. start must stop whatever it started
// when it fails.
func setUp[D deployment](cfg config, start func(round int) (D, time.Duration, latencies, error)) (D, *setupStats, error) {
	want := setupRounds
	if cfg.Trace {
		want = 1
	}
	type round struct {
		secs  float64
		w     latencies
		share float64
	}
	var (
		dep    D
		rounds []round
		clean  int
		steal  float64
	)
	for r := 0; ; r++ {
		_, steal0, err := hostStall()
		if err != nil {
			return dep, nil, err
		}
		d, setup, w, err := start(r)
		if err != nil {
			return dep, nil, err
		}
		dep = d
		_, steal1, err := hostStall()
		if err != nil {
			_ = d.stop() // the /proc error is the one to report
			return dep, nil, err
		}
		steal += steal1 - steal0
		share := (steal1 - steal0) / (float64(setup.Milliseconds()+1) * float64(runtime.NumCPU()))
		if share <= maxStealShare {
			clean++
		}
		rounds = append(rounds, round{setup.Seconds(), w, share})
		if len(rounds) >= want && (clean >= want || len(rounds) >= want+maxExtraRounds) {
			break
		}
		if err := d.stop(); err != nil {
			return dep, nil, err
		}
	}
	sort.SliceStable(rounds, func(i, j int) bool { return rounds[i].share < rounds[j].share })
	st := &setupStats{rounds: len(rounds), stealMS: steal}
	for _, r := range rounds[:want] {
		st.secs = append(st.secs, r.secs)
		st.writes = append(st.writes, r.w)
	}
	return dep, st, nil
}

// maxExtraRounds bounds the set-up rounds added for stolen CPU time.
const maxExtraRounds = 2

// measured is what the timed window saw, plus the /metrics counters of
// the scraped servers before and after it.
type measured struct {
	win           *loopStats
	rssMB         float64
	before, after map[string]float64
	// iowaitMS and stealMS are the machine's I/O wait and stolen CPU
	// time over the reported window, for the info line.
	iowaitMS, stealMS float64
	windows           int // timed windows run (see measure)
}

// delta is how much a /metrics counter moved over the window.
func (m *measured) delta(name string) float64 { return m.after[name] - m.before[name] }

func (m *measured) errorRatio() float64 {
	return ratio(float64(m.win.failed), float64(m.win.attempted))
}

// maxStealShare is the share of a window's CPU time the hypervisor may
// steal before the window is measured once more. On a shared host,
// stolen time comes in bursts that slow every figure of a run; a second
// window usually misses the burst, and the one with less stolen time is
// reported.
const maxStealShare = 0.025

// measure runs the timed window against dep with the given callers:
// once, or twice when the first window lost more than maxStealShare of
// its CPU time to the hypervisor. The ops of every window count as
// attempted and failed, so a failure in a discarded window still shows.
func measure(cfg config, dep deployment, scraped []*proc, workers []worker) (*measured, error) {
	c := newConn()
	defer c.close()
	before, err := scrapeAll(c, scraped)
	if err != nil {
		return nil, err
	}
	m := &measured{before: before}
	var attempted, failed int64
	allowed := maxStealShare * float64(cfg.Window.Milliseconds()) * float64(runtime.NumCPU())
	for try := 0; try < 2; try++ {
		io0, steal0, err := hostStall()
		if err != nil {
			return nil, err
		}
		win, err := timedWindow(cfg.Window, workers, dep.procs())
		if err != nil {
			return nil, err
		}
		io1, steal1, err := hostStall()
		if err != nil {
			return nil, err
		}
		attempted += win.attempted
		failed += win.failed
		m.windows++
		if m.win == nil || steal1-steal0 < m.stealMS {
			m.win, m.iowaitMS, m.stealMS = win, io1-io0, steal1-steal0
		}
		if steal1-steal0 <= allowed {
			break
		}
	}
	m.win.attempted, m.win.failed = attempted, failed
	if m.rssMB, err = serverPeakRSS(dep.procs()); err != nil {
		return nil, err
	}
	if m.after, err = scrapeAll(c, scraped); err != nil {
		return nil, err
	}
	return m, nil
}
