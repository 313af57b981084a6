// Command perfbench is the repository's benchmark. It drives real
// csjserve and csjcoord processes over HTTP for the end-to-end numbers
// and replays the same seeded requests in-process, one span per layer
// call, for the per-layer numbers. README.md in this directory explains
// the workloads and metrics; run.sh builds the binaries and calls it:
//
//	bash perfbench/run.sh --workload pairs-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer or a broken
// workload self-check fails the run with a non-zero exit code instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload gets from the command line.
type config struct {
	Seed   int64
	Window time.Duration
	Trace  bool
	BinDir string
	OutDir string
	RunDir string // per-run scratch: server logs, store directories
}

// callers is the number of closed-loop generator connections, one per
// CPU of the two-CPU machines the benchmark was sized on.
const callers = 2

// workload runs one traffic mix end to end (trace off) or as a traced
// replay (trace on) and returns its result.
type workload func(cfg config) (*result, error)

var workloads = map[string]workload{
	"pairs-cold":   runPairsCold,
	"topk-sharded": runTopKSharded,
	"ingest-churn": runIngestChurn,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: pairs-cold, topk-sharded or ingest-churn")
		seed    = flag.Int64("seed", 1, "seed of the generated corpus and request sequence")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		binDir  = flag.String("bin", ".bench_build/bin", "directory holding the csjserve and csjcoord binaries")
		outDir  = flag.String("out", ".bench_build/out", "directory for logs, store directories and trace files")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fail(fmt.Errorf("unknown -workload %q (want one of %v)", *name, names))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("-seconds must be >= 1, got %d", *seconds))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	for _, b := range []string{"csjserve", "csjcoord"} {
		if _, err := os.Stat(filepath.Join(*binDir, b)); err != nil {
			fail(fmt.Errorf("missing binary: %w", err))
		}
	}
	runDir := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))
	if err := os.RemoveAll(runDir); err != nil {
		fail(err)
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fail(err)
	}
	// An interrupted run stops its servers before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		live.killAll()
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", sig)
		os.Exit(1)
	}()
	cfg := config{
		Seed:   *seed,
		Window: time.Duration(*seconds) * time.Second,
		Trace:  *trace == 1,
		BinDir: *binDir,
		OutDir: *outDir,
		RunDir: runDir,
	}
	res, err := run(cfg)
	if err != nil {
		fail(fmt.Errorf("%s: %w", *name, err))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	// Logs and store directories are kept only when a run fails.
	if err := os.RemoveAll(runDir); err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// info prints one JSON line describing the run (seed, sizes, settings,
// self-check values) ahead of the result line.
func info(m *measured, workload string, seed int64, fields map[string]any) {
	fields["workload"], fields["seed"] = workload, seed
	fields["attempted"], fields["failed"], fields["error_ratio"] = m.win.attempted, m.win.failed, m.errorRatio()
	fields["host_iowait_ms"], fields["host_steal_ms"], fields["windows"] = m.iowaitMS, m.stealMS, m.windows
	fields["gomaxprocs"] = runtime.GOMAXPROCS(0)
	fields["nproc"] = runtime.NumCPU()
	line, err := json.Marshal(map[string]any{"info": fields})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	live.killAll()
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	os.Exit(1)
}
