package csj_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	csj "github.com/opencsj/csj"
)

// batchComms synthesizes n communities with mutual overlap and sizes
// within the CSJ precondition of one another.
func batchComms(rng *rand.Rand, n int) []*csj.Community {
	base := randComm(rng, "base", 60, 4, 7)
	comms := make([]*csj.Community, n)
	for i := range comms {
		size := 55 + rng.Intn(12)
		c := overlapped(rng, fmt.Sprintf("comm-%02d", i), size, base, 0.4)
		comms[i] = c
	}
	return comms
}

func stripElapsed(r *csj.Result) {
	if r != nil {
		r.Elapsed = 0
	}
}

// workerSweep is the worker counts the equivalence tests compare
// against the serial run.
func workerSweep() []int {
	return []int{2, 7, runtime.GOMAXPROCS(0)}
}

// TestSimilarityMatrixWorkerEquivalence checks the parallel matrix is
// byte-identical (excluding Elapsed) to the serial one: with
// MatcherHopcroftKarp and with the paper's CSF matcher alike, since
// every cell is an independent serial join.
func TestSimilarityMatrixWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	comms := batchComms(rng, 6)
	for _, matcher := range []csj.MatcherKind{csj.MatcherHopcroftKarp, csj.MatcherCSF} {
		run := func(workers int) []csj.MatrixEntry {
			out, err := csj.SimilarityMatrix(comms, csj.ExMinMax,
				&csj.Options{Epsilon: 1, Matcher: matcher, Workers: workers})
			if err != nil {
				t.Fatalf("matcher=%v workers=%d: %v", matcher, workers, err)
			}
			for i := range out {
				stripElapsed(out[i].Result)
			}
			return out
		}
		serial := run(1)
		if len(serial) != 15 { // C(6,2)
			t.Fatalf("matcher=%v: got %d entries, want 15", matcher, len(serial))
		}
		for _, w := range workerSweep() {
			if got := run(w); !reflect.DeepEqual(got, serial) {
				t.Errorf("matcher=%v: workers=%d matrix differs from serial", matcher, w)
			}
		}
	}
}

// TestTopKWorkerEquivalence checks the two-phase TopK answer is
// identical for every worker count.
func TestTopKWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	comms := batchComms(rng, 9)
	pivot, cands := comms[0], comms[1:]
	for _, matcher := range []csj.MatcherKind{csj.MatcherHopcroftKarp, csj.MatcherCSF} {
		run := func(workers int) []csj.TopKResult {
			out, err := csj.TopK(pivot, cands, 3,
				&csj.Options{Epsilon: 1, Matcher: matcher, Workers: workers})
			if err != nil {
				t.Fatalf("matcher=%v workers=%d: %v", matcher, workers, err)
			}
			for i := range out {
				stripElapsed(out[i].Result)
			}
			return out
		}
		serial := run(1)
		for _, w := range workerSweep() {
			if got := run(w); !reflect.DeepEqual(got, serial) {
				t.Errorf("matcher=%v: workers=%d TopK differs from serial", matcher, w)
			}
		}
	}
}

// TestRankWorkerEquivalence checks the candidate fan-out of Rank does
// not perturb the ranking.
func TestRankWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	comms := batchComms(rng, 8)
	pivot, cands := comms[0], comms[1:]
	run := func(workers int) []csj.Ranked {
		out, err := csj.Rank(pivot, cands, csj.ExMinMax,
			&csj.Options{Epsilon: 1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range out {
			stripElapsed(out[i].Result)
		}
		return out
	}
	serial := run(1)
	for _, w := range workerSweep() {
		if got := run(w); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d ranking differs from serial", w)
		}
	}
}

// TestParallelScanDeterministicCSF checks the scan-parallel exact join
// (Options.Workers on Similarity) yields the same pairs on repeated
// runs now that shard edges are merged in canonical order: CSF's
// tie-breaking sees one fixed graph regardless of goroutine timing.
func TestParallelScanDeterministicCSF(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	b := randComm(rng, "B", 90, 4, 6)
	a := randComm(rng, "A", 110, 4, 6)
	opts := &csj.Options{Epsilon: 1, Matcher: csj.MatcherCSF, Workers: 3}
	first, err := csj.Similarity(b, a, csj.ExMinMax, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Pairs) == 0 {
		t.Fatal("want a non-trivial match set")
	}
	for rep := 0; rep < 5; rep++ {
		got, err := csj.Similarity(b, a, csj.ExMinMax, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Pairs, first.Pairs) {
			t.Fatalf("rep %d: parallel CSF pairs differ between runs", rep)
		}
	}
}

func benchComms(n, size int) []*csj.Community {
	rng := rand.New(rand.NewSource(61))
	base := randComm(rng, "base", size, 4, 9)
	comms := make([]*csj.Community, n)
	for i := range comms {
		sz := size - size/20 + rng.Intn(size/10+1)
		comms[i] = overlapped(rng, fmt.Sprintf("bench-%02d", i), sz, base, 0.3)
	}
	return comms
}

func BenchmarkSimilarityMatrix(b *testing.B) {
	comms := benchComms(8, 300)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := &csj.Options{Epsilon: 1, Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := csj.SimilarityMatrix(comms, csj.ExMinMax, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTopK(b *testing.B) {
	comms := benchComms(9, 300)
	pivot, cands := comms[0], comms[1:]
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := &csj.Options{Epsilon: 1, Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := csj.TopK(pivot, cands, 3, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopKIndexedShard is the indexed top-k of one busy shard: an
// all-candidates query over ~3000 small clustered 6-d communities
// (64 archetypes, epsilon 1500, k = 10) with every prepared view
// resident, so bound checks, the best-first visit and a few dozen small
// joins make up the query. Each op queries the next of 64 pivots, one
// per archetype.
func BenchmarkTopKIndexedShard(b *testing.B) {
	const n, dims, archetypes, pivots, k = 3000, 6, 64, 64, 10
	rng := rand.New(rand.NewSource(14))
	bases := make([][]int32, archetypes)
	for a := range bases {
		bases[a] = make([]int32, dims)
		for j := range bases[a] {
			bases[a][j] = 5000 + rng.Int31n(495000)
		}
	}
	opts := &csj.Options{Epsilon: 1500, Workers: 1}
	prep := func(name string, base []int32) *csj.PreparedCommunity {
		users := make([]csj.Vector, 8+rng.Intn(5))
		for u := range users {
			users[u] = make(csj.Vector, dims)
			for j := range users[u] {
				users[u][j] = base[j] + rng.Int31n(200)
			}
		}
		pc, err := csj.Precompute(&csj.Community{Name: name, Users: users}, opts)
		if err != nil {
			b.Fatal(err)
		}
		return pc
	}
	cands := make([]csj.IndexedCandidate, n)
	for i := range cands {
		pc := prep(fmt.Sprintf("c%04d", i), bases[i%archetypes])
		sum, err := pc.Summarize(0)
		if err != nil {
			b.Fatal(err)
		}
		cands[i] = csj.IndexedCandidate{Name: pc.Name(), Summary: sum,
			View: func() (*csj.PreparedCommunity, error) { return pc, nil }}
	}
	pvs := make([]*csj.PreparedCommunity, pivots)
	for i := range pvs {
		pvs[i] = prep(fmt.Sprintf("pivot%02d", i), bases[i%archetypes])
	}
	var stats csj.IndexStats
	iopts := *opts
	iopts.OnIndexStats = func(s csj.IndexStats) {
		stats.Visited += s.Visited
		stats.Pruned += s.Pruned
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csj.TopKIndexed(pvs[i%pivots], cands, k, &iopts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.Visited)/float64(b.N), "visited/op")
	b.ReportMetric(float64(stats.Pruned)/float64(b.N), "pruned/op")
}
