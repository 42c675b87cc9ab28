//go:build !race

package workloads

import (
	"runtime"
	"testing"

	"deca/internal/engine"
)

// leastMallocs counts the heap allocations and bytes of job, each the
// fewest of three runs: a collection or a runtime goroutine that allocates
// during one run does not count against the job.
func leastMallocs(t *testing.T, job func() error) (mallocs, bytes uint64) {
	t.Helper()
	mallocs, bytes = ^uint64(0), ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := job(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return mallocs, bytes
}

// The heap law: a Deca job's Go heap is O(plan), not O(input). Each job
// runs in Deca mode in-process and on two executors over TCP, at an input s
// and at 4s; the larger run may cost at most the job's stated number of
// allocations and 64 KiB more than the smaller one — records live in pages,
// and what is left on the heap is per stage, per partition and per page. A
// job that allocates per record (a boxed value, a fresh vector, a string per
// line or per key) adds about one allocation per added record. The Spark
// rows are the positive control: there every record is an object, so the
// count sees the input grow by at least one allocation per added record
// (in-process only; the deployment does not change that).
type heapLawJob struct {
	name    string
	run     func(cfg Config, s int) error
	records int // what s adds to the input: lines, points or edges
	allocs  uint64
}

var (
	wcHeapLaw = heapLawJob{"WC", func(cfg Config, s int) error {
		_, err := WordCount(cfg, WCParams{DistinctKeys: 500, WordsPerLine: 8, Lines: 20_000 * s})
		return err
	}, 20_000, 64}
	lrHeapLaw = heapLawJob{"LR", func(cfg Config, s int) error {
		_, err := LogisticRegression(cfg, LRParams{Points: 50_000 * s, Dim: 8, Iterations: 2})
		return err
	}, 50_000, 32}
	kmeansHeapLaw = heapLawJob{"KMeans", func(cfg Config, s int) error {
		_, err := KMeans(cfg, KMeansParams{Points: 50_000 * s, Dim: 8, K: 4, Iterations: 2})
		return err
	}, 50_000, 32}
	prHeapLaw = heapLawJob{"PR", func(cfg Config, s int) error {
		_, err := PageRank(cfg, GraphParams{Vertices: 5_000 * int64(s), Edges: 25_000 * s, Skew: 0.6, Iterations: 3})
		return err
	}, 25_000, 64}
	ccHeapLaw = heapLawJob{"CC", func(cfg Config, s int) error {
		_, err := ConnectedComponents(cfg, GraphParams{Vertices: 5_000 * int64(s), Edges: 25_000 * s, Skew: 0.6, Iterations: 3})
		return err
	}, 25_000, 64}
)

// checkHeapLaw runs j's rows of the heap law.
func checkHeapLaw(t *testing.T, j heapLawJob) {
	t.Helper()
	const bytesBudget = 64 << 10
	rows := []struct {
		name string
		mode engine.Mode
		tcp  bool
	}{
		{"Deca, in-process", engine.ModeDeca, false},
		{"Deca, 2 executors over TCP", engine.ModeDeca, true},
		{"Spark, in-process", engine.ModeSpark, false},
	}
	for _, r := range rows {
		var mallocs, bytes [2]uint64
		for i, s := range []int{1, 4} {
			mallocs[i], bytes[i] = leastMallocs(t, func() error {
				cfg := baseCfg(t, r.mode)
				cfg.PageSize = 0 // the default page: per-page bookkeeping stays out of the count
				if r.tcp {
					cfg.NumExecutors, cfg.TransportKind = 2, engine.TransportTCP
				}
				return j.run(cfg, s)
			})
		}
		added, grew := 3*j.records, int64(mallocs[1]-mallocs[0])
		t.Logf("%s, %s: %d → %d allocations, %d → %d bytes at %d more records", j.name, r.name, mallocs[0], mallocs[1], bytes[0], bytes[1], added)
		switch {
		case r.mode == engine.ModeSpark && grew < int64(added):
			t.Errorf("%s, %s: %d more records cost %d more allocations, want at least %d: the control does not see per-record objects",
				j.name, r.name, added, grew, added)
		case r.mode == engine.ModeDeca && (grew > int64(j.allocs) || int64(bytes[1]-bytes[0]) > bytesBudget):
			t.Errorf("%s, %s: %d more records cost %d more allocations and %d more bytes, budget %d and %d: the job's heap grows with its input",
				j.name, r.name, added, grew, int64(bytes[1]-bytes[0]), j.allocs, bytesBudget)
		}
	}
}

// TestDecaWCJobAllocatesPerKeyNotPerLine: WordCount's rows of the heap law.
// A Deca job borrows each generated line for one emit, so 60,000 more lines
// cost a few allocations; a string per line costs ≈ 60,000.
func TestDecaWCJobAllocatesPerKeyNotPerLine(t *testing.T) { checkHeapLaw(t, wcHeapLaw) }

// TestDecaLRJobAllocatesPerPageNotPerPoint: logistic regression's rows of
// the heap law. A Deca job encodes each generated point into its cache pages
// before the next is drawn, so 150,000 more points cost a few allocations.
func TestDecaLRJobAllocatesPerPageNotPerPoint(t *testing.T) { checkHeapLaw(t, lrHeapLaw) }

// TestHeapLaw: the heap law's rows for the other three jobs.
func TestHeapLaw(t *testing.T) {
	for _, j := range []heapLawJob{kmeansHeapLaw, prHeapLaw, ccHeapLaw} {
		checkHeapLaw(t, j)
	}
}
