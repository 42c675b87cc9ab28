//go:build !race

package workloads

import (
	"runtime"
	"testing"

	"deca/internal/engine"
)

// leastMallocs counts the heap allocations of job, the fewest of three
// runs: a collection or a runtime goroutine that allocates during one run
// does not count against the job.
func leastMallocs(t *testing.T, job func() error) uint64 {
	t.Helper()
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := job(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestDecaLRJobAllocatesPerPageNotPerPoint: a Deca LR job encodes each
// generated point into its cache block before the next one is drawn, so
// the point's vector is reused across the walk and doubling the points adds
// pages, not heap objects. A job that allocates per point (a fresh vector,
// a boxed record) makes about n more allocations at 2n than at n.
func TestDecaLRJobAllocatesPerPageNotPerPoint(t *testing.T) {
	const n = 20_000
	mallocs := func(points int) uint64 {
		cfg := baseCfg(t, engine.ModeDeca)
		cfg.PageSize = 0 // the default page: per-page bookkeeping stays out of the count
		params := LRParams{Points: points, Dim: 8, Iterations: 2}
		return leastMallocs(t, func() error {
			_, err := LogisticRegression(cfg, params)
			return err
		})
	}
	small, large := mallocs(n), mallocs(2*n)
	t.Logf("LR in Deca mode: %d allocations at %d points, %d at %d", small, n, large, 2*n)
	if large > small && large-small >= n/100 {
		t.Errorf("%d more points cost %d more allocations, budget %d: the job allocates per point", n, large-small, n/100)
	}
}

// TestDecaWCJobAllocatesPerKeyNotPerLine: a Deca WC job splits each
// generated line while it is the walk's one buffer, and every Put copies
// its word into container memory, so with a key space every run sees in
// full, doubling the lines adds no heap objects. Spark mode's object hash
// map keeps its keys, cut from a string per line, and its records are
// objects: the same doubling costs it at least one allocation a line, so
// the count does see per-line allocation where a mode makes it.
func TestDecaWCJobAllocatesPerKeyNotPerLine(t *testing.T) {
	const n = 20_000
	added := func(mode engine.Mode) int64 {
		mallocs := func(lines int) int64 {
			cfg := baseCfg(t, mode)
			cfg.PageSize = 0 // the default page: per-page bookkeeping stays out of the count
			params := WCParams{DistinctKeys: 500, WordsPerLine: 8, Lines: lines}
			return int64(leastMallocs(t, func() error {
				_, err := WordCount(cfg, params)
				return err
			}))
		}
		return mallocs(2*n) - mallocs(n)
	}
	deca, spark := added(engine.ModeDeca), added(engine.ModeSpark)
	t.Logf("WC: %d more lines cost Deca mode %d more allocations, Spark mode %d", n, deca, spark)
	if deca >= n/100 {
		t.Errorf("Deca mode: %d more lines cost %d more allocations, budget %d: the job allocates per line", n, deca, n/100)
	}
	if spark < n {
		t.Errorf("Spark mode: %d more lines cost %d more allocations, want at least %d", n, spark, n)
	}
}
