//go:build !race

package workloads

import (
	"runtime"
	"testing"

	"deca/internal/engine"
)

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
		// The fewest of three runs: a collection or a runtime goroutine
		// that allocates during one run does not count against the job.
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := LogisticRegression(cfg, params); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	small, large := mallocs(n), mallocs(2*n)
	t.Logf("LR in Deca mode: %d allocations at %d points, %d at %d", small, n, large, 2*n)
	if large > small && large-small >= n/100 {
		t.Errorf("%d more points cost %d more allocations, budget %d: the job allocates per point", n, large-small, n/100)
	}
}
