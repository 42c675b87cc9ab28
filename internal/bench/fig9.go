package bench

import (
	"fmt"

	"deca/internal/obs"
	"deca/internal/workloads"
)

// lrBudget returns the memory budget that makes the largest Fig 9(b)
// datasets spill, mirroring the paper's fixed 30GB executors against
// growing inputs: the budget comfortably holds the three smaller datasets
// and forces cache swapping for the two largest.
func lrBudget(o Options, dim int) int64 {
	// Points are ~(8+8*dim) bytes decomposed, ~3x that boxed. Budget =
	// bytes of ~200k scaled 10-dim points.
	perPoint := int64(8 + 8*dim)
	return int64(o.scaled(220_000)) * perPoint * 2
}

// Fig9bLR reproduces Figure 9(b): LR execution time and cached-data size
// across five dataset sizes spanning the fits-in-memory and spilling
// regimes, for Spark, SparkSer and Deca.
func Fig9bLR(o Options, rep *Report) error {
	rep.PaperClaim = "moderate gains while memory suffices; 16-41x once the cache saturates " +
		"(full GCs trace the cached points in vain, Spark swaps more); Deca cache smaller"
	// Five sizes mirroring the paper's 40-200GB sweep: the first three fit
	// every mode, the fourth exceeds the object cache only (Spark swaps),
	// the fifth exceeds even the page cache (both swap, Deca less).
	sizes := []int{
		o.scaled(50_000), o.scaled(100_000), o.scaled(150_000),
		o.scaled(350_000), o.scaled(500_000),
	}
	budget := lrBudget(o, 10)
	for _, n := range sizes {
		// The paper gives 90% to caching here.
		runs, err := o.sweep(rep, fmt.Sprintf("lr-n%d", n), allModes, storage(0.9, budget),
			lrJob(workloads.LRParams{Points: n, Dim: 10, Iterations: 8}))
		if err != nil {
			return err
		}
		spark, ser, deca := runs[0], runs[1], runs[2]
		rep.add("n=%-8d %s", n, walls(runs))
		rep.add("           cache: Spark=%-9s SparkSer=%-9s Deca=%-9s swap: Spark=%-7s Deca=%-7s cycles=%d/%d/%d",
			mb(spark.Counters.CacheBytes()), mb(ser.Counters.CacheBytes()), mb(deca.Counters.CacheBytes()),
			mb(spark.Counters[obs.CacheSwapOutBytes]), mb(deca.Counters[obs.CacheSwapOutBytes]), spark.GC.NumGC, ser.GC.NumGC, deca.GC.NumGC)
	}
	return nil
}

// Fig9cKMeans reproduces Figure 9(c): the same sweep for KMeans.
func Fig9cKMeans(o Options, rep *Report) error {
	rep.PaperClaim = "same pattern as LR: large speedups once the cached vectors saturate memory"
	budget := lrBudget(o, 10)
	for _, n := range []int{o.scaled(50_000), o.scaled(150_000), o.scaled(300_000)} {
		runs, err := o.sweep(rep, fmt.Sprintf("kmeans-n%d", n), allModes, storage(0.9, budget),
			kmeansJob(workloads.KMeansParams{Points: n, Dim: 10, K: 8, Iterations: 5}))
		if err != nil {
			return err
		}
		rep.add("n=%-8d %s %s", n, walls(runs), cacheSD(runs))
	}
	return nil
}

// Fig9dHighDim reproduces Figure 9(d): 4096-dimensional vectors (the
// Amazon image features). Object headers amortize over huge payloads, so
// cache sizes converge and speedups shrink to the paper's 1.2-5.3x band.
func Fig9dHighDim(o Options, rep *Report) error {
	rep.PaperClaim = "speedups shrink to 1.2-5.3x; Spark and Deca cache sizes nearly identical"
	const dim = 4096
	nLR := o.scaled(3_000)
	nKM := o.scaled(2_000)

	// With 32KB payloads per record, object headers are negligible and so
	// is per-object GC tracing; the paper's remaining advantage comes from
	// memory pressure — both systems swap, Deca moves raw pages while
	// Spark (de)serializes — so the sweep runs under a budget both modes
	// exceed, like the paper's 40/80GB inputs against 30GB executors.
	for _, c := range []struct {
		name string
		n    int
		j    job
	}{
		{"lr", nLR, lrJob(workloads.LRParams{Points: nLR, Dim: dim, Iterations: 3})},
		{"kmeans", nKM, kmeansJob(workloads.KMeansParams{Points: nKM, Dim: dim, K: 4, Iterations: 2})},
	} {
		runs, err := o.sweep(rep, c.name+"-highdim", allModes, storage(0.9, int64(c.n)*int64(8*dim)*8/10), c.j)
		if err != nil {
			return err
		}
		rep.add("%-6s n=%-6d %s %s", c.name, c.n, walls(runs), cacheSD(runs))
	}
	return nil
}

// cacheSD renders a sweep's cache footprint, Spark's and Deca's.
func cacheSD(runs []workloads.Result) string {
	return fmt.Sprintf("cache(S/D)=%s/%s", mb(runs[0].Counters.CacheBytes()), mb(runs[len(runs)-1].Counters.CacheBytes()))
}
