package bench

import (
	"time"

	"deca/internal/decompose"
	"deca/internal/engine"
	"deca/internal/gcstats"
	"deca/internal/memory"
	"deca/internal/shuffle"
	"deca/internal/workloads"
)

// Ablations for the design choices the paper motivates qualitatively.
// They are not paper figures, but they quantify the §2.3/§4.3 arguments:
// the page size must be neither too small (per-page overhead) nor too
// large (wasted space), and the SFST in-place value reuse is what removes
// the combine-time garbage.

// AblationPageSize sweeps the page size for the LR cache. In the paper a
// tiny page costs GC tracing, one more array per page. Here pages are
// anonymous mappings the collector never sees (memory.newBytes), so on
// unix a tiny page costs one mapping of its own: an mmap when it is first
// made, an munmap when the pool drops it, and pool traffic in between.
// Huge pages waste the unused tail of each container's last page.
func AblationPageSize(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "ablation-pagesize",
		Title: "Page-size sweep for the LR cache",
		PaperClaim: "§2.3/§4.3.1: pages must be neither too small (the paper: GC traces many arrays; " +
			"here, mapped pages: one mmap/munmap and mapping per page, pool churn) " +
			"nor too large (unused space in each container's last page)",
	}
	params := workloads.LRParams{Points: o.scaled(200_000), Dim: 10, Iterations: 8}
	for _, ps := range []int{4 << 10, 64 << 10, 1 << 20, 16 << 20} {
		cfg := o.baseCfg(engine.ModeDeca)
		cfg.PageSize = ps
		res, err := workloads.LogisticRegression(cfg, params)
		if err != nil {
			return nil, err
		}
		rep.record("page-"+mb(int64(ps)), res)
		rep.add("page=%-8s exec=%-9s gc=%6.3fs cache-footprint=%s",
			mb(int64(ps)), fmtDur(res.Wall), res.GC.GCCPUSeconds, mb(res.CacheBytes))
	}
	return rep, nil
}

// AblationValueReuse isolates §4.3.2's segment reuse: the same eager
// aggregation run through (a) the Deca buffer that overwrites the value
// segment in place, and (b) the object buffer that allocates a boxed
// value per combine. Same keys, same combines; only the value lifecycle
// differs.
func AblationValueReuse(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "ablation-value-reuse",
		Title: "SFST in-place value reuse vs boxed combine values",
		PaperClaim: "§4.3.2: combining kills the old value; reusing its page segment removes " +
			"the per-combine garbage entirely",
	}
	n := o.scaled(4_000_000)
	keys := o.scaled(100_000)
	mem := memory.NewManager(1<<20, 0)
	defer mem.Close()

	runAgg := func(name string, put func(k, v int64), drain func() int) {
		gcstats.ForceGC()
		before := gcstats.Read()
		start := time.Now()
		for i := 0; i < n; i++ {
			put(int64(i%keys), int64(i))
		}
		got := drain()
		wall := time.Since(start)
		d := gcstats.Read().Sub(before)
		rep.metric(Metric{Name: name, WallMS: float64(wall) / float64(time.Millisecond),
			GCSec: d.GCCPUSeconds, Checksum: float64(got)})
		rep.add("%-14s combines=%-9d keys=%-7d exec=%-9s gc=%6.3fs allocObjects=%d",
			name, n, got, fmtDur(wall), d.GCCPUSeconds, d.AllocObjects)
	}

	deca, err := shuffle.NewDecaAgg[int64, int64](mem,
		func(a, b int64) int64 { return a + b },
		decompose.Int64Codec{}, decompose.Int64Codec{}, "")
	if err != nil {
		return nil, err
	}
	runAgg("deca-reuse", deca.Put, func() int { return deca.Len() })
	deca.Release()

	obj := shuffle.NewObjectAgg[int64, int64](
		func(a, b int64) int64 { return a + b },
		shuffle.ObjectConfig[int64, int64]{})
	runAgg("object-boxed", obj.Put, func() int { return obj.Len() })
	obj.Release()

	return rep, nil
}
