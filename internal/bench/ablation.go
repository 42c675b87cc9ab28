package bench

import (
	"time"

	"deca/internal/datagen"
	"deca/internal/decompose"
	"deca/internal/engine"
	"deca/internal/gcstats"
	"deca/internal/memory"
	"deca/internal/shuffle"
	"deca/internal/workloads"
)

// Ablations for the design choices the paper motivates qualitatively.
// They are not paper figures, but they quantify the §2.3/§4.3 arguments:
// the page size must be neither too small (GC overhead from many pages)
// nor too large (wasted space), and the SFST in-place value reuse is what
// removes the combine-time garbage.

// AblationPageSize sweeps the page size for the LR cache: tiny pages
// multiply the number of GC-visible arrays and pool traffic; huge pages
// waste the unused tail of each container's last page.
func AblationPageSize(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "ablation-pagesize",
		Title: "Page-size sweep for the LR cache",
		PaperClaim: "§2.3/§4.3.1: pages must be neither too small (GC traces many arrays, " +
			"pool churn) nor too large (unused space in each container's last page)",
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

// AblationReflectVsGenerated compares the automatic reflection codec with
// the hand-written (generated-equivalent) codec for the same records —
// the cost of skipping Deca's code generation.
func AblationReflectVsGenerated(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "ablation-codec",
		Title: "Reflection codec vs generated-equivalent codec",
		PaperClaim: "Appendix B: Deca generates per-UDT accessor code; a generic (reflective) " +
			"path would give up much of the decomposition win",
	}
	type rec struct {
		Label    float64
		Features []float64 `deca:"final"`
	}
	n := o.scaled(300_000)
	const dim = 10
	refl, err := decompose.NewReflectCodec[rec](nil)
	if err != nil {
		return nil, err
	}
	gen := workloads.LabeledPointCodec{Dim: dim}
	mem := memory.NewManager(1<<20, 0)

	features := make([]float64, dim)
	for i := range features {
		features[i] = float64(i) * 1.5
	}

	// Reflection path.
	g1 := mem.NewGroup()
	start := time.Now()
	for i := 0; i < n; i++ {
		decompose.Write(g1, refl, rec{Label: 1, Features: features})
	}
	reflEnc := time.Since(start)
	start = time.Now()
	cnt := 0
	decompose.Scan(g1, refl, func(rec) bool { cnt++; return true })
	reflDec := time.Since(start)
	g1.Release()

	// Generated path (plus the raw accessor read, which needs no decode).
	g2 := mem.NewGroup()
	start = time.Now()
	for i := 0; i < n; i++ {
		seg, _ := g2.Alloc(gen.FixedSize())
		gen.Encode(seg, datagen.LabeledPoint{Label: 1, Features: features})
	}
	genEnc := time.Since(start)
	start = time.Now()
	var sink float64
	for pi := 0; pi < g2.NumPages(); pi++ {
		page := g2.Page(pi)
		for off := 0; off+gen.FixedSize() <= len(page); off += gen.FixedSize() {
			sink += decompose.F64(page, off)
		}
	}
	rawRead := time.Since(start)
	g2.Release()
	_ = sink

	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) }
	for _, m := range []struct {
		name string
		d    time.Duration
	}{
		{"encode/reflect", reflEnc}, {"encode/generated", genEnc},
		{"access/reflect-decode", reflDec}, {"access/raw-page-read", rawRead},
	} {
		rep.metric(Metric{Name: m.name, WallMS: float64(m.d) / float64(time.Millisecond)})
	}
	rep.add("encode/object:  reflect=%.0fns generated=%.0fns (%.1fx)",
		per(reflEnc), per(genEnc), per(reflEnc)/per(genEnc))
	rep.add("access/object:  reflect-decode=%.0fns raw-page-read=%.0fns (%.1fx)",
		per(reflDec), per(rawRead), per(reflDec)/per(rawRead))
	_ = cnt
	return rep, nil
}
