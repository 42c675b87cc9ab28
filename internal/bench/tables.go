package bench

import (
	"fmt"
	"time"

	"deca/internal/datagen"
	"deca/internal/decompose"
	"deca/internal/engine"
	"deca/internal/gcstats"
	"deca/internal/memory"
	"deca/internal/sqlmini"
	"deca/internal/workloads"
)

// Table3GCReduction reproduces Table 3: for each application at its
// largest non-spilling configuration, the GC time, its share of execution
// time, and Deca's reduction.
func Table3GCReduction(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "table3",
		Title: "GC time and Deca's reduction per application",
		PaperClaim: "Spark spends 40-79% of execution in GC; Deca cuts GC time by " +
			"97.5-99.9%",
	}
	type app struct {
		name string
		run  func(mode engine.Mode) (workloads.Result, error)
	}
	apps := []app{
		{"WC", func(m engine.Mode) (workloads.Result, error) {
			return workloads.WordCount(o.baseCfg(m), workloads.WCParams{
				DistinctKeys: o.scaled(500_000), WordsPerLine: 10, Lines: o.scaled(500_000)})
		}},
		{"LR", func(m engine.Mode) (workloads.Result, error) {
			return workloads.LogisticRegression(o.baseCfg(m), workloads.LRParams{
				Points: o.scaled(500_000), Dim: 10, Iterations: 12})
		}},
		{"KMeans", func(m engine.Mode) (workloads.Result, error) {
			return workloads.KMeans(o.baseCfg(m), workloads.KMeansParams{
				Points: o.scaled(300_000), Dim: 10, K: 8, Iterations: 8})
		}},
		{"PR", func(m engine.Mode) (workloads.Result, error) {
			return workloads.PageRank(o.baseCfg(m), workloads.GraphParams{
				Vertices: int64(o.scaled(80_000)), Edges: o.scaled(600_000), Skew: 0.6, Iterations: 6})
		}},
		{"CC", func(m engine.Mode) (workloads.Result, error) {
			return workloads.ConnectedComponents(o.baseCfg(m), workloads.GraphParams{
				Vertices: int64(o.scaled(80_000)), Edges: o.scaled(600_000), Skew: 0.6, Iterations: 6})
		}},
	}
	for _, a := range apps {
		spark, err := a.run(engine.ModeSpark)
		if err != nil {
			return nil, err
		}
		deca, err := a.run(engine.ModeDeca)
		if err != nil {
			return nil, err
		}
		rep.record(a.name, spark)
		rep.record(a.name, deca)
		reduction := 0.0
		if spark.GC.GCCPUSeconds > 0 {
			reduction = 100 * (1 - deca.GC.GCCPUSeconds/spark.GC.GCCPUSeconds)
		}
		rep.add("%-7s Spark: exec=%-9s gc=%6.3fs ratio=%4.1f%% | Deca: exec=%-9s gc=%6.3fs | gc reduction=%.1f%%",
			a.name, fmtDur(spark.Wall), spark.GC.GCCPUSeconds, 100*spark.GC.GCRatio(),
			fmtDur(deca.Wall), deca.GC.GCCPUSeconds, reduction)
	}
	return rep, nil
}

// Table4GCTuning reproduces Table 4: LR and PR under (a) the storage-
// fraction sweep and (b) the collector-aggressiveness sweep (GOGC values
// standing in for PS/CMS/G1), against the untouched Deca run.
func Table4GCTuning(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "table4",
		Title: "GC tuning vs Deca",
		PaperClaim: "LR is very sensitive to tuning (fractions and collector choice change " +
			"runtime several-fold), PR much less; no tuning reaches Deca",
	}
	lrParams := workloads.LRParams{Points: o.scaled(200_000), Dim: 10, Iterations: 8}
	lrBudget := lrBudget(o, 10)

	rep.add("LR: storage-fraction sweep (Spark mode, fixed budget %s)", mb(lrBudget))
	for _, frac := range []float64{0.8, 0.6, 0.4} {
		cfg := o.baseCfg(engine.ModeSpark)
		cfg.MemoryBudget = lrBudget
		cfg.StorageFraction = frac
		res, err := workloads.LogisticRegression(cfg, lrParams)
		if err != nil {
			return nil, err
		}
		rep.record(fmt.Sprintf("lr-frac%.1f", frac), res)
		rep.add("  frac=%.1f  exec=%-9s gc=%6.3fs swap=%s", frac, fmtDur(res.Wall), res.GC.GCCPUSeconds, mb(res.SwapBytes))
	}
	rep.add("LR: collector aggressiveness sweep (GOGC as the PS/CMS/G1 analogue)")
	for _, gogc := range []int{50, 100, 300} {
		var res workloads.Result
		var err error
		gcstats.WithGCPercent(gogc, func() {
			res, err = workloads.LogisticRegression(o.baseCfg(engine.ModeSpark), lrParams)
		})
		if err != nil {
			return nil, err
		}
		rep.record(fmt.Sprintf("lr-gogc%d", gogc), res)
		rep.add("  GOGC=%-4d exec=%-9s gc=%6.3fs", gogc, fmtDur(res.Wall), res.GC.GCCPUSeconds)
	}
	decaLR, err := workloads.LogisticRegression(o.baseCfg(engine.ModeDeca), lrParams)
	if err != nil {
		return nil, err
	}
	rep.record("lr-deca", decaLR)
	rep.add("  Deca      exec=%-9s gc=%6.3fs (no tuning)", fmtDur(decaLR.Wall), decaLR.GC.GCCPUSeconds)

	prParams := workloads.GraphParams{Vertices: int64(o.scaled(20_000)), Edges: o.scaled(150_000), Skew: 0.6, Iterations: 4}
	rep.add("PR: storage-fraction sweep (Spark mode)")
	for _, frac := range []float64{0.4, 0.1, 0.05} {
		cfg := o.baseCfg(engine.ModeSpark)
		cfg.StorageFraction = frac
		res, err := workloads.PageRank(cfg, prParams)
		if err != nil {
			return nil, err
		}
		rep.record(fmt.Sprintf("pr-frac%.2f", frac), res)
		rep.add("  frac=%.2f exec=%-9s gc=%6.3fs", frac, fmtDur(res.Wall), res.GC.GCCPUSeconds)
	}
	rep.add("PR: collector aggressiveness sweep")
	for _, gogc := range []int{50, 100, 300} {
		var res workloads.Result
		var err error
		gcstats.WithGCPercent(gogc, func() {
			res, err = workloads.PageRank(o.baseCfg(engine.ModeSpark), prParams)
		})
		if err != nil {
			return nil, err
		}
		rep.record(fmt.Sprintf("pr-gogc%d", gogc), res)
		rep.add("  GOGC=%-4d exec=%-9s gc=%6.3fs", gogc, fmtDur(res.Wall), res.GC.GCCPUSeconds)
	}
	decaPR, err := workloads.PageRank(o.baseCfg(engine.ModeDeca), prParams)
	if err != nil {
		return nil, err
	}
	rep.record("pr-deca", decaPR)
	rep.add("  Deca      exec=%-9s gc=%6.3fs (no tuning)", fmtDur(decaPR.Wall), decaPR.GC.GCCPUSeconds)
	return rep, nil
}

// Table5Micro reproduces Table 5: the controlled single-process
// comparison under small and large heaps (memory-limit emulation), plus
// the per-object serialization/deserialization costs.
func Table5Micro(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "table5",
		Title: "Microbenchmark: heap-size regimes and per-object ser/deser",
		PaperClaim: "small heap: Spark GC-bound, SparkSer/Deca fine; large heap: Deca ≈ Spark, " +
			"SparkSer pays deserialization; Deca serializes like Kryo but deserializes for free",
	}
	lrParams := workloads.LRParams{Points: o.scaled(120_000), Dim: 10, Iterations: 8}

	// Small heap: a tight soft memory limit + eager GC recreates the
	// 1.1GB-JVM regime where the collector runs continuously.
	rep.add("LR, small heap (tight memory limit; Deca's pages held to it by the manager budget):")
	gcstats.WithMemoryLimit(smallHeap, func() {
		gcstats.WithGCPercent(25, func() {
			for _, mode := range allModes {
				res, err := workloads.LogisticRegression(o.smallHeapCfg(mode), lrParams)
				if err != nil {
					rep.add("  %-9s error: %v", mode, err)
					continue
				}
				rep.record("lr-smallheap", res)
				rep.add("  %-9s exec=%-9s gc=%6.3fs", mode, fmtDur(res.Wall), res.GC.GCCPUSeconds)
			}
		})
	})
	rep.add("LR, large heap (default):")
	for _, mode := range allModes {
		res, err := workloads.LogisticRegression(o.baseCfg(mode), lrParams)
		if err != nil {
			return nil, err
		}
		rep.record("lr-largeheap", res)
		rep.add("  %-9s exec=%-9s gc=%6.3fs", mode, fmtDur(res.Wall), res.GC.GCCPUSeconds)
	}

	prParams := workloads.GraphParams{Vertices: int64(o.scaled(8_000)), Edges: o.scaled(150_000), Skew: 0.6, Iterations: 4}
	rep.add("PR (Pokec-scale), small heap:")
	gcstats.WithMemoryLimit(smallHeap, func() {
		gcstats.WithGCPercent(25, func() {
			for _, mode := range allModes {
				res, err := workloads.PageRank(o.smallHeapCfg(mode), prParams)
				if err != nil {
					rep.add("  %-9s error: %v", mode, err)
					continue
				}
				rep.record("pr-smallheap", res)
				rep.add("  %-9s exec=%-9s gc=%6.3fs", mode, fmtDur(res.Wall), res.GC.GCCPUSeconds)
			}
		})
	})
	rep.add("PR, large heap:")
	for _, mode := range allModes {
		res, err := workloads.PageRank(o.baseCfg(mode), prParams)
		if err != nil {
			return nil, err
		}
		rep.record("pr-largeheap", res)
		rep.add("  %-9s exec=%-9s gc=%6.3fs", mode, fmtDur(res.Wall), res.GC.GCCPUSeconds)
	}

	serRow, deserRow := perObjectCosts(o, rep)
	rep.add("%s", serRow)
	rep.add("%s", deserRow)
	return rep, nil
}

// smallHeap is Table 5's small heap. In the paper Deca's pages sit inside
// that heap; here they are mappings, which Go's memory limit does not
// count, so the limit alone would bound Spark's and SparkSer's containers
// (Go heap) and leave Deca's unbounded.
const smallHeap = 64 << 20

// smallHeapCfg is mode's config in the small-heap regime: the Deca arm's
// manager budget is the same 64 MB, so its cache and shuffle containers
// evict and spill where a heap that held their pages would have filled.
func (o Options) smallHeapCfg(mode engine.Mode) workloads.Config {
	cfg := o.baseCfg(mode)
	if mode == engine.ModeDeca {
		cfg.MemoryBudget = smallHeap
	}
	return cfg
}

// perObjectCosts measures average per-object encode/decode times for the
// Deca codec and the Kryo-style serializer (Table 5's bottom rows).
func perObjectCosts(o Options, rep *Report) (string, string) {
	const dim = 10
	n := o.scaled(200_000)
	pts := datagen.Points(3, n, dim)
	codec := workloads.LabeledPointCodec{Dim: dim}
	mem := memory.NewManager(1<<20, 0)
	defer mem.Close()

	// Deca encode (decompose into pages).
	g := mem.NewGroup()
	start := time.Now()
	for _, p := range pts {
		seg, _ := g.Alloc(codec.FixedSize())
		codec.Encode(seg, p)
	}
	decaSer := time.Since(start)

	// Deca "deserialize": direct page access — sum a field without
	// materializing objects.
	start = time.Now()
	var sink float64
	for pi := 0; pi < g.NumPages(); pi++ {
		page := g.Page(pi)
		for off := 0; off+codec.FixedSize() <= len(page); off += codec.FixedSize() {
			sink += decompose.F64(page, off)
		}
	}
	decaDeser := time.Since(start)
	g.Release()
	_ = sink

	// Kryo-style marshal/unmarshal.
	ser := workloads.LabeledPointSer{}
	var buf []byte
	start = time.Now()
	for _, p := range pts {
		buf = ser.Marshal(buf[:0], p)
	}
	kryoSer := time.Since(start)
	bufs := make([][]byte, n)
	for i, p := range pts {
		bufs[i] = ser.Marshal(nil, p)
	}
	start = time.Now()
	for i := range bufs {
		pt, _ := ser.Unmarshal(bufs[i])
		sink += pt.Label
	}
	kryoDeser := time.Since(start)

	for _, m := range []struct {
		name string
		d    time.Duration
	}{
		{"ser/deca", decaSer}, {"ser/kryo", kryoSer},
		{"deser/deca", decaDeser}, {"deser/kryo", kryoDeser},
	} {
		rep.metric(Metric{Name: m.name, WallMS: float64(m.d) / float64(time.Millisecond)})
	}
	per := func(d time.Duration) string {
		return fmt.Sprintf("%.0fns", float64(d.Nanoseconds())/float64(n))
	}
	return fmt.Sprintf("avg serialize/object:    Deca=%-8s Kryo=%-8s (paper: comparable)", per(decaSer), per(kryoSer)),
		fmt.Sprintf("avg deserialize/object:  Deca=%-8s Kryo=%-8s (paper: Deca ~free, Kryo dominant)", per(decaDeser), per(kryoDeser))
}

// Table6SQL reproduces Table 6: the two exploratory queries over the
// three table representations, with build (cache) sizes and GC cost.
func Table6SQL(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "table6",
		Title: "SQL: filtering and group-by over rows / columnar / Deca pages",
		PaperClaim: "Query 1: all three comparable (small input); Query 2: columnar and Deca " +
			">2x faster than rows with far less GC and ~half the cache",
	}
	nRank := o.scaled(300_000)
	nVisit := o.scaled(300_000)
	rankRows := datagen.Rankings(11, nRank)
	visitRows := datagen.UserVisits(13, nVisit)
	mem := memory.NewManager(1<<20, 0)
	defer mem.Close()

	// Build the three cached representations, measuring footprints.
	rowR := sqlmini.BuildRowRankings(rankRows)
	colR := sqlmini.BuildColumnarRankings(rankRows)
	decaR := sqlmini.BuildDecaRankings(mem, rankRows)
	defer decaR.Release()
	rowV := sqlmini.BuildRowVisits(visitRows)
	colV := sqlmini.BuildColumnarVisits(visitRows)
	decaV := sqlmini.BuildDecaVisits(mem, visitRows)
	defer decaV.Release()

	timeQuery := func(f func() (int, float64)) (time.Duration, gcstats.Delta, int) {
		gcstats.ForceGC()
		before := gcstats.Read()
		start := time.Now()
		count := 0
		// Run the query several times so GC effects register.
		for i := 0; i < 5; i++ {
			count, _ = f()
		}
		wall := time.Since(start)
		return wall / 5, gcstats.Read().Sub(before), count
	}

	q1 := []struct {
		name string
		f    func() (int, float64)
		size int64
	}{
		{"Spark-rows", func() (int, float64) { return sqlmini.Query1Rows(rowR, 100) }, rowR.MemBytes()},
		{"SparkSQL-columnar", func() (int, float64) { return sqlmini.Query1Columnar(colR, 100) }, colR.MemBytes()},
		{"Deca-pages", func() (int, float64) { return sqlmini.Query1Deca(decaR, 100) }, decaR.MemBytes()},
	}
	rep.add("Query 1 (filter, %d rows):", nRank)
	for _, q := range q1 {
		wall, gc, count := timeQuery(q.f)
		rep.metric(Metric{Name: "q1/" + q.name, WallMS: float64(wall) / float64(time.Millisecond),
			GCSec: gc.GCCPUSeconds, Bytes: q.size, Checksum: float64(count)})
		rep.add("  %-18s exec=%-9s gc=%6.3fs cache=%-9s rows=%d",
			q.name, fmtDur(wall), gc.GCCPUSeconds, mb(q.size), count)
	}

	q2 := []struct {
		name string
		f    func() (int, float64)
		size int64
	}{
		{"Spark-rows", func() (int, float64) { return sqlmini.Query2Rows(rowV) }, rowV.MemBytes()},
		{"SparkSQL-columnar", func() (int, float64) { return sqlmini.Query2Columnar(colV) }, colV.MemBytes()},
		{"Deca-pages", func() (int, float64) { return sqlmini.Query2Deca(decaV) }, decaV.MemBytes()},
	}
	rep.add("Query 2 (group-by aggregate, %d rows):", nVisit)
	for _, q := range q2 {
		wall, gc, groups := timeQuery(q.f)
		rep.metric(Metric{Name: "q2/" + q.name, WallMS: float64(wall) / float64(time.Millisecond),
			GCSec: gc.GCCPUSeconds, Bytes: q.size, Checksum: float64(groups)})
		rep.add("  %-18s exec=%-9s gc=%6.3fs cache=%-9s groups=%d",
			q.name, fmtDur(wall), gc.GCCPUSeconds, mb(q.size), groups)
	}
	return rep, nil
}
