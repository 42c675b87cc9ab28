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
func Table3GCReduction(o Options, rep *Report) error {
	rep.PaperClaim = "Spark spends 40-79% of execution in GC; Deca cuts GC time by 97.5-99.9%"
	graph := workloads.GraphParams{Vertices: int64(o.scaled(80_000)), Edges: o.scaled(600_000), Skew: 0.6, Iterations: 6}
	for _, a := range []app{
		{"WC", wcJob(workloads.WCParams{
			DistinctKeys: o.scaled(500_000), WordsPerLine: 10, Lines: o.scaled(500_000)})},
		{"LR", lrJob(workloads.LRParams{Points: o.scaled(500_000), Dim: 10, Iterations: 12})},
		{"KMeans", kmeansJob(workloads.KMeansParams{Points: o.scaled(300_000), Dim: 10, K: 8, Iterations: 8})},
		{"PR", prJob(graph)},
		{"CC", ccJob(graph)},
	} {
		runs, err := o.sweep(rep, a.name, sparkDeca, nil, a.run)
		if err != nil {
			return err
		}
		spark, deca := runs[0].GC, runs[1].GC
		reduction := 0.0
		if spark.GCCPUSeconds > 0 {
			reduction = 100 * (1 - deca.GCCPUSeconds/spark.GCCPUSeconds)
		}
		rep.add("%-7s %s gc(S/D)=%.3fs/%.3fs Spark's gc ratio=%4.1f%% gc reduction=%.1f%%",
			a.name, walls(runs), spark.GCCPUSeconds, deca.GCCPUSeconds, 100*spark.GCRatio(), reduction)
	}
	return nil
}

// Table4GCTuning reproduces Table 4: LR and PR under (a) the storage-
// fraction sweep and (b) the collector-aggressiveness sweep (GOGC values
// standing in for PS/CMS/G1), against the untouched Deca run.
func Table4GCTuning(o Options, rep *Report) error {
	rep.PaperClaim = "LR is very sensitive to tuning (fractions and collector choice change " +
		"runtime several-fold), PR much less; no tuning reaches Deca"
	budget := lrBudget(o, 10)
	rep.add("LR: Spark under storage fractions (fixed budget %s), then GOGC as the PS/CMS/G1 analogue; Deca untuned", mb(budget))
	lr := lrJob(workloads.LRParams{Points: o.scaled(200_000), Dim: 10, Iterations: 8})
	if err := o.tuning(rep, "lr", 1, []float64{0.8, 0.6, 0.4}, budget, lr); err != nil {
		return err
	}
	rep.add("PR: the same, under the default budget")
	pr := prJob(workloads.GraphParams{Vertices: int64(o.scaled(20_000)), Edges: o.scaled(150_000), Skew: 0.6, Iterations: 4})
	return o.tuning(rep, "pr", 2, []float64{0.4, 0.1, 0.05}, 0, pr)
}

// tuning is one job's half of Table 4, its rows named from app: Spark
// under each storage fraction (with budget, unless it is 0; a fraction
// named to prec decimals), Spark under each GOGC, then Deca untuned.
func (o Options) tuning(rep *Report, app string, prec int, fracs []float64, budget int64, j job) error {
	spark, deca := []engine.Mode{engine.ModeSpark}, []engine.Mode{engine.ModeDeca}
	for _, frac := range fracs {
		if err := o.sweepRows(rep, fmt.Sprintf("%s-frac%.*f", app, prec, frac), spark, storage(frac, budget), j); err != nil {
			return err
		}
	}
	for _, gogc := range []int{50, 100, 300} {
		if err := o.sweepRows(rep, fmt.Sprintf("%s-gogc%d", app, gogc), spark, nil, underGC(gogc, j)); err != nil {
			return err
		}
	}
	return o.sweepRows(rep, app+"-deca", deca, nil, j)
}

// underGC is j run with the collector's GOGC at pct.
func underGC(pct int, j job) job {
	return func(cfg workloads.Config) (res workloads.Result, err error) {
		gcstats.WithGCPercent(pct, func() { res, err = j(cfg) })
		return res, err
	}
}

// Table5Micro reproduces Table 5: the controlled single-process
// comparison under small and large heaps (memory-limit emulation), plus
// the per-object serialization/deserialization costs.
func Table5Micro(o Options, rep *Report) error {
	rep.PaperClaim = "small heap: Spark GC-bound, SparkSer/Deca fine; large heap: Deca ≈ Spark, " +
		"SparkSer pays deserialization; Deca serializes like Kryo but deserializes for free"
	for _, a := range []app{
		{"lr", lrJob(workloads.LRParams{Points: o.scaled(120_000), Dim: 10, Iterations: 8})},
		// Pokec-scale.
		{"pr", prJob(workloads.GraphParams{Vertices: int64(o.scaled(8_000)), Edges: o.scaled(150_000), Skew: 0.6, Iterations: 4})},
	} {
		// Small heap: a tight soft memory limit + eager GC recreates the
		// 1.1GB-JVM regime where the collector runs continuously. A run
		// that fails under it is a row, and the experiment goes on.
		rep.add("%s, small heap (tight memory limit; Deca's pages held to it by the manager budget):", a.name)
		var err error
		gcstats.WithMemoryLimit(smallHeap, func() {
			gcstats.WithGCPercent(25, func() {
				err = o.sweepRows(rep, a.name+"-smallheap", allModes, smallHeapCfg, a.run)
			})
		})
		if err != nil {
			rep.add("  error: %v", err)
		}
		rep.add("%s, large heap (default):", a.name)
		if err := o.sweepRows(rep, a.name+"-largeheap", allModes, nil, a.run); err != nil {
			return err
		}
	}

	serRow, deserRow := perObjectCosts(o, rep)
	rep.add("%s", serRow)
	rep.add("%s", deserRow)
	return nil
}

// smallHeap is Table 5's small heap. In the paper Deca's pages sit inside
// that heap; here they are mappings, which Go's memory limit does not
// count, so the limit alone would bound Spark's and SparkSer's containers
// (Go heap) and leave Deca's unbounded.
const smallHeap = 64 << 20

// smallHeapCfg tunes a config to the small-heap regime: the Deca arm's
// manager budget is the same 64 MB, so its cache and shuffle containers
// evict and spill where a heap that held their pages would have filled.
func smallHeapCfg(cfg *workloads.Config) {
	if cfg.Mode == engine.ModeDeca {
		cfg.MemoryBudget = smallHeap
	}
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
func Table6SQL(o Options, rep *Report) error {
	rep.PaperClaim = "Query 1: all three comparable (small input); Query 2: columnar and Deca " +
		">2x faster than rows with far less GC and ~half the cache"
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

	type arm struct {
		size int64
		run  func() (int, float64)
	}
	for _, q := range []struct {
		id, title, unit string
		arms            [3]arm
	}{
		{"q1", fmt.Sprintf("Query 1 (filter, %d rows):", nRank), "rows", [3]arm{
			{rowR.MemBytes(), func() (int, float64) { return sqlmini.Query1Rows(rowR, 100) }},
			{colR.MemBytes(), func() (int, float64) { return sqlmini.Query1Columnar(colR, 100) }},
			{decaR.MemBytes(), func() (int, float64) { return sqlmini.Query1Deca(decaR, 100) }},
		}},
		{"q2", fmt.Sprintf("Query 2 (group-by aggregate, %d rows):", nVisit), "groups", [3]arm{
			{rowV.MemBytes(), func() (int, float64) { return sqlmini.Query2Rows(rowV) }},
			{colV.MemBytes(), func() (int, float64) { return sqlmini.Query2Columnar(colV) }},
			{decaV.MemBytes(), func() (int, float64) { return sqlmini.Query2Deca(decaV) }},
		}},
	} {
		rep.add("%s", q.title)
		for i, name := range []string{"Spark-rows", "SparkSQL-columnar", "Deca-pages"} {
			// Run the query several times so GC effects register.
			gcstats.ForceGC()
			before := gcstats.Read()
			start := time.Now()
			count := 0
			for range 5 {
				count, _ = q.arms[i].run()
			}
			wall, gc := time.Since(start)/5, gcstats.Read().Sub(before)
			rep.metric(Metric{Name: q.id + "/" + name, WallMS: float64(wall) / float64(time.Millisecond),
				GCSec: gc.GCCPUSeconds, Bytes: q.arms[i].size, Checksum: float64(count)})
			rep.add("  %-18s exec=%-9s gc=%6.3fs cache=%-9s %s=%d",
				name, fmtDur(wall), gc.GCCPUSeconds, mb(q.arms[i].size), q.unit, count)
		}
	}
	return nil
}
