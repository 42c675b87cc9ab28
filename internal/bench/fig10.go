package bench

import (
	"deca/internal/workloads"
)

// graphConfigs are the Table 2 graphs scaled down: LiveJournal, webbase
// and the HiBench-generated graph, preserving the edge/vertex ratios and
// degree skew.
func graphConfigs(o Options) []struct {
	name   string
	params workloads.GraphParams
} {
	return []struct {
		name   string
		params workloads.GraphParams
	}{
		{"LJ", workloads.GraphParams{Vertices: int64(o.scaled(5_000)), Edges: o.scaled(70_000), Skew: 0.6, Iterations: 5}},
		{"WB", workloads.GraphParams{Vertices: int64(o.scaled(30_000)), Edges: o.scaled(250_000), Skew: 0.6, Iterations: 5}},
		{"HB", workloads.GraphParams{Vertices: int64(o.scaled(60_000)), Edges: o.scaled(400_000), Skew: 0.6, Iterations: 5}},
	}
}

// Fig10aPageRank reproduces Figure 10(a): PR across the three graphs and
// three systems, with the paper's 40%/100% cache/shuffle memory split.
func Fig10aPageRank(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "fig10a",
		Title: "PageRank on power-law graphs",
		PaperClaim: "Deca 1.1-6.4x over Spark (per-iteration shuffle release softens GC " +
			"pressure vs LR); SparkSer gains little — deserialization offsets the GC win",
	}
	for _, g := range graphConfigs(o) {
		var results []workloads.Result
		for _, mode := range allModes {
			cfg := o.baseCfg(mode)
			cfg.StorageFraction = 0.4
			res, err := workloads.PageRank(cfg, g.params)
			if err != nil {
				return nil, err
			}
			rep.record("pagerank-"+g.name, res)
			results = append(results, res)
		}
		rep.add("%-3s Spark=%-9s SparkSer=%-9s Deca=%-9s speedup=%-6s gc(S/D)=%.3fs/%.3fs cache(S/D)=%s/%s",
			g.name, fmtDur(results[0].Wall), fmtDur(results[1].Wall), fmtDur(results[2].Wall),
			speedup(results[0].Wall, results[2].Wall),
			results[0].GC.GCCPUSeconds, results[2].GC.GCCPUSeconds,
			mb(results[0].Counters.CacheBytes()), mb(results[2].Counters.CacheBytes()))
	}
	return rep, nil
}

// Fig10bCC reproduces Figure 10(b): ConnectedComponents on the same
// graphs.
func Fig10bCC(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:         "fig10b",
		Title:      "ConnectedComponents on power-law graphs",
		PaperClaim: "same pattern as PR: Deca wins 1.1-6.4x, SparkSer roughly neutral",
	}
	for _, g := range graphConfigs(o) {
		var results []workloads.Result
		for _, mode := range allModes {
			cfg := o.baseCfg(mode)
			cfg.StorageFraction = 0.4
			res, err := workloads.ConnectedComponents(cfg, g.params)
			if err != nil {
				return nil, err
			}
			rep.record("cc-"+g.name, res)
			results = append(results, res)
		}
		rep.add("%-3s Spark=%-9s SparkSer=%-9s Deca=%-9s speedup=%-6s gc(S/D)=%.3fs/%.3fs",
			g.name, fmtDur(results[0].Wall), fmtDur(results[1].Wall), fmtDur(results[2].Wall),
			speedup(results[0].Wall, results[2].Wall),
			results[0].GC.GCCPUSeconds, results[2].GC.GCCPUSeconds)
	}
	return rep, nil
}
