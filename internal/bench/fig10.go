package bench

import (
	"deca/internal/workloads"
)

// Fig10aPageRank reproduces Figure 10(a): PR across the three graphs and
// three systems, with the paper's 40%/100% cache/shuffle memory split.
func Fig10aPageRank(o Options, rep *Report) error {
	rep.PaperClaim = "Deca 1.1-6.4x over Spark (per-iteration shuffle release softens GC " +
		"pressure vs LR); SparkSer gains little — deserialization offsets the GC win"
	return o.graphs(rep, "pagerank-", prJob)
}

// Fig10bCC reproduces Figure 10(b): ConnectedComponents on the same
// graphs.
func Fig10bCC(o Options, rep *Report) error {
	rep.PaperClaim = "same pattern as PR: Deca wins 1.1-6.4x, SparkSer roughly neutral"
	return o.graphs(rep, "cc-", ccJob)
}

// graphs sweeps a graph job over the three systems on each of the Table 2
// graphs scaled down: LiveJournal, webbase and the HiBench-generated
// graph, preserving the edge/vertex ratios and degree skew.
func (o Options) graphs(rep *Report, prefix string, run func(workloads.GraphParams) job) error {
	for _, g := range []struct {
		name   string
		params workloads.GraphParams
	}{
		{"LJ", workloads.GraphParams{Vertices: int64(o.scaled(5_000)), Edges: o.scaled(70_000), Skew: 0.6, Iterations: 5}},
		{"WB", workloads.GraphParams{Vertices: int64(o.scaled(30_000)), Edges: o.scaled(250_000), Skew: 0.6, Iterations: 5}},
		{"HB", workloads.GraphParams{Vertices: int64(o.scaled(60_000)), Edges: o.scaled(400_000), Skew: 0.6, Iterations: 5}},
	} {
		runs, err := o.sweep(rep, prefix+g.name, allModes, storage(0.4, 0), run(g.params))
		if err != nil {
			return err
		}
		rep.add("%-3s %s gc(S/D)=%.3fs/%.3fs %s", g.name, walls(runs),
			runs[0].GC.GCCPUSeconds, runs[2].GC.GCCPUSeconds, cacheSD(runs))
	}
	return nil
}
