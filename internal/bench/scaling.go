package bench

import (
	"fmt"

	"deca/internal/engine"
	"deca/internal/workloads"
)

// ScalingExecutors is the multi-executor scaling experiment the paper's
// cluster runs imply but never isolate: the same workload, the same total
// memory budget, split across 1/2/4/8 executors per mode. Partition
// counts are held fixed so only placement changes; each mode's checksum
// must be identical at every executor count (sharding must not change
// answers), and the report shows how much shuffle volume turns remote as
// the cluster widens — the traffic a network transport would carry.
func ScalingExecutors(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "scaling",
		Title: "Executor scaling: fixed total budget split across 1/2/4/8 executors",
		PaperClaim: "Deca's per-executor page heaps keep sharded runs answer-identical " +
			"while cross-executor shuffle traffic grows with the executor count",
	}
	// Total budget is fixed across the sweep; each cluster splits it
	// evenly. Sized so the tiny test scale still leaves headroom.
	totalBudget := int64(float64(256<<20) * o.Scale)
	if totalBudget < 8<<20 {
		totalBudget = 8 << 20
	}
	const parts = 8 // divisible by every executor count in the sweep

	type app struct {
		name string
		run  func(cfg workloads.Config) (workloads.Result, error)
	}
	apps := []app{
		{"WC", func(cfg workloads.Config) (workloads.Result, error) {
			return workloads.WordCount(cfg, workloads.WCParams{
				DistinctKeys: o.scaled(100_000), WordsPerLine: 10, Lines: o.scaled(100_000)})
		}},
		{"LR", func(cfg workloads.Config) (workloads.Result, error) {
			return workloads.LogisticRegression(cfg, workloads.LRParams{
				Points: o.scaled(100_000), Dim: 10, Iterations: 5})
		}},
		{"PR", func(cfg workloads.Config) (workloads.Result, error) {
			return workloads.PageRank(cfg, workloads.GraphParams{
				Vertices: int64(o.scaled(20_000)), Edges: o.scaled(100_000),
				Skew: 1.2, Iterations: 3})
		}},
	}

	for _, mode := range []engine.Mode{engine.ModeSpark, engine.ModeSparkSer, engine.ModeDeca} {
		for _, a := range apps {
			var baseline float64
			for _, execs := range []int{1, 2, 4, 8} {
				cfg := workloads.Config{
					Mode:          mode,
					NumExecutors:  execs,
					Parallelism:   o.Base.Parallelism,
					Partitions:    parts,
					MemoryBudget:  totalBudget,
					SpillDir:      o.Base.SpillDir,
					TransportKind: o.Base.TransportKind,
					Seed:          1,
				}
				o.applyChaos(&cfg)
				res, err := a.run(cfg)
				if err != nil {
					return nil, fmt.Errorf("%s[%v] x%d executors: %w", a.name, mode, execs, err)
				}
				if execs == 1 {
					baseline = res.Checksum
				} else if !checksumClose(res.Checksum, baseline) {
					return nil, fmt.Errorf("%s[%v] x%d executors: checksum %g != single-executor %g",
						a.name, mode, execs, res.Checksum, baseline)
				}
				rep.record(fmt.Sprintf("%s-x%d", a.name, execs), res)
				rep.add("%-3s %-9s execs=%d exec=%-9s remote-fetches=%-5d remote=%-9s spill=%-9s checksum=%.6g",
					a.name, mode, execs, fmtDur(res.Wall),
					res.RemoteShuffleFetches, mb(res.RemoteShuffleBytes),
					mb(res.SwapBytes+res.ShuffleSpillBytes), res.Checksum)
			}
		}
	}
	return rep, nil
}
