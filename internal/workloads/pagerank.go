package workloads

import (
	"deca/internal/decompose"
	"deca/internal/engine"
)

// PageRank runs the §6.3 PR job: adjacency lists built by a grouped
// shuffle and cached for all iterations; each iteration flat-maps rank
// contributions over the adjacency cache and aggregates them per target
// vertex through an eager-combining shuffle, whose buffers are released
// when the iteration's ranks have been read (the lifetime behaviour that
// makes PR less GC-bound than LR, §6.4). Ranks live in a driver-held map,
// standing in for Spark's broadcast of the rank RDD at this scale.
func PageRank(cfg Config, params GraphParams) (Result, error) {
	return run("PageRank", cfg, PlanSpec{Workload: "pr", Graph: params}, func(ctx *engine.Context) (float64, error) {
		links, err := adjacency(ctx, cfg, params, false)
		if err != nil {
			return 0, err
		}

		ranks := make(map[int64]float64)
		seed := func(v int64) float64 {
			if r, ok := ranks[v]; ok {
				return r
			}
			return 1.0
		}

		parts := links.Partitions()
		for iter := 0; iter < params.Iterations; iter++ {
			var contribs *engine.Dataset[decompose.Pair[int64, float64]]
			if cfg.Mode == engine.ModeDeca {
				contribs = decaAdjacencyContribs(ctx, links,
					func(src int64, degree int, neighbor int64, emit func(decompose.Pair[int64, float64])) {
						emit(engine.KV(neighbor, seed(src)/float64(degree)))
					})
			} else {
				contribs = engine.FlatMap(links,
					func(kv decompose.Pair[int64, []int64], emit func(decompose.Pair[int64, float64])) {
						share := seed(kv.Key) / float64(len(kv.Value))
						for _, dst := range kv.Value {
							emit(engine.KV(dst, share))
						}
					})
			}
			agg := engine.ReduceByKey(contribs, rankOps(parts), func(a, b float64) float64 { return a + b })
			msgs, err := engine.CollectMap(agg)
			if err != nil {
				return 0, err
			}
			ctx.ReleaseShuffle(agg.ID())

			for v, sum := range msgs {
				msgs[v] = 0.15 + 0.85*sum
			}
			ranks = msgs
		}

		var checksum float64
		for _, r := range ranks {
			checksum += r
		}
		return checksum, nil
	})
}
