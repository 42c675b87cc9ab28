package workloads

import (
	"deca/internal/decompose"
	"deca/internal/engine"
)

// PageRank runs the §6.3 PR job: adjacency lists built by a grouped
// shuffle and cached for all iterations; each iteration flat-maps rank
// contributions over the cache and sums them per target vertex through an
// eager-combining shuffle, whose merged reduce containers are the next
// iteration's rank table — partitioned like the cache, probed where they
// lie (a narrow join), released once the next ones are built (§6.4).
func PageRank(cfg Config, params GraphParams) (Result, error) {
	return run("PageRank", cfg, PlanSpec{Workload: "pr", Graph: params}, func(ctx *engine.Context) (float64, error) {
		links, err := adjacency(ctx, cfg, params, false)
		if err != nil {
			return 0, err
		}
		sums, err := pageRankSums(ctx, links, params.Iterations)
		if err != nil || sums == nil {
			return 0, err
		}
		defer ctx.ReleaseShuffle(sums.ID())
		ranks := engine.Map(sums, func(kv decompose.Pair[int64, float64]) float64 { return damped(kv.Value) })
		checksum, _, err := engine.Reduce(ranks, func(a, b float64) float64 { return a + b })
		return checksum, err
	})
}

// damped is the rank of a vertex whose contributions sum to sum.
func damped(sum float64) float64 { return 0.15 + 0.85*sum }

// pageRankSums runs the iterations and returns the last one's per-vertex
// sums, still materialized (nil for no iterations).
func pageRankSums(ctx *engine.Context, links *engine.Dataset[decompose.Pair[int64, []int64]], iterations int) (*engine.Dataset[decompose.Pair[int64, float64]], error) {
	var prev *engine.Dataset[decompose.Pair[int64, float64]]
	for iter := 0; iter < iterations; iter++ {
		contribs := adjacencyContribs(ctx, links, false, rankContribs(prev))
		agg := engine.ReduceByKey(contribs, rankOps(links.Partitions()), func(a, b float64) float64 { return a + b })
		if err := engine.Materialize(agg); err != nil {
			return nil, err
		}
		if prev != nil {
			ctx.ReleaseShuffle(prev.ID())
		}
		prev = agg
	}
	return prev, nil
}

// rankContribs is one iteration's message setup: a source's rank over its
// degree, read from partition p of prev's sums (nil, or no sum: rank 1).
func rankContribs(prev *engine.Dataset[decompose.Pair[int64, float64]]) messageSetup[float64] {
	return func(p int) (func(int64, int) float64, func()) {
		if prev == nil {
			return func(_ int64, degree int) float64 { return 1.0 / float64(degree) }, func() {}
		}
		sum, release, err := engine.LookupFor(prev, p)
		if err != nil {
			panic(err)
		}
		return func(src int64, degree int) float64 {
			if s, ok := sum(src); ok {
				return damped(s) / float64(degree)
			}
			return 1.0 / float64(degree)
		}, release
	}
}
