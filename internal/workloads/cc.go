package workloads

import "deca/internal/engine"

// ConnectedComponents runs the §6.3 CC job: label propagation over the
// cached (undirected) adjacency lists. Each vertex starts with its own id
// as label; every iteration sends the current label to all neighbors, the
// aggregated shuffle keeps the minimum per target, and labels update
// monotonically. The container structure matches PR (grouped shuffle to
// build the cache, aggregated shuffle per iteration); the checksum sums
// final labels, and Extra reports the component count via the label set.
func ConnectedComponents(cfg Config, params GraphParams) (Result, error) {
	return run("ConnectedComponents", cfg, PlanSpec{Workload: "cc", Graph: params}, func(ctx *engine.Context) (float64, error) {
		links, err := adjacency(ctx, cfg, params, true)
		if err != nil {
			return 0, err
		}

		labels := make(map[int64]int64)
		labelOf := func(v int64) int64 {
			if l, ok := labels[v]; ok {
				return l
			}
			return v
		}

		for iter := 0; iter < params.Iterations; iter++ {
			// Labels stay a driver map: whether one changed is a driver decision.
			msgs := adjacencyContribs(ctx, links, func(int) (func(int64, int) int64, func()) {
				return func(src int64, _ int) int64 { return labelOf(src) }, func() {}
			})
			agg := engine.ReduceByKey(msgs, adjOps(links.Partitions()), func(a, b int64) int64 {
				if a < b {
					return a
				}
				return b
			})
			incoming, err := engine.CollectMap(agg)
			if err != nil {
				return 0, err
			}
			ctx.ReleaseShuffle(agg.ID())

			changed := false
			for v, m := range incoming {
				if m < labelOf(v) {
					labels[v] = m
					changed = true
				}
			}
			if !changed {
				break
			}
		}

		var checksum float64
		for v, l := range labels {
			checksum += float64(l) + float64(v%97)
		}
		return checksum, nil
	})
}
