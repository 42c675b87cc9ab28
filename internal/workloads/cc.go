package workloads

import (
	"deca/internal/decompose"
	"deca/internal/engine"
)

// ConnectedComponents runs the §6.3 CC job: label propagation over the
// cached (undirected) adjacency lists. Each vertex starts with its own id
// as label and every iteration sends its label to its neighbors and itself,
// so the aggregated shuffle's minimum per vertex is its next label. As in
// PageRank, an iteration's merged reduce containers are the next one's
// label table; a Count of the labels that fell is all the driver sees. The
// checksum sums label + id%97 over the vertices labelled below their own id.
func ConnectedComponents(cfg Config, params GraphParams) (Result, error) {
	return run("ConnectedComponents", cfg, PlanSpec{Workload: "cc", Graph: params}, func(ctx *engine.Context) (float64, error) {
		links, err := adjacency(ctx, cfg, params, true)
		if err != nil {
			return 0, err
		}
		var prev *engine.Dataset[decompose.Pair[int64, int64]]
		for iter := 0; iter < params.Iterations; iter++ {
			msgs := adjacencyContribs(ctx, links, true, func(p int) (func(int64, int) int64, func()) {
				label, release := labelProbe(prev, p)
				return func(src int64, _ int) int64 { return label(src) }, release
			})
			agg := engine.ReduceByKey(msgs, adjOps(links.Partitions()), func(a, b int64) int64 { return min(a, b) })
			changed, err := engine.Count(fellBelow(agg, prev))
			if err != nil {
				return 0, err
			}
			if prev != nil {
				ctx.ReleaseShuffle(prev.ID())
			}
			prev = agg
			if changed == 0 {
				break
			}
		}
		if prev == nil {
			return 0, nil
		}
		defer ctx.ReleaseShuffle(prev.ID())
		terms := engine.FlatMap(prev, func(kv decompose.Pair[int64, int64], emit func(float64)) {
			if kv.Value < kv.Key {
				emit(float64(kv.Value) + float64(kv.Key%97))
			}
		})
		checksum, _, err := engine.Reduce(terms, func(a, b float64) float64 { return a + b })
		return checksum, err
	})
}

// labelProbe is partition p's label lookup: a vertex's entry in prev, the
// previous iteration's minima, or its own id before the first iteration.
func labelProbe(prev *engine.Dataset[decompose.Pair[int64, int64]], p int) (label func(int64) int64, release func()) {
	if prev == nil {
		return func(v int64) int64 { return v }, func() {}
	}
	probe, release, err := engine.LookupFor(prev, p)
	if err != nil {
		panic(err)
	}
	return func(v int64) int64 {
		if l, ok := probe(v); ok {
			return l
		}
		return v
	}, release
}

// fellBelow holds the vertices of agg whose new label is below the one prev
// gave them. A partition pins agg's container before it probes prev's: the
// pin may materialize agg, whose map tasks probe prev's.
func fellBelow(agg, prev *engine.Dataset[decompose.Pair[int64, int64]]) *engine.Dataset[int64] {
	return engine.MapPartitions(agg, func(p int, in engine.Seq[decompose.Pair[int64, int64]], emit func(int64)) {
		var label func(int64) int64
		for kv := range in {
			if label == nil {
				var release func()
				label, release = labelProbe(prev, p)
				defer release()
			}
			if kv.Value < label(kv.Key) {
				emit(kv.Key)
			}
		}
	})
}
