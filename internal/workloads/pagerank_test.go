package workloads

import (
	"math"
	"testing"

	"deca/internal/decompose"
	"deca/internal/engine"
)

// referenceRanks is PageRank with the ranks collected into a driver map
// every iteration (CollectMap), whose damped values the next iteration
// reads once per edge: the form the job had before an iteration's reduce
// containers became the next one's rank table.
func referenceRanks(t *testing.T, ctx *engine.Context, links *engine.Dataset[decompose.Pair[int64, []int64]], iterations int) map[int64]float64 {
	t.Helper()
	ranks := map[int64]float64{}
	for iter := 0; iter < iterations; iter++ {
		contribs := engine.FlatMap(links, func(kv decompose.Pair[int64, []int64], emit func(decompose.Pair[int64, float64])) {
			rank, ok := ranks[kv.Key]
			if !ok {
				rank = 1.0
			}
			for _, dst := range kv.Value {
				emit(engine.KV(dst, rank/float64(len(kv.Value))))
			}
		})
		agg := engine.ReduceByKey(contribs, rankOps(links.Partitions()), func(a, b float64) float64 { return a + b })
		sums, err := engine.CollectMap(agg)
		if err != nil {
			t.Fatal(err)
		}
		ctx.ReleaseShuffle(agg.ID())
		for v, sum := range sums {
			sums[v] = 0.15 + 0.85*sum
		}
		ranks = sums
	}
	return ranks
}

// TestPageRankRanksMatchReference: every vertex's rank, read from the last
// iteration's reduce containers, is bit-identical to the reference's in all
// three modes, and over TCP — the probe answers what the driver map held,
// and a vertex no sum names ranks 1 as it did there. Both run over one
// cached adjacency: an Object cache's record order is Go map order, which a
// float sum follows.
func TestPageRankRanksMatchReference(t *testing.T) {
	params := GraphParams{Vertices: 300, Edges: 1500, Skew: 0.6, Iterations: 4}
	type variant struct {
		name  string
		mode  engine.Mode
		trans engine.TransportKind
	}
	variants := []variant{{"Deca-tcp", engine.ModeDeca, engine.TransportTCP}}
	for _, m := range modes() {
		variants = append(variants, variant{m.String(), m, engine.TransportInProcess})
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := baseCfg(t, v.mode).withDefaults()
			cfg.NumExecutors, cfg.TransportKind = 2, v.trans
			ctx := cfg.newEngine()
			defer ctx.Close()
			links, err := adjacency(ctx, cfg, params, false)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceRanks(t, ctx, links, params.Iterations)
			sums, err := pageRankSums(ctx, links, params.Iterations)
			if err != nil {
				t.Fatal(err)
			}
			got, err := engine.CollectMap(sums)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d ranked vertices, reference %d", len(got), len(want))
			}
			for v, sum := range got {
				if r, ok := want[v]; !ok || math.Float64bits(damped(sum)) != math.Float64bits(r) {
					t.Fatalf("vertex %d: rank %.17g, reference %.17g (present %v)", v, damped(sum), r, ok)
				}
			}
		})
	}
}

// TestPageRankChecksumRepeats: the checksum folds the last ranks in
// partition order, so two Deca runs agree to the bit (the driver map it
// replaced summed in Go's random map order).
func TestPageRankChecksumRepeats(t *testing.T) {
	params := GraphParams{Vertices: 2_000, Edges: 12_000, Skew: 0.6, Iterations: 3}
	cfg := baseCfg(t, engine.ModeDeca)
	cfg.NumExecutors = 2
	var sums [2]float64
	for i := range sums {
		res, err := PageRank(cfg, params)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = res.Checksum
	}
	if math.Float64bits(sums[0]) != math.Float64bits(sums[1]) {
		t.Errorf("two Deca runs: %.17g then %.17g", sums[0], sums[1])
	}
}
