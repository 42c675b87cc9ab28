package workloads

import (
	"fmt"
	"testing"

	"deca/internal/decompose"
	"deca/internal/engine"
)

// referenceComponents is CC with its labels in a driver map, the form the
// job had before an iteration's reduce containers became the next one's
// label table: each iteration collects the minimum incoming label per
// vertex (CollectMap) and lowers the map's labels, and the checksum sums
// label + id%97 over the map.
func referenceComponents(t *testing.T, cfg Config, params GraphParams) float64 {
	t.Helper()
	ctx := cfg.newEngine()
	defer ctx.Close()
	links, err := adjacency(ctx, cfg, params, true)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[int64]int64{}
	labelOf := func(v int64) int64 {
		if l, ok := labels[v]; ok {
			return l
		}
		return v
	}
	for iter := 0; iter < params.Iterations; iter++ {
		msgs := engine.FlatMap(links, func(kv decompose.Pair[int64, []int64], emit func(decompose.Pair[int64, int64])) {
			for _, dst := range kv.Value {
				emit(engine.KV(dst, labelOf(kv.Key)))
			}
		})
		agg := engine.ReduceByKey(msgs, adjOps(links.Partitions()), func(a, b int64) int64 { return min(a, b) })
		incoming, err := engine.CollectMap(agg)
		if err != nil {
			t.Fatal(err)
		}
		ctx.ReleaseShuffle(agg.ID())
		changed := false
		for v, m := range incoming {
			if m < labelOf(v) {
				labels[v], changed = m, true
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
	return checksum
}

// TestConnectedComponentsMatchesReference: the checksum read from the last
// iteration's reduce containers equals the driver-map reference's exactly,
// in all three modes and over TCP, both when the labels converge before the
// last iteration and when the iterations run out first.
func TestConnectedComponentsMatchesReference(t *testing.T) {
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
		for _, iterations := range []int{2, 30} {
			t.Run(fmt.Sprintf("%s/%d-iterations", v.name, iterations), func(t *testing.T) {
				params := GraphParams{Vertices: 400, Edges: 500, Skew: 0.6, Iterations: iterations}
				cfg := baseCfg(t, v.mode).withDefaults()
				cfg.NumExecutors, cfg.TransportKind = 2, v.trans
				want := referenceComponents(t, cfg, params)
				res, err := ConnectedComponents(cfg, params)
				if err != nil {
					t.Fatal(err)
				}
				if res.Checksum != want || want == 0 {
					t.Errorf("checksum %v, reference %v (want nonzero and equal)", res.Checksum, want)
				}
			})
		}
	}
}
