package workloads

import (
	"math"
	"testing"

	"deca/internal/engine"
	"deca/internal/obs"
)

// The paper's correctness baseline: Deca "transparently" changes the
// memory layout, so every workload must produce the same answer in all
// three modes. Float tolerance covers scheduler-dependent reduction
// order.
func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-6*scale
}

func modes() []engine.Mode {
	return []engine.Mode{engine.ModeSpark, engine.ModeSparkSer, engine.ModeDeca}
}

func baseCfg(t *testing.T, mode engine.Mode) Config {
	t.Helper()
	return Config{
		Mode:        mode,
		Parallelism: 2,
		Partitions:  3,
		PageSize:    8 * 1024,
		SpillDir:    t.TempDir(),
		Seed:        7,
	}
}

func TestWordCountModesAgree(t *testing.T) {
	params := WCParams{DistinctKeys: 200, WordsPerLine: 8, Lines: 400}
	var sums []float64
	for _, m := range modes() {
		res, err := WordCount(baseCfg(t, m), params)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Checksum <= 0 {
			t.Fatalf("%v: degenerate checksum %v", m, res.Checksum)
		}
		sums = append(sums, res.Checksum)
	}
	// Counting is integral: all modes must agree exactly.
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Errorf("WordCount checksums diverge: %v", sums)
	}
}

func TestLogisticRegressionModesAgree(t *testing.T) {
	params := LRParams{Points: 600, Dim: 8, Iterations: 3}
	var sums []float64
	for _, m := range modes() {
		res, err := LogisticRegression(baseCfg(t, m), params)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		sums = append(sums, res.Checksum)
	}
	if !approxEqual(sums[0], sums[1]) || !approxEqual(sums[1], sums[2]) {
		t.Errorf("LR checksums diverge: %v", sums)
	}
}

func TestKMeansModesAgree(t *testing.T) {
	params := KMeansParams{Points: 500, Dim: 6, K: 4, Iterations: 3}
	var sums []float64
	for _, m := range modes() {
		res, err := KMeans(baseCfg(t, m), params)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		sums = append(sums, res.Checksum)
	}
	if !approxEqual(sums[0], sums[1]) || !approxEqual(sums[1], sums[2]) {
		t.Errorf("KMeans checksums diverge: %v", sums)
	}
}

func TestPageRankModesAgree(t *testing.T) {
	params := GraphParams{Vertices: 300, Edges: 1500, Skew: 0.6, Iterations: 3}
	var sums []float64
	for _, m := range modes() {
		res, err := PageRank(baseCfg(t, m), params)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Checksum <= 0 {
			t.Fatalf("%v: degenerate checksum %v", m, res.Checksum)
		}
		sums = append(sums, res.Checksum)
	}
	if !approxEqual(sums[0], sums[1]) || !approxEqual(sums[1], sums[2]) {
		t.Errorf("PageRank checksums diverge: %v", sums)
	}
}

func TestConnectedComponentsModesAgree(t *testing.T) {
	params := GraphParams{Vertices: 200, Edges: 800, Skew: 0.6, Iterations: 10}
	var sums []float64
	for _, m := range modes() {
		res, err := ConnectedComponents(baseCfg(t, m), params)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		sums = append(sums, res.Checksum)
	}
	// Label propagation is integral: exact agreement required.
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Errorf("CC checksums diverge: %v", sums)
	}
}

func TestWordCountUnderSpill(t *testing.T) {
	// Forcing tiny shuffle buffers must not change the answer.
	params := WCParams{DistinctKeys: 500, WordsPerLine: 10, Lines: 600}
	ref, err := WordCount(baseCfg(t, engine.ModeSpark), params)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []engine.Mode{engine.ModeSpark, engine.ModeDeca} {
		cfg := baseCfg(t, m)
		cfg.ShuffleSpillThreshold = 2 * 1024
		res, err := WordCount(cfg, params)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Checksum != ref.Checksum {
			t.Errorf("%v spilled checksum %v != %v", m, res.Checksum, ref.Checksum)
		}
		if res.Counters[obs.ShuffleSpillBytes] == 0 {
			t.Errorf("%v: expected shuffle spills", m)
		}
	}
}

func TestLRUnderCachePressure(t *testing.T) {
	// A budget that cannot hold the cached points forces swaps (the
	// paper's spilling regime, Fig. 9(b) right side); results must hold.
	params := LRParams{Points: 800, Dim: 8, Iterations: 2}
	ref, err := LogisticRegression(baseCfg(t, engine.ModeDeca), params)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg(t, engine.ModeDeca)
	cfg.MemoryBudget = 32 * 1024
	cfg.StorageFraction = 0.5
	cfg.PageSize = 4 * 1024
	res, err := LogisticRegression(cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(res.Checksum, ref.Checksum) {
		t.Errorf("pressured checksum %v != %v", res.Checksum, ref.Checksum)
	}
	if res.Counters[obs.CacheSwapOutBytes] == 0 {
		t.Error("expected cache swaps under pressure")
	}
	// The footprint counts blocks wherever they are, and a block is written
	// to swap once however many passes evict it.
	if min := int64(params.Points * LabeledPointCodec{Dim: params.Dim}.FixedSize()); res.Counters.CacheBytes() < min {
		t.Errorf("CacheBytes = %d, below the %d bytes of records cached", res.Counters.CacheBytes(), min)
	}
	if res.Counters[obs.CacheSwapOutBytes] > res.Counters.CacheBytes() {
		t.Errorf("SwapBytes = %d exceeds the cached data's %d: blocks were rewritten", res.Counters[obs.CacheSwapOutBytes], res.Counters.CacheBytes())
	}
}

func TestResultString(t *testing.T) {
	res, err := WordCount(baseCfg(t, engine.ModeDeca), WCParams{DistinctKeys: 20, WordsPerLine: 4, Lines: 30})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if s == "" {
		t.Error("empty Result string")
	}
}
