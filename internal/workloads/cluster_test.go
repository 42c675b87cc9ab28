package workloads

import (
	"math"
	"testing"

	"deca/internal/engine"
)

// The acceptance bar of the multi-executor refactor: WC, LR and PageRank
// must produce the single-executor answer in every mode when the engine
// is sharded across four executors, with cross-executor shuffle traffic
// actually occurring on the shuffling workloads.
func TestMultiExecutorWorkloadEquivalence(t *testing.T) {
	type job struct {
		name     string
		shuffles bool
		run      func(cfg Config) (Result, error)
	}
	jobs := []job{
		{"WC", true, func(cfg Config) (Result, error) {
			return WordCount(cfg, WCParams{DistinctKeys: 2000, WordsPerLine: 8, Lines: 3000})
		}},
		{"LR", false, func(cfg Config) (Result, error) {
			return LogisticRegression(cfg, LRParams{Points: 4000, Dim: 8, Iterations: 4})
		}},
		{"PR", true, func(cfg Config) (Result, error) {
			return PageRank(cfg, GraphParams{Vertices: 500, Edges: 4000, Skew: 1.1, Iterations: 3})
		}},
	}
	for _, mode := range modes() {
		for _, j := range jobs {
			t.Run(j.name+"/"+mode.String(), func(t *testing.T) {
				cfg := Config{
					Mode: mode, Parallelism: 2, Partitions: 8,
					SpillDir: t.TempDir(), Seed: 1,
				}
				ref, err := j.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.NumExecutors = 4
				got, err := j.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !approxEqual(got.Checksum, ref.Checksum) {
					t.Errorf("4-executor checksum %v != single-executor %v", got.Checksum, ref.Checksum)
				}
				if j.shuffles && got.RemoteShuffleFetches == 0 {
					t.Error("expected cross-executor shuffle fetches on 4 executors")
				}
				if j.shuffles && mode == engine.ModeDeca && got.PagesServedZeroCopy == 0 {
					t.Error("Deca run served no pages in place (frames were staged)")
				}
				if !j.shuffles && got.RemoteShuffleFetches != 0 {
					t.Errorf("shuffle-free workload reported %d remote fetches", got.RemoteShuffleFetches)
				}
				if ref.RemoteShuffleFetches != 0 {
					t.Errorf("single-executor run reported %d remote fetches", ref.RemoteShuffleFetches)
				}
			})
		}
	}
}

// Budget accounting: a workload run under a global budget must split it
// exactly across the executors' memory managers.
func TestMultiExecutorBudgetAccounting(t *testing.T) {
	const budget = 32 << 20
	cfg := Config{
		Mode: engine.ModeDeca, NumExecutors: 4, Parallelism: 2, Partitions: 8,
		MemoryBudget: budget, SpillDir: t.TempDir(), Seed: 1,
	}
	ctx := cfg.withDefaults().newEngine()
	defer ctx.Close()
	var sum int64
	for _, ex := range ctx.Executors() {
		sum += ex.Memory().Limit()
		if math.Abs(float64(ex.Memory().Limit())-budget/4) > 1 {
			t.Errorf("executor %d budget %d, want ~%d", ex.ID(), ex.Memory().Limit(), budget/4)
		}
	}
	if sum != budget {
		t.Errorf("executor budgets sum to %d, want %d", sum, budget)
	}
}

// The acceptance bar of the wire-format refactor: WC, LR and PageRank
// over the TCP transport must produce the in-process answer in every
// mode, with real frame bytes crossing executor sockets on the shuffling
// workloads.
func TestTCPTransportWorkloadEquivalence(t *testing.T) {
	type job struct {
		name     string
		shuffles bool
		run      func(cfg Config) (Result, error)
	}
	jobs := []job{
		{"WC", true, func(cfg Config) (Result, error) {
			return WordCount(cfg, WCParams{DistinctKeys: 2000, WordsPerLine: 8, Lines: 3000})
		}},
		{"LR", false, func(cfg Config) (Result, error) {
			return LogisticRegression(cfg, LRParams{Points: 4000, Dim: 8, Iterations: 4})
		}},
		{"PR", true, func(cfg Config) (Result, error) {
			return PageRank(cfg, GraphParams{Vertices: 500, Edges: 4000, Skew: 1.1, Iterations: 3})
		}},
	}
	for _, mode := range modes() {
		for _, j := range jobs {
			t.Run(j.name+"/"+mode.String(), func(t *testing.T) {
				cfg := Config{
					Mode: mode, NumExecutors: 4, Parallelism: 2, Partitions: 8,
					SpillDir: t.TempDir(), Seed: 1,
				}
				ref, err := j.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.TransportKind = engine.TransportTCP
				got, err := j.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !approxEqual(got.Checksum, ref.Checksum) {
					t.Errorf("TCP checksum %v != in-process %v", got.Checksum, ref.Checksum)
				}
				if j.shuffles && got.RemoteShuffleBytes == 0 {
					t.Error("expected wire bytes on the TCP transport")
				}
				if j.shuffles && mode == engine.ModeDeca {
					// Deca frames ship as segments: pages in place, only
					// headers and key tables through user space.
					if got.PagesServedZeroCopy == 0 {
						t.Error("Deca run served no pages in place over TCP")
					}
					if got.ServeUserspaceCopyBytes >= got.RemoteShuffleBytes {
						t.Errorf("Deca run staged %d bytes in user space for %d wire bytes — whole frames were staged",
							got.ServeUserspaceCopyBytes, got.RemoteShuffleBytes)
					}
				}
				if !j.shuffles && got.RemoteShuffleBytes != 0 {
					t.Errorf("shuffle-free workload moved %d wire bytes", got.RemoteShuffleBytes)
				}
			})
		}
	}
}

// Spill-backed Deca outputs serve through the sendfile path: WC under a
// forced shuffle-spill threshold over TCP matches the unspilled answer
// exactly, with spill bytes actually crossing the sockets via sendfile.
func TestTCPSpilledServeEquivalence(t *testing.T) {
	params := WCParams{DistinctKeys: 4000, WordsPerLine: 8, Lines: 6000}
	cfg := Config{
		Mode: engine.ModeDeca, NumExecutors: 2, Parallelism: 2, Partitions: 4,
		TransportKind: engine.TransportTCP, SpillDir: t.TempDir(), Seed: 1,
	}
	ref, err := WordCount(cfg, params)
	if err != nil {
		t.Fatalf("unspilled: %v", err)
	}
	cfg.ShuffleSpillThreshold = 16 << 10
	got, err := WordCount(cfg, params)
	if err != nil {
		t.Fatalf("spilled: %v", err)
	}
	if got.Checksum != ref.Checksum {
		t.Errorf("checksum: spilled %v != unspilled %v", got.Checksum, ref.Checksum)
	}
	if got.ShuffleSpillBytes == 0 {
		t.Fatal("threshold did not force shuffle spills; the sendfile path was not exercised")
	}
	if got.BytesSendfile == 0 {
		t.Error("spilled run shipped no spill bytes via sendfile")
	}
	if ref.BytesSendfile != 0 {
		t.Errorf("unspilled run shipped %d bytes via sendfile", ref.BytesSendfile)
	}
}
