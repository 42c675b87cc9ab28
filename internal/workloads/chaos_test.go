package workloads

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"deca/internal/chaos"
	"deca/internal/engine"
	"deca/internal/obs"
)

// TestChaosWorkloadEquivalence is the fault-tolerance acceptance bar:
// with chaos injecting a 5% per-attempt failure rate and killing one
// executor mid-run, WC, LR and PageRank on both transports must produce
// the fault-free checksum (exactly for WC's integer-valued folds, within
// the usual float tolerance for LR/PR, whose cross-partition reduction
// order is scheduler-driven even without faults), with retries visible in
// the metrics and no spill files left behind.
func TestChaosWorkloadEquivalence(t *testing.T) {
	type job struct {
		name  string
		exact bool // checksum is integer-valued: compare bit-for-bit
		run   func(cfg Config) (Result, error)
	}
	jobs := []job{
		{"WC", true, func(cfg Config) (Result, error) {
			return WordCount(cfg, WCParams{DistinctKeys: 2000, WordsPerLine: 8, Lines: 3000})
		}},
		{"LR", false, func(cfg Config) (Result, error) {
			return LogisticRegression(cfg, LRParams{Points: 4000, Dim: 8, Iterations: 4})
		}},
		{"PR", false, func(cfg Config) (Result, error) {
			return PageRank(cfg, GraphParams{Vertices: 500, Edges: 4000, Skew: 1.1, Iterations: 3})
		}},
	}
	for _, kind := range []engine.TransportKind{engine.TransportInProcess, engine.TransportTCP} {
		for _, j := range jobs {
			t.Run(j.name+"/"+kind.String(), func(t *testing.T) {
				base := Config{
					Mode: engine.ModeDeca, NumExecutors: 4, Parallelism: 2,
					Partitions: 8, SpillDir: t.TempDir(), Seed: 1,
					TransportKind: kind,
				}
				ref, err := j.run(base)
				if err != nil {
					t.Fatal(err)
				}

				inj := chaos.New(20260728)
				inj.TaskFailureRate = 0.05
				inj.KillExecutor = 3
				inj.KillAfter = 2
				var killed atomic.Bool
				inj.OnKill = func(int) { killed.Store(true) }
				faulty := base
				faulty.SpillDir = t.TempDir()
				faulty.Chaos = inj
				faulty.MaxTaskRetries = 4
				faulty.MaxExecutorFailures = 2
				got, err := j.run(faulty)
				if err != nil {
					t.Fatalf("faulty run did not recover: %v", err)
				}

				if j.exact {
					if got.Checksum != ref.Checksum {
						t.Errorf("checksum %v != fault-free %v (want byte-identical)", got.Checksum, ref.Checksum)
					}
				} else if !approxEqual(got.Checksum, ref.Checksum) {
					t.Errorf("checksum %v != fault-free %v", got.Checksum, ref.Checksum)
				}
				if got.Counters[obs.TasksFailed] == 0 {
					t.Fatal("chaos injected nothing; the run proves nothing")
				}
				if got.Counters[obs.TaskRetries] == 0 {
					t.Error("recovery left no TaskRetries trace in the result")
				}
				if killed.Load() && got.Counters[obs.ExecutorsBlacklisted] == 0 {
					t.Error("executor kill never led to a blacklist")
				}
				assertDirEmpty(t, faulty.SpillDir)
			})
		}
	}
}

func assertDirEmpty(t *testing.T, dir string) {
	t.Helper()
	var leaked []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			leaked = append(leaked, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(leaked) > 0 {
		t.Errorf("%d files leaked in spill dir: %v", len(leaked), leaked)
	}
}
