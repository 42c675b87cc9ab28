package workloads

import (
	"testing"

	"deca/internal/engine"
	"deca/internal/obs"
)

// TestWarmJobsTakeNothingFresh: the process's free lists (fill states, run
// writers, frame scratches and stage chunks, rand sources, event blocks)
// fill on a process's first job, and a warm process's job finds everything
// it takes parked there. After one warm-up job, two more with the same seed
// leave free_list_fresh where it was: a value taken fresh in a warm job is
// one given back too late for the next take, or one the list's cap drops.
func TestWarmJobsTakeNothingFresh(t *testing.T) {
	for _, j := range []struct {
		name string
		run  func(cfg Config) (Result, error)
	}{
		{"WC", func(cfg Config) (Result, error) {
			return WordCount(cfg, WCParams{DistinctKeys: 500, WordsPerLine: 8, Lines: 20_000})
		}},
		{"LR", func(cfg Config) (Result, error) {
			return LogisticRegression(cfg, LRParams{Points: 50_000, Dim: 8, Iterations: 2})
		}},
	} {
		t.Run(j.name, func(t *testing.T) {
			var fresh [3]int64
			for i := range fresh {
				r, err := j.run(baseCfg(t, engine.ModeDeca))
				if err != nil {
					t.Fatal(err)
				}
				fresh[i] = r.Counters[obs.FreeListFresh]
			}
			if fresh[0] == 0 || fresh[1] != fresh[0] || fresh[2] != fresh[0] {
				t.Errorf("free_list_fresh after a warm-up job and two more: %v; want it nonzero and unchanged by the warm jobs", fresh)
			}
		})
	}
}
