package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"deca/internal/chaos"
	"deca/internal/decompose"
	"deca/internal/obs"
)

// Stage ids are deterministic for a single-action WC-shaped job: the
// action stage is 1, the shuffle's map stage 2, its reduce stage 3
// (stages number in RunStage call order, and the nested shuffle
// materializes under the action's once-guard).
const (
	wcActionStage = 1
	wcMapStage    = 2
	wcReduceStage = 3
)

// assertNoLeaks checks the three leak ledgers after shuffles released:
// live pages, live page groups, and payloads still registered with the
// transport.
func assertNoLeaks(t *testing.T, ctx *Context) {
	t.Helper()
	if in := ctx.MemoryInUse(); in != 0 {
		t.Errorf("%d bytes of pages leaked across executors", in)
	}
	for _, ex := range ctx.Executors() {
		if st := ex.Memory().Stats(); st.LiveGroups != 0 {
			t.Errorf("executor %d still holds %d live groups", ex.ID(), st.LiveGroups)
		}
	}
	p, ok := ctx.Transport().(interface{ Pending() int })
	if !ok {
		t.Fatalf("transport %T has no Pending probe", ctx.Transport())
	}
	if n := p.Pending(); n != 0 {
		t.Errorf("%d payloads still registered with the transport", n)
	}
}

// assertManagersEmptyAfterClose closes the context, after which no
// executor's manager may hold a byte, in use or pooled: the pool's mappings
// went with Close. It runs after every other ledger check, since Close
// itself deletes spill files and releases what the job left behind.
func assertManagersEmptyAfterClose(t *testing.T, ctx *Context) {
	t.Helper()
	ctx.Close()
	for _, ex := range ctx.Executors() {
		if st := ex.Memory().Stats(); st.BytesInUse != 0 || st.BytesPooled != 0 {
			t.Errorf("executor %d's manager after Close: %d bytes in use, %d pooled; want 0 and 0", ex.ID(), st.BytesInUse, st.BytesPooled)
		}
	}
}

// assertNoSpillFiles checks that no spill or swap files survive in dir.
func assertNoSpillFiles(t *testing.T, dir string) {
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
		t.Errorf("%d spill files leaked: %v", len(leaked), leaked)
	}
}

func chaosCtx(t *testing.T, kind TransportKind, inj *chaos.Injector, mutate func(*Config)) *Context {
	t.Helper()
	conf := Config{
		NumExecutors:  4,
		Parallelism:   2,
		Mode:          ModeDeca,
		PageSize:      4096,
		SpillDir:      t.TempDir(),
		TransportKind: kind,
		Chaos:         inj,
	}
	if mutate != nil {
		mutate(&conf)
	}
	ctx := New(conf)
	t.Cleanup(ctx.Close)
	return ctx
}

// TestChaosTaskFailuresRecover: with a seeded per-attempt failure rate on
// both transports, the job retries its way to the byte-identical
// fault-free answer with zero leaks.
func TestChaosTaskFailuresRecover(t *testing.T) {
	for _, kind := range []TransportKind{TransportInProcess, TransportTCP} {
		t.Run(kind.String(), func(t *testing.T) {
			want := wordCountOn(t, clusterCtx(t, ModeDeca, 4))

			inj := chaos.New(1234)
			inj.TaskFailureRate = 0.15
			ctx := chaosCtx(t, kind, inj, nil)
			got := wordCountOn(t, ctx)
			if !reflect.DeepEqual(got, want) {
				t.Error("chaos run result differs from fault-free run")
			}
			if inj.Stats().TaskFailures == 0 {
				t.Fatal("seed injected no failures; the test proves nothing")
			}
			m := ctx.Counters()
			if m[obs.TaskRetries] == 0 {
				t.Error("recovery left no TaskRetries trace")
			}
			if m[obs.TasksFailed] != inj.Stats().TaskFailures {
				t.Errorf("TasksFailed = %d, injected = %d", m[obs.TasksFailed], inj.Stats().TaskFailures)
			}
			ctx.ReleaseAllShuffles()
			assertNoLeaks(t, ctx)
			assertNoSpillFiles(t, ctx.Conf().SpillDir)
			assertManagersEmptyAfterClose(t, ctx)
		})
	}
}

// TestChaosExecutorKillBlacklistsAndRecovers: an executor killed
// mid-stage gets blacklisted after repeated failures, its partitions
// re-place, and the job still produces the fault-free answer.
func TestChaosExecutorKillBlacklistsAndRecovers(t *testing.T) {
	for _, kind := range []TransportKind{TransportInProcess, TransportTCP} {
		t.Run(kind.String(), func(t *testing.T) {
			want := wordCountOn(t, clusterCtx(t, ModeDeca, 4))

			inj := chaos.New(99)
			inj.KillExecutor = 1
			inj.KillAfter = 1
			ctx := chaosCtx(t, kind, inj, func(c *Config) {
				c.MaxExecutorFailures = 2
			})
			got := wordCountOn(t, ctx)
			if !reflect.DeepEqual(got, want) {
				t.Error("post-kill result differs from fault-free run")
			}
			if !ctx.Scheduler().Blacklisted(1) {
				t.Error("killed executor was never blacklisted")
			}
			if got := ctx.Counters()[obs.ExecutorsBlacklisted]; got != 1 {
				t.Errorf("ExecutorsBlacklisted = %d, want 1", got)
			}
			// Placement must avoid the dead executor, keeping healthy homes.
			for p := 0; p < 8; p++ {
				ex := ctx.ExecutorFor(p)
				if ex.ID() == 1 {
					t.Errorf("partition %d still placed on the dead executor", p)
				}
				if p%4 != 1 && ex.ID() != p%4 {
					t.Errorf("partition %d moved to %d despite healthy home", p, ex.ID())
				}
			}
			ctx.ReleaseAllShuffles()
			assertNoLeaks(t, ctx)
			assertNoSpillFiles(t, ctx.Conf().SpillDir)
			assertManagersEmptyAfterClose(t, ctx)
		})
	}
}

// TestBlacklistTreatsCacheBlocksAsMisses: blocks cached on an executor
// that later gets blacklisted are recomputed on the partitions' new
// executors; the answer is unchanged and Unpersist clears every replica.
func TestBlacklistTreatsCacheBlocksAsMisses(t *testing.T) {
	ctx := clusterCtx(t, ModeDeca, 4)
	d := Generate(ctx, 8, func(p int, emit func(int64)) {
		for i := int64(0); i < 50; i++ {
			emit(int64(p)*1000 + i)
		}
	})
	d.Persist(StorageDeca, Storage[int64]{Codec: decompose.Int64Codec{}})
	sum := func() int64 {
		total, _, err := Reduce(Map(d, func(v int64) int64 { return v }),
			func(a, b int64) int64 { return a + b })
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	want := sum()
	missesBefore := ctx.Counters()[obs.CacheMisses]

	if !ctx.Scheduler().Blacklist(1) {
		t.Fatal("blacklist refused")
	}
	if got := sum(); got != want {
		t.Errorf("sum after blacklist = %d, want %d", got, want)
	}
	// Partitions 1 and 5 lost their cached blocks with their executor; the
	// re-run recomputes them as misses on their new executors.
	if misses := ctx.Counters()[obs.CacheMisses] - missesBefore; misses < 2 {
		t.Errorf("cache misses after blacklist = %d, want ≥ 2 (recompute)", misses)
	}
	for p := 0; p < 8; p++ {
		if ctx.ExecutorFor(p).ID() == 1 {
			t.Errorf("partition %d placed on blacklisted executor", p)
		}
	}
	d.Unpersist()
	ctx.ReleaseAllShuffles()
	assertNoLeaks(t, ctx)
}

// TestChaosMapRetryDisplacesRegisteredOutputs is satellite leak test (a):
// a map attempt that registered its outputs and then "failed" (the
// executor died before reporting) is retried; the retry's registrations
// displace the originals, whose buffers — pages and spill runs — must be
// released, not leaked.
func TestChaosMapRetryDisplacesRegisteredOutputs(t *testing.T) {
	for _, kind := range []TransportKind{TransportInProcess, TransportTCP} {
		t.Run(kind.String(), func(t *testing.T) {
			want := wordCountOn(t, clusterCtx(t, ModeDeca, 4))

			inj := chaos.New(5)
			inj.FailAfterMatch = func(stage, part, attempt, exec int) bool {
				return stage == wcMapStage && attempt == 1
			}
			ctx := chaosCtx(t, kind, inj, func(c *Config) {
				// Tiny threshold: the displaced outputs carry spill runs too.
				c.ShuffleSpillThreshold = 256
				c.PageSize = 1024
			})
			got := wordCountOn(t, ctx)
			if !reflect.DeepEqual(got, want) {
				t.Error("result differs after displacement retries")
			}
			if inj.Stats().AfterFailures == 0 {
				t.Fatal("no post-registration failures were injected")
			}
			// Every map task ran at least twice and re-registered.
			if got := ctx.Counters()[obs.TaskRetries]; got < 8 {
				t.Errorf("TaskRetries = %d, want ≥ 8 (one per map task)", got)
			}
			ts := ctx.Transport().Stats()
			if ts.Registered < 2*8*5 {
				t.Errorf("Registered = %d, want ≥ 80 (each map output registered twice)", ts.Registered)
			}
			ctx.ReleaseAllShuffles()
			assertNoLeaks(t, ctx)
			assertNoSpillFiles(t, ctx.Conf().SpillDir)
			assertManagersEmptyAfterClose(t, ctx)
		})
	}
}

// TestChaosSpeculativeRaceLeaksNothing is satellite leak test (c): a
// straggler map task (stalled by an injected delay) gets a speculative
// duplicate that wins; the losing attempt is cancelled and its buffers
// released, with nothing leaked and the answer unchanged. The stall runs
// at the scheduler's own thresholds: 300ms is ten times the 30ms floor and
// far above 1.5× the median of tasks that take a few milliseconds.
func TestChaosSpeculativeRaceLeaksNothing(t *testing.T) {
	for _, kind := range []TransportKind{TransportInProcess, TransportTCP} {
		t.Run(kind.String(), func(t *testing.T) {
			want := wordCountOn(t, clusterCtx(t, ModeDeca, 4))

			inj := chaos.New(77)
			inj.TaskDelay = 300 * time.Millisecond
			inj.DelayMatch = func(stage, part, attempt, exec int) bool {
				return stage == wcMapStage && part == 3 && attempt == 1
			}
			ctx := chaosCtx(t, kind, inj, func(c *Config) {
				c.SpeculationEnabled = true
			})
			got := wordCountOn(t, ctx)
			if !reflect.DeepEqual(got, want) {
				t.Error("result differs after a speculative race")
			}
			m := ctx.Counters()
			if m[obs.SpeculativeLaunched] == 0 {
				t.Error("no speculative attempt launched for the stalled straggler")
			}
			if m[obs.SpeculativeWon] == 0 {
				t.Error("the speculative duplicate never won against a 300ms stall")
			}
			if m[obs.TasksFailed] != 0 {
				t.Errorf("TasksFailed = %d, want 0 (a cancelled loser is not a failure)", m[obs.TasksFailed])
			}
			ctx.ReleaseAllShuffles()
			assertNoLeaks(t, ctx)
			assertNoSpillFiles(t, ctx.Conf().SpillDir)
			assertManagersEmptyAfterClose(t, ctx)
		})
	}
}

// TestChaosMidMergeReduceFailureRetries: under the stage-commit
// protocol serving is non-consuming, so a reduce attempt that dies
// mid-merge — after half its inputs already folded in — simply retries
// against the still-pinned sources: no map re-runs, byte-identical
// answer, nothing leaked.
func TestChaosMidMergeReduceFailureRetries(t *testing.T) {
	for _, kind := range []TransportKind{TransportInProcess, TransportTCP} {
		t.Run(kind.String(), func(t *testing.T) {
			want := wordCountOn(t, clusterCtx(t, ModeDeca, 4))

			inj := chaos.New(5)
			inj.MergeFailMatch = func(stage, part, attempt, consumed int) bool {
				return stage == wcReduceStage && attempt == 1 && consumed == 4
			}
			ctx := chaosCtx(t, kind, inj, nil)
			got := wordCountOn(t, ctx)
			if !reflect.DeepEqual(got, want) {
				t.Error("result differs after mid-merge reduce failures")
			}
			st := inj.Stats()
			if st.MergeFailures == 0 {
				t.Fatal("no mid-merge failure injected; the test proves nothing")
			}
			m := ctx.Counters()
			if m[obs.TaskRetries] < st.MergeFailures {
				t.Errorf("TaskRetries = %d, want >= %d (one retry per injected merge death)",
					m[obs.TaskRetries], st.MergeFailures)
			}
			if n := m[obs.LineageMapReruns]; n != 0 {
				t.Errorf("LineageMapReruns = %d, want 0 (sources stayed pinned; no repair needed)", n)
			}
			ctx.ReleaseAllShuffles()
			assertNoLeaks(t, ctx)
			assertNoSpillFiles(t, ctx.Conf().SpillDir)
			assertManagersEmptyAfterClose(t, ctx)
		})
	}
}

// TestChaosReduceSpeculationReleasesLoser: with speculation on, a
// stalled reduce attempt gets a speculative twin (the stall is sized as in
// TestChaosSpeculativeRaceLeaksNothing). Both fetch the same
// pinned inputs (serving is non-consuming), the winner's merge lands,
// and the loser's is released by its cancel poll or the have-guard —
// identical answer, no failures counted, nothing leaked.
func TestChaosReduceSpeculationReleasesLoser(t *testing.T) {
	for _, kind := range []TransportKind{TransportInProcess, TransportTCP} {
		t.Run(kind.String(), func(t *testing.T) {
			want := wordCountOn(t, clusterCtx(t, ModeDeca, 4))

			inj := chaos.New(88)
			inj.TaskDelay = 300 * time.Millisecond
			inj.DelayMatch = func(stage, part, attempt, exec int) bool {
				return stage == wcReduceStage && part == 3 && attempt == 1
			}
			ctx := chaosCtx(t, kind, inj, func(c *Config) {
				c.SpeculationEnabled = true
			})
			got := wordCountOn(t, ctx)
			if !reflect.DeepEqual(got, want) {
				t.Error("result differs after a speculative reduce race")
			}
			m := ctx.Counters()
			if m[obs.SpeculativeLaunched] == 0 {
				t.Error("no speculative attempt launched for the stalled reduce task")
			}
			if m[obs.SpeculativeWon] == 0 {
				t.Error("the speculative duplicate never won against a 300ms stall")
			}
			if m[obs.TasksFailed] != 0 {
				t.Errorf("TasksFailed = %d, want 0 (a cancelled loser is not a failure)", m[obs.TasksFailed])
			}
			ctx.ReleaseAllShuffles()
			assertNoLeaks(t, ctx)
			assertNoSpillFiles(t, ctx.Conf().SpillDir)
			assertManagersEmptyAfterClose(t, ctx)
		})
	}
}

// TestChaosFetchFaultsRetryBelowTaskLevel: injected fetch failures are
// retried per fetch (never consuming the registration), so the stage
// completes without any task-level retry noise. Fetch faults are pure
// hashes of (output, try): under this seed and rate a quarter of the tries
// fail (11 of them), yet no output fails all fetchRetries+1 of its tries,
// so not one task attempt is retried.
func TestChaosFetchFaultsRetryBelowTaskLevel(t *testing.T) {
	for _, kind := range []TransportKind{TransportInProcess, TransportTCP} {
		t.Run(kind.String(), func(t *testing.T) {
			want := wordCountOn(t, clusterCtx(t, ModeDeca, 4))

			inj := chaos.New(2024)
			inj.FetchFailureRate = 0.25
			ctx := chaosCtx(t, kind, inj, nil)
			got := wordCountOn(t, ctx)
			if !reflect.DeepEqual(got, want) {
				t.Error("result differs under fetch faults")
			}
			if inj.Stats().FetchFailures == 0 {
				t.Fatal("seed injected no fetch failures")
			}
			if n := ctx.Counters()[obs.TaskRetries]; n != 0 {
				t.Errorf("TaskRetries = %d, want 0: every injected fault should be absorbed by a fetch retry", n)
			}
			ctx.ReleaseAllShuffles()
			assertNoLeaks(t, ctx)
			assertManagersEmptyAfterClose(t, ctx)
		})
	}
}

// TestChaosCombinedFaults is the acceptance scenario in engine form: a 5%
// attempt failure rate plus one executor kill, on both transports, must
// still produce the byte-identical answer with retries visible and
// nothing leaked.
func TestChaosCombinedFaults(t *testing.T) {
	for _, kind := range []TransportKind{TransportInProcess, TransportTCP} {
		t.Run(kind.String(), func(t *testing.T) {
			want := wordCountOn(t, clusterCtx(t, ModeDeca, 4))
			inj := chaos.New(31337)
			inj.TaskFailureRate = 0.05
			inj.KillExecutor = 2
			inj.KillAfter = 2
			ctx := chaosCtx(t, kind, inj, func(c *Config) {
				c.MaxExecutorFailures = 2
			})
			got := wordCountOn(t, ctx)
			if !reflect.DeepEqual(got, want) {
				t.Error("combined-fault result differs from fault-free run")
			}
			m := ctx.Counters()
			if m[obs.TaskRetries] == 0 {
				t.Error("no retries recorded")
			}
			if !ctx.Scheduler().Blacklisted(2) {
				t.Error("killed executor not blacklisted")
			}
			ctx.ReleaseAllShuffles()
			assertNoLeaks(t, ctx)
			assertNoSpillFiles(t, ctx.Conf().SpillDir)
			assertManagersEmptyAfterClose(t, ctx)
		})
	}
}

// TestChaosDeterminism: the same seed injects the same task faults on two
// identical runs (hash-based decisions, not shared-RNG draws).
func TestChaosDeterminism(t *testing.T) {
	run := func() (int64, map[string]int64) {
		inj := chaos.New(4242)
		inj.TaskFailureRate = 0.15
		ctx := chaosCtx(t, TransportInProcess, inj, nil)
		got := wordCountOn(t, ctx)
		return inj.Stats().TaskFailures, got
	}
	f1, r1 := run()
	f2, r2 := run()
	if f1 != f2 {
		t.Errorf("same seed injected %d then %d task failures", f1, f2)
	}
	if f1 == 0 {
		t.Error("seed injected nothing")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("same seed produced different results")
	}
}

// TestChaosExhaustedBudgetStillReleasesEverything: when the failure rate
// is total and retries run out, the job fails — but the error names the
// attempts and executor, TasksFailed counts every attempt, and nothing
// leaks.
func TestChaosExhaustedBudgetStillReleasesEverything(t *testing.T) {
	inj := chaos.New(9)
	inj.TaskFailureRate = 1.0
	ctx := chaosCtx(t, TransportInProcess, inj, nil)
	var pairs []decompose.Pair[int64, int64]
	for i := int64(0); i < 500; i++ {
		pairs = append(pairs, KV(i%31, i))
	}
	red := ReduceByKey(Parallelize(ctx, pairs, 8), int64Ops(4),
		func(a, b int64) int64 { return a + b })
	_, err := Collect(red)
	if err == nil {
		t.Fatal("rate-1.0 chaos should fail the job")
	}
	msg := err.Error()
	attempts := ctx.Conf().MaxTaskRetries + 1
	if want := fmt.Sprintf("failed after %d attempts", attempts); !strings.Contains(msg, want) {
		t.Errorf("error %q lacks %q", msg, want)
	}
	ctx.ReleaseAllShuffles()
	assertNoLeaks(t, ctx)
	assertManagersEmptyAfterClose(t, ctx)
}

// TestForeachAttemptExposesRetryEpoch: a Foreach partition whose user
// function dies mid-partition is retried with a distinct, larger
// attempt number, and the retry re-applies f from the first record —
// the at-least-once contract ForeachAttempt lets side-effecting sinks
// dedup against.
func TestForeachAttemptExposesRetryEpoch(t *testing.T) {
	ctx := clusterCtx(t, ModeDeca, 2)
	const parts, per = 4, 10
	var vals []int64
	for i := int64(0); i < parts*per; i++ {
		vals = append(vals, i)
	}
	d := Parallelize(ctx, vals, parts)

	var mu sync.Mutex
	seen := map[int]map[int]int{} // partition -> attempt -> records applied
	err := ForeachAttempt(d, func(p, attempt int, v int64) {
		mu.Lock()
		m := seen[p]
		if m == nil {
			m = map[int]int{}
			seen[p] = m
		}
		m[attempt]++
		n := m[attempt]
		mu.Unlock()
		if p == 2 && attempt == 1 && n == 3 {
			panic(fmt.Errorf("sink crashed mid-partition"))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		m := seen[p]
		if p == 2 {
			if m[1] != 3 || m[2] != per {
				t.Errorf("partition 2 applied %v records per attempt, want 3 on attempt 1 then all %d on attempt 2", m, per)
			}
			continue
		}
		if len(m) != 1 || m[1] != per {
			t.Errorf("partition %d applied %v records per attempt, want %d on attempt 1 only", p, m, per)
		}
	}
	if ctx.Counters()[obs.TaskRetries] == 0 {
		t.Error("the crashed partition left no TaskRetries trace")
	}
}
