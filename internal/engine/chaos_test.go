package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"deca/internal/chaos"
	"deca/internal/decompose"
	"deca/internal/obs"
	"deca/internal/transport"
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
	if in := ctx.Counters()[obs.PageBytesInUse]; in != 0 {
		t.Errorf("%d bytes of pages leaked across executors", in)
	}
	for _, ex := range ctx.Executors() {
		if st := ex.Memory().Counters(); st[obs.PageGroupsLive] != 0 {
			t.Errorf("executor %d still holds %d live groups", ex.ID(), st[obs.PageGroupsLive])
		}
	}
	if n := ctx.Counters()[obs.ShuffleOutputsPinned]; n != 0 {
		t.Errorf("%d payloads still registered with the transport", n)
	}
}

// assertManagersEmptyAfterClose closes the context, after which no
// executor's manager may hold a byte in use: every page went back to the
// reserve. It runs after every other ledger check, since Close itself
// deletes spill files and releases what the job left behind.
func assertManagersEmptyAfterClose(t *testing.T, ctx *Context) {
	t.Helper()
	ctx.Close()
	for _, ex := range ctx.Executors() {
		if in := ex.Memory().Counters()[obs.PageBytesInUse]; in != 0 {
			t.Errorf("executor %d's manager after Close: %d bytes in use, want 0", ex.ID(), in)
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
			// With no kill configured the injector's decision is a pure
			// function of the attempt, so replaying it over every attempt
			// the run started gives the faults it fired.
			ctx.drainLocalEvents()
			if d := ctx.view.Dropped(); d != 0 {
				t.Fatalf("%d events dropped; the replay would undercount", d)
			}
			var injected int64
			for _, e := range ctx.view.Events() {
				if e.Kind == obs.KindTaskStart && inj.BeforeAttempt(int(e.Stage), int(e.Part), int(e.Attempt), int(e.Exec)) != nil {
					injected++
				}
			}
			if injected == 0 {
				t.Fatal("seed injected no failures; the test proves nothing")
			}
			m := ctx.Counters()
			if m[obs.TaskRetries] == 0 {
				t.Error("recovery left no TaskRetries trace")
			}
			if m[obs.TasksFailed] != injected {
				t.Errorf("TasksFailed = %d, injected = %d", m[obs.TasksFailed], injected)
			}
			ctx.ReleaseAllShuffles()
			assertNoLeaks(t, ctx)
			assertNoSpillFiles(t, ctx.conf.SpillDir)
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
			if !ctx.cluster.Blacklisted(1) {
				t.Error("killed executor was never blacklisted")
			}
			if got := ctx.Counters()[obs.ExecutorsBlacklisted]; got != 1 {
				t.Errorf("ExecutorsBlacklisted = %d, want 1", got)
			}
			// Placement must avoid the dead executor, keeping healthy homes.
			for p := 0; p < 8; p++ {
				ex := ctx.executorFor(p)
				if ex.ID() == 1 {
					t.Errorf("partition %d still placed on the dead executor", p)
				}
				if p%4 != 1 && ex.ID() != p%4 {
					t.Errorf("partition %d moved to %d despite healthy home", p, ex.ID())
				}
			}
			ctx.ReleaseAllShuffles()
			assertNoLeaks(t, ctx)
			assertNoSpillFiles(t, ctx.conf.SpillDir)
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
	d.Persist(Storage[int64]{Codec: decompose.Int64Codec{}})
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

	if !ctx.cluster.Blacklist(1) {
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
		if ctx.executorFor(p).ID() == 1 {
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
			var fired atomic.Int64
			inj.FailAfterMatch = func(stage, part, attempt, exec int) bool {
				hit := stage == wcMapStage && attempt == 1
				if hit {
					fired.Add(1)
				}
				return hit
			}
			ctx := chaosCtx(t, kind, inj, func(c *Config) {
				// Tiny threshold: the displaced outputs carry spill runs too.
				c.ShuffleSpillThreshold = 256
				c.PageSize = 1024
			})
			// Between the stages every output is pinned once: each second
			// registration released the first (8 map tasks x 5 reducers).
			var pinnedAfterMaps int64
			ctx.testAfterMapStage = func(transport.ShuffleID) {
				pinnedAfterMaps = ctx.Counters()[obs.ShuffleOutputsPinned]
			}
			got := wordCountOn(t, ctx)
			if !reflect.DeepEqual(got, want) {
				t.Error("result differs after displacement retries")
			}
			if fired.Load() == 0 {
				t.Fatal("no post-registration failures were injected")
			}
			// Every map task ran at least twice and re-registered.
			if got := ctx.Counters()[obs.TaskRetries]; got < 8 {
				t.Errorf("TaskRetries = %d, want ≥ 8 (one per map task)", got)
			}
			if pinnedAfterMaps != 8*5 {
				t.Errorf("%d outputs pinned after the map stage, want 40 (the displaced copies released)", pinnedAfterMaps)
			}
			ctx.ReleaseAllShuffles()
			assertNoLeaks(t, ctx)
			assertNoSpillFiles(t, ctx.conf.SpillDir)
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
			var fired atomic.Int64
			inj.MergeFailMatch = func(stage, part, attempt, consumed int) bool {
				hit := stage == wcReduceStage && attempt == 1 && consumed == 4
				if hit {
					fired.Add(1)
				}
				return hit
			}
			ctx := chaosCtx(t, kind, inj, nil)
			got := wordCountOn(t, ctx)
			if !reflect.DeepEqual(got, want) {
				t.Error("result differs after mid-merge reduce failures")
			}
			deaths := fired.Load()
			if deaths == 0 {
				t.Fatal("no mid-merge failure injected; the test proves nothing")
			}
			m := ctx.Counters()
			if m[obs.TaskRetries] < deaths {
				t.Errorf("TaskRetries = %d, want >= %d (one retry per injected merge death)",
					m[obs.TaskRetries], deaths)
			}
			if n := m[obs.LineageMapReruns]; n != 0 {
				t.Errorf("LineageMapReruns = %d, want 0 (sources stayed pinned; no repair needed)", n)
			}
			ctx.ReleaseAllShuffles()
			assertNoLeaks(t, ctx)
			assertNoSpillFiles(t, ctx.conf.SpillDir)
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
			if ctx.Counters()[obs.ShuffleFetchFailures] == 0 {
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

// TestFetchFaultLeavesTheOutputPinned: the fetch loop consults the
// injector before the plane, so on a 2-executor TCP cluster an injected
// fetch failure leaves the output it hit pinned — every merge after the
// fault still sees all 8 x 5 map outputs counted — and the retry fetches
// it: the answer is the fault-free run's.
func TestFetchFaultLeavesTheOutputPinned(t *testing.T) {
	want := wordCountOn(t, clusterCtx(t, ModeDeca, 2))
	inj := chaos.New(1)
	inj.FailFetchN = 1
	var ctx *Context
	var probes atomic.Int64
	inj.MergeFailMatch = func(stage, part, attempt, consumed int) bool {
		if ctx.Counters()[obs.ShuffleFetchFailures] == 1 {
			probes.Add(1)
			if n := ctx.Counters()[obs.ShuffleOutputsPinned]; n != 8*5 {
				t.Errorf("%d outputs pinned after the fault, want 40", n)
			}
		}
		return false
	}
	ctx = chaosCtx(t, TransportTCP, inj, func(c *Config) { c.NumExecutors = 2 })
	if got := wordCountOn(t, ctx); !reflect.DeepEqual(got, want) {
		t.Error("result differs after an injected fetch failure")
	}
	if n := ctx.Counters()[obs.ShuffleFetchFailures]; n != 1 || probes.Load() == 0 {
		t.Fatalf("%d fetch failures injected and %d merges after it, want 1 and some", n, probes.Load())
	}
	if n := ctx.Counters()[obs.TaskRetries]; n != 0 {
		t.Errorf("TaskRetries = %d, want 0: the fetch retry absorbs the fault", n)
	}
	ctx.ReleaseAllShuffles()
	assertNoLeaks(t, ctx)
}

// TestFetchFailureIsCountedAndTraced: on both single-process planes of a
// 2-executor cluster, one injected fetch failure is one ShuffleFetchFailures
// row and one fetch_failed instant in the trace, and the retry makes the
// answer the fault-free run's.
func TestFetchFailureIsCountedAndTraced(t *testing.T) {
	want := wordCountOn(t, clusterCtx(t, ModeDeca, 2))
	for _, kind := range []TransportKind{TransportInProcess, TransportTCP} {
		t.Run(kind.String(), func(t *testing.T) {
			inj := chaos.New(1)
			inj.FailFetchN = 1
			traceOut := filepath.Join(t.TempDir(), "trace.json")
			ctx := chaosCtx(t, kind, inj, func(c *Config) {
				c.NumExecutors = 2
				c.TraceOut = traceOut
			})
			if got := wordCountOn(t, ctx); !reflect.DeepEqual(got, want) {
				t.Error("result differs after an injected fetch failure")
			}
			if n := ctx.Counters()[obs.ShuffleFetchFailures]; n != 1 {
				t.Errorf("ShuffleFetchFailures = %d, want 1", n)
			}
			ctx.Close()
			raw, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatalf("TraceOut not written: %v", err)
			}
			var trace []map[string]any
			if err := json.Unmarshal(raw, &trace); err != nil {
				t.Fatalf("TraceOut is not trace-event JSON: %v", err)
			}
			var failed int
			for _, ev := range trace {
				if ev["name"] == "fetch_failed" && ev["ph"] == "i" {
					failed++
				}
			}
			if failed != 1 {
				t.Errorf("the trace holds %d fetch_failed instants, want 1", failed)
			}
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
			if !ctx.cluster.Blacklisted(2) {
				t.Error("killed executor not blacklisted")
			}
			ctx.ReleaseAllShuffles()
			assertNoLeaks(t, ctx)
			assertNoSpillFiles(t, ctx.conf.SpillDir)
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
		return ctx.Counters()[obs.TasksFailed], got
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
	attempts := ctx.conf.MaxTaskRetries + 1
	if want := fmt.Sprintf("failed after %d attempts", attempts); !strings.Contains(msg, want) {
		t.Errorf("error %q lacks %q", msg, want)
	}
	ctx.ReleaseAllShuffles()
	assertNoLeaks(t, ctx)
	assertManagersEmptyAfterClose(t, ctx)
}
