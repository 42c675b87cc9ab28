package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"deca/internal/cache"
	"deca/internal/decompose"
	"deca/internal/obs"
	"deca/internal/shuffle"
	"deca/internal/transport"
)

func clusterCtx(t *testing.T, mode Mode, execs int) *Context {
	t.Helper()
	ctx := New(Config{
		NumExecutors: execs,
		Parallelism:  2,
		Mode:         mode,
		PageSize:     4096,
		SpillDir:     t.TempDir(),
	})
	t.Cleanup(ctx.Close)
	return ctx
}

// wordCountOn runs a small WC-shaped job (FlatMap + ReduceByKey) and
// returns the aggregated counts.
func wordCountOn(t *testing.T, ctx *Context) map[string]int64 {
	t.Helper()
	lines := []string{
		"the quick brown fox", "jumps over the lazy dog",
		"the dog barks", "quick quick fox",
	}
	var repeated []string
	for i := 0; i < 50; i++ {
		repeated = append(repeated, lines[i%len(lines)])
	}
	d := Parallelize(ctx, repeated, 8)
	words := FlatMap(d, func(line string, emit func(decompose.Pair[string, int64])) {
		for _, w := range strings.Fields(line) {
			emit(KV(w, int64(1)))
		}
	})
	counts := ReduceByKey(words, stringOps(5), func(a, b int64) int64 { return a + b })
	got, err := CollectMap(counts)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// recordingTransport remembers what was registered with it.
type recordingTransport struct {
	transport.Transport
	mu       sync.Mutex
	payloads []transport.Payload
}

func (r *recordingTransport) Register(id transport.MapOutputID, p transport.Payload) (transport.Payload, bool, error) {
	r.mu.Lock()
	r.payloads = append(r.payloads, p)
	r.mu.Unlock()
	return r.Transport.Register(id, p)
}

// TestMapOutputsRegisterSealed: a map output is registered without its hash
// index — nothing probes it again — so between the stages of a 2-executor
// WordCount every payload weighs its pages and the managers hold the pages
// and nothing else: the tables went back at registration, not at commit.
func TestMapOutputsRegisterSealed(t *testing.T) {
	ctx := clusterCtx(t, ModeDeca, 2)
	rec := &recordingTransport{Transport: ctx.trans}
	ctx.trans = rec
	var pages int64
	ctx.testAfterMapStage = func(transport.ShuffleID) {
		keys := 0
		for _, pl := range rec.payloads {
			b := pl.Data.(*shuffle.DecaAgg[string, int64])
			_, footprint := b.PageOccupancy()
			if pl.MemBytes != footprint || b.SizeBytes() != footprint {
				t.Errorf("a map output of %d keys registered as %d bytes and sizes itself %d, want its page footprint %d",
					b.Len(), pl.MemBytes, b.SizeBytes(), footprint)
			}
			pages += footprint
			keys += b.Len()
		}
		if len(rec.payloads) != 8*5 || keys == 0 || pages == 0 {
			t.Fatalf("%d map outputs of %d keys on %d bytes of pages, want 8 x 5 filled ones", len(rec.payloads), keys, pages)
		}
		if got := ctx.MemoryInUse(); got != pages {
			t.Errorf("the managers hold %d bytes between the stages, want the map outputs' pages (%d) and no table", got, pages)
		}
	}
	if got := wordCountOn(t, ctx); pages == 0 || got["the"] != 38 {
		t.Errorf("the job counted %d \"the\" (want 38) and checked %d bytes of map outputs", got["the"], pages)
	}
}

func TestMultiExecutorEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeSpark, ModeSparkSer, ModeDeca} {
		t.Run(mode.String(), func(t *testing.T) {
			want := wordCountOn(t, clusterCtx(t, mode, 1))
			for _, n := range []int{2, 4, 8} {
				got := wordCountOn(t, clusterCtx(t, mode, n))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("NumExecutors=%d result differs from single-executor run", n)
				}
			}
		})
	}
}

func TestMultiExecutorGroupAndSort(t *testing.T) {
	for _, mode := range []Mode{ModeSpark, ModeDeca} {
		t.Run(mode.String(), func(t *testing.T) {
			var pairs []decompose.Pair[int64, int64]
			for i := int64(0); i < 400; i++ {
				pairs = append(pairs, KV(i%23, i))
			}
			single := clusterCtx(t, mode, 1)
			multi := clusterCtx(t, mode, 4)

			wantG, err := CollectMap(GroupByKey(Parallelize(single, pairs, 8), int64Ops(4)))
			if err != nil {
				t.Fatal(err)
			}
			gotG, err := CollectMap(GroupByKey(Parallelize(multi, pairs, 8), int64Ops(4)))
			if err != nil {
				t.Fatal(err)
			}
			if len(gotG) != len(wantG) {
				t.Fatalf("group keys = %d, want %d", len(gotG), len(wantG))
			}
			for k, vs := range gotG {
				sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
				ws := wantG[k]
				sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
				if !reflect.DeepEqual(vs, ws) {
					t.Errorf("key %d: group mismatch", k)
				}
			}

			wantS, err := Collect(SortByKey(Parallelize(single, pairs, 8), int64Ops(4)))
			if err != nil {
				t.Fatal(err)
			}
			gotS, err := Collect(SortByKey(Parallelize(multi, pairs, 8), int64Ops(4)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotS, wantS) {
				t.Error("sorted output differs between 1 and 4 executors")
			}
		})
	}
}

func TestCrossExecutorShuffleMetrics(t *testing.T) {
	ctx := clusterCtx(t, ModeDeca, 4)
	wordCountOn(t, ctx)

	m := ctx.Counters()
	if m[obs.RemoteShuffleFetches] == 0 {
		t.Error("expected cross-executor map-output fetches with 4 executors")
	}
	if m[obs.RemoteShuffleBytes] == 0 {
		t.Error("expected nonzero remote shuffle volume")
	}
	// Per-executor counters must sum to the cluster totals.
	var tasks, local, remote int64
	for _, em := range ctx.ExecCounters() {
		tasks += em[obs.TasksRun]
		local += em[obs.LocalShuffleFetches]
		remote += em[obs.RemoteShuffleFetches]
	}
	if tasks != m[obs.TasksRun] {
		t.Errorf("per-executor TasksRun sums to %d, cluster says %d", tasks, m[obs.TasksRun])
	}
	if local != m[obs.LocalShuffleFetches] || remote != m[obs.RemoteShuffleFetches] {
		t.Errorf("fetch sums (%d local, %d remote) != cluster (%d, %d)",
			local, remote, m[obs.LocalShuffleFetches], m[obs.RemoteShuffleFetches])
	}
	// Every (map task, reduce partition) output is fetched exactly once:
	// M=8 map partitions × R=5 reduce partitions.
	if total := local + remote; total != 8*5 {
		t.Errorf("fetched %d map outputs, want 40", total)
	}
	ts := ctx.Transport().Stats()
	if ts.RemoteFetches != uint64(remote) || ts.LocalFetches != uint64(local) {
		t.Errorf("transport stats %+v disagree with engine metrics", ts)
	}
}

func TestBudgetSplitsAcrossExecutors(t *testing.T) {
	const budget = 10_000 // not divisible by 3: remainder goes to executor 0
	ctx := New(Config{NumExecutors: 3, MemoryBudget: budget, StorageFraction: 0.5})
	defer ctx.Close()
	var memSum int64
	for _, ex := range ctx.Executors() {
		memSum += ex.Memory().Limit()
		if ex.CacheManager().Budget() != int64(float64(ex.Memory().Limit())*0.5) {
			t.Errorf("executor %d cache budget %d != half of %d",
				ex.ID(), ex.CacheManager().Budget(), ex.Memory().Limit())
		}
	}
	if memSum != budget {
		t.Errorf("per-executor budgets sum to %d, want %d", memSum, budget)
	}

	// Degenerate split (budget < executors): shares floor at 1 byte, never
	// 0 — a zero limit would mean "unlimited" to the managers.
	tiny := New(Config{NumExecutors: 8, MemoryBudget: 3})
	defer tiny.Close()
	for _, ex := range tiny.Executors() {
		if ex.Memory().Limit() < 1 || ex.CacheManager().Budget() < 1 {
			t.Errorf("executor %d: degenerate budget left limit %d / cache %d unlimited",
				ex.ID(), ex.Memory().Limit(), ex.CacheManager().Budget())
		}
	}
}

func TestCacheBlocksAreExecutorLocal(t *testing.T) {
	ctx := clusterCtx(t, ModeDeca, 3)
	d := Generate(ctx, 6, func(p int, emit func(int64)) {
		for i := int64(0); i < 10; i++ {
			emit(int64(p)*100 + i)
		}
	})
	d.Persist(StorageDeca, Storage[int64]{Codec: decompose.Int64Codec{}})
	if err := Materialize(d); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < d.Partitions(); p++ {
		for _, ex := range ctx.Executors() {
			want := ex.ID() == p%3
			got := ex.CacheManager().Contains(cache.BlockID{Dataset: d.ID(), Partition: p})
			if got != want {
				t.Errorf("partition %d on executor %d: present=%v, want %v", p, ex.ID(), got, want)
			}
		}
	}
	d.Unpersist()
	for _, ex := range ctx.Executors() {
		if ex.CacheManager().Contains(cache.BlockID{Dataset: d.ID(), Partition: 0}) {
			t.Errorf("executor %d still holds blocks after Unpersist", ex.ID())
		}
	}
}

func TestRunTasksJoinsAllErrors(t *testing.T) {
	// MaxTaskRetries -1 disables retries: each task fails exactly once and
	// the legacy error-joining semantics apply unchanged.
	ctx := New(Config{
		NumExecutors:   2,
		Parallelism:    2,
		Mode:           ModeSpark,
		MaxTaskRetries: -1,
	})
	t.Cleanup(ctx.Close)
	err := RunPartitions(ctx, 6, func(p int) error {
		if p%2 == 1 {
			return fmt.Errorf("boom-%d", p)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected joined error")
	}
	for _, want := range []string{"boom-1", "boom-3", "boom-5"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
	// The task error names its attempt count and final executor.
	if !strings.Contains(err.Error(), "failed after 1 attempts") ||
		!strings.Contains(err.Error(), "on executor 1") {
		t.Errorf("error lacks attempt/executor context: %v", err)
	}
	if got := ctx.Counters()[obs.TasksFailed]; got != 3 {
		t.Errorf("TasksFailed = %d, want 3", got)
	}
	var perExec int64
	for _, em := range ctx.ExecCounters() {
		perExec += em[obs.TasksFailed]
	}
	if perExec != 3 {
		t.Errorf("per-executor TasksFailed sums to %d, want 3", perExec)
	}
}

// TestRunTasksRetriesCountPerAttempt: with the default retry budget a
// deterministic failure is attempted MaxTaskRetries+1 times, TasksFailed
// counts once per attempt, and TaskRetries counts the re-launches.
func TestRunTasksRetriesCountPerAttempt(t *testing.T) {
	ctx := clusterCtx(t, ModeSpark, 2)
	var calls atomic.Int64
	err := RunPartitions(ctx, 1, func(int) error {
		calls.Add(1)
		return fmt.Errorf("always-boom")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	wantAttempts := int64(ctx.Conf().MaxTaskRetries + 1)
	if got := calls.Load(); got != wantAttempts {
		t.Errorf("task body ran %d times, want %d", got, wantAttempts)
	}
	m := ctx.Counters()
	if got := m[obs.TasksFailed]; got != wantAttempts {
		t.Errorf("TasksFailed = %d, want %d (once per attempt)", got, wantAttempts)
	}
	if got := m[obs.TaskRetries]; got != wantAttempts-1 {
		t.Errorf("TaskRetries = %d, want %d", got, wantAttempts-1)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("failed after %d attempts", wantAttempts)) {
		t.Errorf("error lacks attempt count: %v", err)
	}
}

// TestRunTasksRetryRecovers: a task that fails on its first two attempts
// succeeds within the budget and the stage reports no error.
func TestRunTasksRetryRecovers(t *testing.T) {
	ctx := clusterCtx(t, ModeSpark, 2)
	var calls atomic.Int64
	err := RunPartitions(ctx, 4, func(p int) error {
		if p == 2 && calls.Add(1) <= 2 {
			return fmt.Errorf("flaky-boom")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry should have recovered: %v", err)
	}
	m := ctx.Counters()
	if got := m[obs.TaskRetries]; got != 2 {
		t.Errorf("TaskRetries = %d, want 2", got)
	}
	if got := m[obs.TasksFailed]; got != 2 {
		t.Errorf("TasksFailed = %d, want 2", got)
	}
	if got := m[obs.TasksRun]; got != 4+2 {
		t.Errorf("TasksRun = %d, want 6 (4 tasks + 2 retries)", got)
	}
}

func TestMultiExecutorShuffleReleaseFreesAllHeaps(t *testing.T) {
	ctx := clusterCtx(t, ModeDeca, 4)
	var pairs []decompose.Pair[int64, int64]
	for i := int64(0); i < 300; i++ {
		pairs = append(pairs, KV(i%17, i))
	}
	red := ReduceByKey(Parallelize(ctx, pairs, 8), int64Ops(4), func(a, b int64) int64 { return a + b })
	if _, err := Collect(red); err != nil {
		t.Fatal(err)
	}
	ctx.ReleaseShuffle(red.ID())
	if in := ctx.MemoryInUse(); in != 0 {
		t.Errorf("pages leaked across executors after release: %d bytes", in)
	}
}

// TestConcurrentActionsAcrossExecutors drives concurrent jobs over a
// shared shuffle output on a 4-executor cluster; run under -race it
// exercises the cross-executor fetch path for data races.
func TestConcurrentActionsAcrossExecutors(t *testing.T) {
	ctx := clusterCtx(t, ModeDeca, 4)
	var pairs []decompose.Pair[int64, int64]
	want := map[int64]int64{}
	for i := int64(0); i < 500; i++ {
		pairs = append(pairs, KV(i%31, i))
		want[i%31] += i
	}
	red := ReduceByKey(Parallelize(ctx, pairs, 8), int64Ops(8), func(a, b int64) int64 { return a + b })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := CollectMap(red)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("concurrent aggregation mismatch")
			}
		}()
	}
	wg.Wait()
}

// TestShuffleErrorPathReleasesBuffers forces the map stage to fail (spill
// into a path that is a file, not a directory) and checks that no
// executor leaks pages: map buffers created before the failure, and any
// outputs already registered with the transport, must all be released.
func TestShuffleErrorPathReleasesBuffers(t *testing.T) {
	dir := t.TempDir()
	notADir := filepath.Join(dir, "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := New(Config{
		NumExecutors:          4,
		Parallelism:           2,
		Mode:                  ModeDeca,
		PageSize:              1024,
		SpillDir:              filepath.Join(notADir, "sub"), // spills fail
		ShuffleSpillThreshold: 256,
	})
	defer ctx.Close()
	var pairs []decompose.Pair[int64, int64]
	for i := int64(0); i < 2000; i++ {
		pairs = append(pairs, KV(i%101, i))
	}
	red := ReduceByKey(Parallelize(ctx, pairs, 8), int64Ops(4), func(a, b int64) int64 { return a + b })
	if _, err := Collect(red); err == nil {
		t.Fatal("expected spill failure")
	}
	if in := ctx.MemoryInUse(); in != 0 {
		t.Errorf("failed shuffle leaked %d bytes of pages across executors", in)
	}
	if ctx.Counters()[obs.TasksFailed] == 0 {
		t.Error("expected failed tasks to be counted")
	}
}
