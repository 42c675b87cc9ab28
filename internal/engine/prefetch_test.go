package engine

import (
	"io"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"deca/internal/decompose"
	"deca/internal/obs"
	"deca/internal/transport"
)

// prefetchCtx builds a cluster whose reduce fetch pipeline has the given
// shape (set through the unexported fields New fills from the constants):
// several workers and a byte budget small enough that every payload waits
// on it at least once.
func prefetchCtx(t *testing.T, mode Mode, execs, workers int, maxInFlight int64) *Context {
	t.Helper()
	ctx := New(Config{
		NumExecutors: execs,
		Parallelism:  2,
		Mode:         mode,
		PageSize:     4096,
		SpillDir:     t.TempDir(),
	})
	ctx.fetchWorkers, ctx.fetchBudget = workers, maxInFlight
	t.Cleanup(ctx.Close)
	return ctx
}

// TestPrefetchEquivalence sweeps fetch concurrency and in-flight budgets
// (including a 1-byte budget, which degenerates to one payload at a time,
// and the default) and checks the shuffle answer never changes. Run under
// -race this is the cross-executor prefetch data-race test.
func TestPrefetchEquivalence(t *testing.T) {
	var pairs []decompose.Pair[int64, int64]
	want := map[int64]int64{}
	for i := int64(0); i < 600; i++ {
		pairs = append(pairs, KV(i%37, i))
		want[i%37] += i
	}
	for _, mode := range []Mode{ModeSpark, ModeDeca} {
		for _, workers := range []int{1, 4, 8} {
			for _, budget := range []int64{1, 4096, maxFetchBytesInFlight} {
				ctx := prefetchCtx(t, mode, 4, workers, budget)
				red := ReduceByKey(Parallelize(ctx, pairs, 8), int64Ops(4),
					func(a, b int64) int64 { return a + b })
				got, err := CollectMap(red)
				if err != nil {
					t.Fatalf("mode=%v workers=%d budget=%d: %v", mode, workers, budget, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("mode=%v workers=%d budget=%d: wrong aggregation", mode, workers, budget)
				}
			}
		}
	}
}

// TestPrefetchConcurrentActions drives concurrent actions over shared
// shuffle outputs with an aggressive prefetch config; under -race this
// exercises worker/merger/scheduler interleavings.
func TestPrefetchConcurrentActions(t *testing.T) {
	ctx := prefetchCtx(t, ModeDeca, 4, 8, 1)
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
				t.Error("concurrent aggregation mismatch under prefetch")
			}
		}()
	}
	wg.Wait()
}

// TestZeroCopyMergeEquivalence compares Deca's stage → fold reduce merge
// against the drain/re-Put merge the Object sinks run, for both sink
// shapes on a multi-executor cluster.
func TestZeroCopyMergeEquivalence(t *testing.T) {
	var pairs []decompose.Pair[int64, int64]
	for i := int64(0); i < 400; i++ {
		pairs = append(pairs, KV(i%23, i))
	}
	newCtx := func(mode Mode) *Context {
		ctx := New(Config{
			NumExecutors: 4,
			Parallelism:  2,
			Mode:         mode,
			PageSize:     4096,
			SpillDir:     t.TempDir(),
		})
		t.Cleanup(ctx.Close)
		return ctx
	}

	// ReduceByKey.
	red := func(mode Mode) map[int64]int64 {
		got, err := CollectMap(ReduceByKey(Parallelize(newCtx(mode), pairs, 8), int64Ops(4),
			func(a, b int64) int64 { return a + b }))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if !reflect.DeepEqual(red(ModeDeca), red(ModeSpark)) {
		t.Error("ReduceByKey: zero-copy merge changes the answer")
	}

	// GroupByKey (value lists compared as sorted multisets).
	grp := func(mode Mode) map[int64][]int64 {
		got, err := CollectMap(GroupByKey(Parallelize(newCtx(mode), pairs, 8), int64Ops(4)))
		if err != nil {
			t.Fatal(err)
		}
		for _, vs := range got {
			sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		}
		return got
	}
	if !reflect.DeepEqual(grp(ModeDeca), grp(ModeSpark)) {
		t.Error("GroupByKey: zero-copy merge changes the answer")
	}
}

// TestZeroCopyMergeReleasesAllPages runs grouped and reduced Deca shuffles
// with zero-copy merge on a multi-executor cluster and checks release
// returns every adopted page on every executor's manager.
func TestZeroCopyMergeReleasesAllPages(t *testing.T) {
	ctx := prefetchCtx(t, ModeDeca, 4, 4, 1)
	var pairs []decompose.Pair[int64, int64]
	for i := int64(0); i < 300; i++ {
		pairs = append(pairs, KV(i%17, i))
	}
	g := GroupByKey(Parallelize(ctx, pairs, 8), int64Ops(4))
	if _, err := CollectMap(g); err != nil {
		t.Fatal(err)
	}
	r := ReduceByKey(Parallelize(ctx, pairs, 8), int64Ops(4), addI64)
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	ctx.ReleaseShuffle(g.ID())
	ctx.ReleaseShuffle(r.ID())
	if in := ctx.Counters()[obs.PageBytesInUse]; in != 0 {
		t.Errorf("zero-copy merged shuffles leaked %d bytes across executors", in)
	}
}

// TestShuffleRedrainsWithSpills runs GroupByKey and ReduceByKey under a
// spill threshold small enough that map outputs carry spill runs into the
// zero-copy merge, then drains each memoized output twice: both actions
// must see every record, the spilled ones included.
func TestShuffleRedrainsWithSpills(t *testing.T) {
	newCtx := func(t *testing.T) *Context {
		ctx := New(Config{
			NumExecutors:          2,
			Parallelism:           2,
			Mode:                  ModeDeca,
			PageSize:              1024,
			SpillDir:              t.TempDir(),
			ShuffleSpillThreshold: 256,
		})
		t.Cleanup(ctx.Close)
		return ctx
	}
	var pairs []decompose.Pair[int64, int64]
	want := map[int64]int64{}
	for i := int64(0); i < 2000; i++ {
		pairs = append(pairs, KV(i%101, i))
		want[i%101] += i
	}
	spilled := func(t *testing.T, ctx *Context) {
		t.Helper()
		if ctx.Counters()[obs.ShuffleSpillBytes] == 0 {
			t.Fatal("test needs spills to exercise transferred runs")
		}
	}

	t.Run("GroupByKey", func(t *testing.T) {
		ctx := newCtx(t)
		grouped := GroupByKey(Parallelize(ctx, pairs, 8), int64Ops(4))
		drain := func() []decompose.Pair[int64, []int64] {
			got, err := Collect(grouped)
			if err != nil {
				t.Fatal(err)
			}
			for _, kv := range got {
				sort.Slice(kv.Value, func(i, j int) bool { return kv.Value[i] < kv.Value[j] })
			}
			sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
			return got
		}
		first := drain()
		values := 0
		for _, kv := range first {
			values += len(kv.Value)
		}
		if len(first) != len(want) || values != len(pairs) {
			t.Fatalf("first drain yielded %d keys and %d values, want %d and %d", len(first), values, len(want), len(pairs))
		}
		spilled(t, ctx)
		if second := drain(); !reflect.DeepEqual(first, second) {
			t.Fatalf("second drain differs: %d keys then %d", len(first), len(second))
		}
	})

	t.Run("ReduceByKey", func(t *testing.T) {
		ctx := newCtx(t)
		reduced := ReduceByKey(Parallelize(ctx, pairs, 8), int64Ops(4), addI64)
		first := collectByKey(t, reduced)
		got := map[int64]int64{}
		for _, kv := range first {
			got[kv.Key] = kv.Value
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("first drain yielded %d keys that differ from the reference's %d", len(got), len(want))
		}
		spilled(t, ctx)
		if second := collectByKey(t, reduced); !reflect.DeepEqual(first, second) {
			t.Fatalf("second drain differs: %d keys then %d", len(first), len(second))
		}
	})
}

// countingReleasable counts Release calls (a stand-in for a shuffle
// buffer inside a transport payload).
type countingReleasable struct{ released atomic.Int32 }

func (c *countingReleasable) Release() { c.released.Add(1) }

// TestFetchPipelineMissingAndAbort probes the pipeline directly: a hole
// in the registered outputs surfaces as ok=false at the right index, and
// shutdown after an early abort releases exactly the fetched copies that
// were never consumed — never the consumed ones, never twice, and never
// the registered sources, which stay pinned for the stage's verdict.
func TestFetchPipelineMissingAndAbort(t *testing.T) {
	ctx := New(Config{NumExecutors: 1})
	defer ctx.Close()
	ex := ctx.Executors()[0]

	const M = 6
	sources := make([]*countingReleasable, M)
	for m := 0; m < M; m++ {
		if m == 3 {
			continue // the hole
		}
		sources[m] = &countingReleasable{}
		frame := []byte{byte(m)}
		if err := ctx.plane.Register(
			transport.MapOutputID{Shuffle: 9, MapTask: m, Reduce: 0},
			transport.Payload{Data: sources[m], SrcExecutor: 0, Bytes: 10, Encode: func(w io.Writer) error {
				_, err := w.Write(frame)
				return err
			}}); err != nil {
			t.Fatal(err)
		}
	}

	// Every fetch decodes a private copy; copies[m] is map task m's.
	var copies [M]countingReleasable
	var fetched [M]atomic.Bool
	open := func(r transport.FrameReader, size int64) (transport.Decoded, error) {
		m, err := r.ReadByte()
		if err != nil {
			return transport.Decoded{}, err
		}
		fetched[m].Store(true)
		return transport.Decoded{Data: &copies[m], MemBytes: size}, nil
	}
	fp := ctx.startFetchPipeline(9, 0, M, ex, open)
	for m := 0; m < 3; m++ {
		res := fp.wait(m)
		if !res.ok {
			t.Fatalf("output %d should be present", m)
		}
		res.pl.Data.(*countingReleasable).Release() // consumer owns it
		fp.merged(res.pl)
	}
	if res := fp.wait(3); res.ok {
		t.Fatal("output 3 was never registered; wait must report the hole")
	}
	// Abort as the exchange's error path does; outputs 4 and 5 may or may
	// not have been prefetched — a copy that was must end up released
	// exactly once.
	fp.shutdown()
	for m := range copies {
		want := int32(0)
		if fetched[m].Load() {
			want = 1
		}
		if got := copies[m].released.Load(); got != want {
			t.Errorf("copy of output %d (fetched=%v) released %d times, want %d", m, fetched[m].Load(), got, want)
		}
	}
	if n := ctx.Counters()[obs.ShuffleOutputsPinned]; n != M-1 {
		t.Errorf("%d outputs still registered, want all %d: a fetch never consumes its source", n, M-1)
	}
	for m, src := range sources {
		if src != nil && src.released.Load() != 0 {
			t.Errorf("registered source %d released by the pipeline", m)
		}
	}
	if ctx.Counters()[obs.LocalShuffleFetches] == 0 {
		t.Error("expected locality accounting on prefetched outputs")
	}
}
