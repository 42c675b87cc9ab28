package engine

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"deca/internal/cache"
	"deca/internal/decompose"
	"deca/internal/obs"
	"deca/internal/serial"
	"deca/internal/shuffle"
)

func testCtx(t *testing.T, mode Mode) *Context {
	t.Helper()
	ctx := New(Config{
		Parallelism: 4,
		Mode:        mode,
		PageSize:    4096,
		SpillDir:    t.TempDir(),
	})
	t.Cleanup(ctx.Close)
	return ctx
}

func int64Ops(parts int) PairOps[int64, int64] {
	return PairOps[int64, int64]{
		Key:        shuffle.Int64Key(),
		KeySer:     serial.Int64{},
		ValSer:     serial.Int64{},
		KeyCodec:   decompose.Int64Codec{},
		ValCodec:   decompose.Int64Codec{},
		Partitions: parts,
	}
}

func stringOps(parts int) PairOps[string, int64] {
	return PairOps[string, int64]{
		Key:        shuffle.StringKey(),
		KeySer:     serial.Str{},
		ValSer:     serial.Int64{},
		KeyCodec:   decompose.StringCodec{},
		ValCodec:   decompose.Int64Codec{},
		Partitions: parts,
	}
}

func TestParallelizeCollect(t *testing.T) {
	ctx := testCtx(t, ModeSpark)
	data := make([]int, 100)
	for i := range data {
		data[i] = i
	}
	d := Parallelize(ctx, data, 7)
	if d.Partitions() != 7 {
		t.Errorf("Partitions = %d", d.Partitions())
	}
	got, err := Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, data) {
		t.Errorf("Collect returned %d records, order/content mismatch", len(got))
	}
}

func TestParallelizeSmallData(t *testing.T) {
	ctx := testCtx(t, ModeSpark)
	d := Parallelize(ctx, []int{1, 2}, 8)
	if d.Partitions() != 2 {
		t.Errorf("partitions should clamp to len(data): %d", d.Partitions())
	}
	empty := Parallelize(ctx, []int(nil), 4)
	n, err := Count(empty)
	if err != nil || n != 0 {
		t.Errorf("empty Count = %d, %v", n, err)
	}
}

func TestMapFilterFlatMapChain(t *testing.T) {
	ctx := testCtx(t, ModeSpark)
	d := Parallelize(ctx, []int{1, 2, 3, 4, 5, 6}, 3)
	doubled := Map(d, func(v int) int { return v * 2 })
	// A filter is a FlatMap that emits zero or one record.
	evens := FlatMap(doubled, func(v int, emit func(int)) {
		if v%4 == 0 {
			emit(v)
		}
	})
	expanded := FlatMap(evens, func(v int, emit func(int)) {
		emit(v)
		emit(v + 1)
	})
	got, err := Collect(expanded)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 5, 8, 9, 12, 13}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestMapPartitions(t *testing.T) {
	ctx := testCtx(t, ModeSpark)
	d := Parallelize(ctx, []int{1, 2, 3, 4}, 2)
	sums := MapPartitions(d, func(p int, in Seq[int], emit func(int)) {
		total := 0
		in(func(v int) bool { total += v; return true })
		emit(total)
	})
	got, err := Collect(sums)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0]+got[1] != 10 {
		t.Errorf("partition sums = %v", got)
	}
}

func TestGenerate(t *testing.T) {
	ctx := testCtx(t, ModeSpark)
	d := Generate(ctx, 3, func(p int, emit func(int)) {
		for i := 0; i < 4; i++ {
			emit(p*10 + i)
		}
	})
	n, err := Count(d)
	if err != nil || n != 12 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestReduceAction(t *testing.T) {
	ctx := testCtx(t, ModeSpark)
	d := Parallelize(ctx, []int{1, 2, 3, 4, 5}, 2)
	sum, ok, err := Reduce(d, func(a, b int) int { return a + b })
	if err != nil || !ok || sum != 15 {
		t.Errorf("Reduce = %d, %v, %v", sum, ok, err)
	}
	empty := Parallelize(ctx, []int(nil), 2)
	_, ok, err = Reduce(empty, func(a, b int) int { return a + b })
	if err != nil || ok {
		t.Error("Reduce of empty dataset should report ok=false")
	}
}

// cacheModes names each mode by the cache block it persists a dataset as.
var cacheModes = []struct {
	mode  Mode
	name  string
	block cache.Block // a nil block of the mode's type
}{
	{ModeSpark, "objects", (*cache.ObjectBlock[int64])(nil)},
	{ModeSparkSer, "serialized", (*cache.SerializedBlock[int64])(nil)},
	{ModeDeca, "deca-pages", (*cache.DecaBlock[int64])(nil)},
}

// TestCachingAllLevels: each mode caches a persisted dataset as its own
// block type, reads it back without recomputing, and recomputes after
// Unpersist.
func TestCachingAllLevels(t *testing.T) {
	for _, tc := range cacheModes {
		t.Run(tc.name, func(t *testing.T) {
			ctx := testCtx(t, tc.mode)
			var computes atomic.Int64
			d := Generate(ctx, 2, func(p int, emit func(int64)) {
				computes.Add(1)
				for i := int64(0); i < 50; i++ {
					emit(int64(p)*100 + i)
				}
			})
			d.Persist(Storage[int64]{
				Estimate: func(int64) int { return 16 },
				Ser:      serial.Int64{},
				Codec:    decompose.Int64Codec{},
			})
			first, err := Collect(d)
			if err != nil {
				t.Fatal(err)
			}
			if n := computes.Load(); n != 2 {
				t.Fatalf("first pass computed %d partitions, want 2", n)
			}
			id := cache.BlockID{Dataset: d.ID(), Partition: 0}
			ex := ctx.executorFor(0)
			blk, ok, err := ex.cache.Get(id)
			if err != nil || !ok {
				t.Fatalf("partition 0 is not cached: %v, %v", ok, err)
			}
			ex.cache.Unpin(id)
			if reflect.TypeOf(blk) != reflect.TypeOf(tc.block) {
				t.Errorf("%v cached a %T, want a %T", tc.mode, blk, tc.block)
			}
			second, err := Collect(d)
			if err != nil {
				t.Fatal(err)
			}
			if n := computes.Load(); n != 2 {
				t.Errorf("cached read recomputed: count=%d", n)
			}
			if !reflect.DeepEqual(first, second) {
				t.Error("cached read returned different data")
			}

			d.Unpersist()
			if _, err := Collect(d); err != nil {
				t.Fatal(err)
			}
			if n := computes.Load(); n != 4 {
				t.Errorf("after Unpersist recompute count = %d, want 4", n)
			}
		})
	}
}

// TestPersistRequirements: a mode's missing helper fails at plan time —
// ModeSparkSer without Ser, ModeDeca without Codec — while ModeSpark, which
// can estimate and drop instead of swapping, needs neither.
func TestPersistRequirements(t *testing.T) {
	for mode, panics := range map[Mode]bool{ModeSpark: false, ModeSparkSer: true, ModeDeca: true} {
		d := Parallelize(testCtx(t, mode), []int64{1}, 1)
		func() {
			defer func() {
				if got := recover() != nil; got != panics {
					t.Errorf("%v: Persist with neither Ser nor Codec panicked: %v, want %v", mode, got, panics)
				}
			}()
			d.Persist(Storage[int64]{})
		}()
	}
}

func TestReduceByKeyAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeSpark, ModeSparkSer, ModeDeca} {
		t.Run(mode.String(), func(t *testing.T) {
			ctx := testCtx(t, mode)
			var pairs []decompose.Pair[string, int64]
			want := map[string]int64{}
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%02d", i%37)
				v := int64(i)
				pairs = append(pairs, KV(k, v))
				want[k] += v
			}
			d := Parallelize(ctx, pairs, 4)
			red := ReduceByKey(d, stringOps(3), func(a, b int64) int64 { return a + b })
			if red.Partitions() != 3 {
				t.Errorf("partitions = %d", red.Partitions())
			}
			got, err := CollectMap(red)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: aggregation mismatch (%d keys)", mode, len(got))
			}
			// A second action over the same shuffled dataset must work
			// (shuffle outputs are memoized, not consumed).
			n, err := Count(red)
			if err != nil || int(n) != len(want) {
				t.Errorf("recount = %d, %v", n, err)
			}
		})
	}
}

func TestGroupByKeyAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeSpark, ModeDeca} {
		t.Run(mode.String(), func(t *testing.T) {
			ctx := testCtx(t, mode)
			var pairs []decompose.Pair[int64, int64]
			want := map[int64][]int64{}
			for i := int64(0); i < 200; i++ {
				k := i % 11
				pairs = append(pairs, KV(k, i))
				want[k] = append(want[k], i)
			}
			d := Parallelize(ctx, pairs, 4)
			grouped := GroupByKey(d, int64Ops(2))
			got, err := CollectMap(grouped)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("key count = %d, want %d", len(got), len(want))
			}
			for k, vs := range got {
				sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
				if !reflect.DeepEqual(vs, want[k]) {
					t.Errorf("key %d: %v != %v", k, vs, want[k])
				}
			}
		})
	}
}

func TestShuffleSpilling(t *testing.T) {
	for _, mode := range []Mode{ModeSpark, ModeDeca} {
		t.Run(mode.String(), func(t *testing.T) {
			ctx := New(Config{
				Parallelism:           2,
				Mode:                  mode,
				PageSize:              1024,
				SpillDir:              t.TempDir(),
				ShuffleSpillThreshold: 512, // tiny: force spills
			})
			defer ctx.Close()
			var pairs []decompose.Pair[int64, int64]
			want := map[int64]int64{}
			for i := int64(0); i < 2000; i++ {
				k := i % 301
				pairs = append(pairs, KV(k, i))
				want[k] += i
			}
			d := Parallelize(ctx, pairs, 2)
			red := ReduceByKey(d, int64Ops(2), func(a, b int64) int64 { return a + b })
			got, err := CollectMap(red)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("spilled aggregation mismatch")
			}
			if ctx.Counters()[obs.ShuffleSpillBytes] == 0 {
				t.Error("expected shuffle spills")
			}
		})
	}
}

// TestOccupancyNamesTheBuffersExecutor: an occupancy sample names the
// executor that holds the sampled buffer. A 2-executor in-process word
// count that spills samples buffers on both executors, and no sample
// carries the driver's -1.
func TestOccupancyNamesTheBuffersExecutor(t *testing.T) {
	ctx := New(Config{
		NumExecutors:          2,
		Parallelism:           2,
		Mode:                  ModeDeca,
		PageSize:              1024,
		SpillDir:              t.TempDir(),
		ShuffleSpillThreshold: 512, // tiny: force spills
	})
	defer ctx.Close()
	var words []decompose.Pair[string, int64]
	for i := range 2000 {
		words = append(words, KV(fmt.Sprintf("w%d", i%301), int64(1)))
	}
	counts, err := CollectMap(ReduceByKey(Parallelize(ctx, words, 4), stringOps(2),
		func(a, b int64) int64 { return a + b }))
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 301 || counts["w0"] != 7 {
		t.Fatalf("%d words, w0 counted %d times; want 301 and 7", len(counts), counts["w0"])
	}
	if ctx.Counters()[obs.ShuffleSpillBytes] == 0 {
		t.Fatal("nothing spilled; the test proves nothing")
	}
	ctx.drainLocalEvents()
	seen := map[int32]int{}
	for _, pts := range ctx.view.Occupancy() {
		for _, p := range pts {
			seen[p.Exec]++
		}
	}
	if seen[0] == 0 || seen[1] == 0 || len(seen) != 2 {
		t.Errorf("occupancy samples per executor = %v, want executors 0 and 1 only", seen)
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	// A budget that holds only some partitions forces swaps; results must
	// stay correct.
	ctx := New(Config{
		Parallelism:     2,
		Mode:            ModeDeca,
		PageSize:        1024,
		MemoryBudget:    8 * 1024,
		StorageFraction: 0.5,
		SpillDir:        t.TempDir(),
	})
	defer ctx.Close()
	d := Generate(ctx, 8, func(p int, emit func(int64)) {
		for i := int64(0); i < 200; i++ {
			emit(int64(p)*1000 + i)
		}
	})
	d.Persist(Storage[int64]{Codec: decompose.Int64Codec{}})
	first, err := Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("data changed across eviction round trips")
	}
	if n := ctx.Executors()[0].cache.Counters()[obs.CacheEvictions]; n == 0 {
		t.Error("expected evictions under pressure")
	}
}

func TestShuffleRelease(t *testing.T) {
	ctx := testCtx(t, ModeDeca)
	d := Parallelize(ctx, []decompose.Pair[int64, int64]{KV[int64, int64](1, 1)}, 1)
	red := ReduceByKey(d, int64Ops(1), func(a, b int64) int64 { return a + b })
	first, err := Collect(red)
	if err != nil {
		t.Fatal(err)
	}
	ctx.ReleaseShuffle(red.ID())
	if ctx.Counters()[obs.PageBytesInUse] != 0 {
		t.Errorf("pages leaked after shuffle release: %d", ctx.Counters()[obs.PageBytesInUse])
	}
	// A read after release re-materializes the shuffle from its lineage (a
	// fresh container lifetime) instead of failing — the recovery path the
	// scheduler leans on when recomputing a blacklisted executor's cache
	// blocks.
	second, err := Collect(red)
	if err != nil {
		t.Fatalf("read after release should re-materialize, got %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("re-materialized output differs: %v vs %v", first, second)
	}
	// The revived materialization re-registered itself: releasing again
	// frees its pages.
	ctx.ReleaseShuffle(red.ID())
	if ctx.Counters()[obs.PageBytesInUse] != 0 {
		t.Errorf("pages leaked after second release: %d", ctx.Counters()[obs.PageBytesInUse])
	}
}

func TestDecaBlockForDirectAccess(t *testing.T) {
	ctx := testCtx(t, ModeDeca)
	d := Parallelize(ctx, []int64{1, 2, 3, 4}, 2)
	d.Persist(Storage[int64]{Codec: decompose.Int64Codec{}})
	if err := Materialize(d); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for p := 0; p < d.Partitions(); p++ {
		blk, release, err := DecaBlockFor(d, p)
		if err != nil {
			t.Fatal(err)
		}
		g := blk.Group()
		for i := 0; i < g.NumPages(); i++ {
			page := g.Page(i)
			for off := 0; off+8 <= len(page); off += 8 {
				sum += decompose.I64(page, off)
			}
		}
		release()
	}
	if sum != 10 {
		t.Errorf("raw page sum = %d, want 10", sum)
	}
	// Direct access on a non-Deca dataset errors.
	d2 := Parallelize(ctx, []int64{1}, 1)
	if _, _, err := DecaBlockFor(d2, 0); err == nil {
		t.Error("DecaBlockFor on unpersisted dataset should fail")
	}
	// So does it on a dataset persisted in another mode: its blocks are not pages.
	spark := Parallelize(testCtx(t, ModeSpark), []int64{1}, 1)
	spark.Persist(Storage[int64]{Codec: decompose.Int64Codec{}})
	if err := Materialize(spark); err != nil {
		t.Fatal(err)
	}
	if blk, _, err := DecaBlockFor(spark, 0); err == nil || blk != nil {
		t.Errorf("DecaBlockFor on a ModeSpark dataset = %v, %v; want an error", blk, err)
	}
}

func TestModeDecaFallsBackWithoutCodecs(t *testing.T) {
	// Deca mode without codecs must still compute correctly via object
	// buffers (the planner decided the type was not decomposable).
	ctx := testCtx(t, ModeDeca)
	pairs := []decompose.Pair[string, int64]{KV("a", int64(1)), KV("a", int64(2))}
	ops := PairOps[string, int64]{
		Key:    shuffle.StringKey(),
		KeySer: serial.Str{}, ValSer: serial.Int64{},
		Partitions: 1,
	}
	red := ReduceByKey(Parallelize(ctx, pairs, 1), ops, func(a, b int64) int64 { return a + b })
	got, err := CollectMap(red)
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != 3 {
		t.Errorf("got %v", got)
	}
}

// TestObjectShuffleWithoutSerializersFailsAtMaterialization: an
// Object-mode shuffle crosses executors as a serialized frame or not at
// all — built without KeySer/ValSer it fails when it materializes, with
// an error naming the missing serializer, and leaves nothing behind.
func TestObjectShuffleWithoutSerializersFailsAtMaterialization(t *testing.T) {
	for _, missing := range []string{"KeySer", "ValSer"} {
		t.Run(missing, func(t *testing.T) {
			ctx := testCtx(t, ModeSpark)
			ops := PairOps[string, int64]{Key: shuffle.StringKey(), KeySer: serial.Str{}, ValSer: serial.Int64{}, Partitions: 2}
			if missing == "KeySer" {
				ops.KeySer = nil
			} else {
				ops.ValSer = nil
			}
			d := Parallelize(ctx, []decompose.Pair[string, int64]{KV("a", int64(1)), KV("b", int64(2))}, 2)
			red := ReduceByKey(d, ops, func(a, b int64) int64 { return a + b }) // building it is not the failure
			_, err := Collect(red)
			if err == nil || !strings.Contains(err.Error(), "PairOps."+missing+" is nil") {
				t.Fatalf("Collect = %v, want an error naming PairOps.%s", err, missing)
			}
			if n := ctx.Counters()[obs.ShuffleOutputsPinned]; n != 0 || ctx.Counters()[obs.PageBytesInUse] != 0 {
				t.Errorf("the failed shuffle left %d registrations and %d bytes behind", n, ctx.Counters()[obs.PageBytesInUse])
			}
		})
	}
}

func TestCount(t *testing.T) {
	ctx := testCtx(t, ModeSpark)
	d := Parallelize(ctx, []int{5, 6, 7}, 2)
	n, err := Count(d)
	if err != nil || n != 3 {
		t.Errorf("Count = %d, %v", n, err)
	}
}

// TestConfigSurface ratchets the engine's settings: a value no experiment,
// flag, benchmark workload or deployment sets is a constant, not a field.
// The ceiling only goes down; a raise states its reason here, as the CI
// line ratchets do. (29 -> 20 when the fetch pipeline's shape, the fetch
// retry count, probation and the speculation thresholds became constants;
// 20 -> 19 when speculative execution, which no run turned on, was deleted;
// 19 -> 18 when EventBuffer, which only its own test set, was deleted and
// the event recorder became unconditional; 18 -> 17 when DeployKind folded
// into TransportKind, which names all three deployments — inprocess, tcp and
// multiproc — where two settings made four combinations, one meaningless.)
func TestConfigSurface(t *testing.T) {
	if n := leafFields(reflect.TypeOf(Config{})); n > 17 {
		t.Errorf("engine.Config has %d settable values, the ceiling is 17", n)
	}
}

// TestTransportKindRoundTrips: every deployment parses back from the name
// it prints, the empty flag value is the in-process default, and a name
// that is no deployment is rejected.
func TestTransportKindRoundTrips(t *testing.T) {
	for _, k := range []TransportKind{TransportInProcess, TransportTCP, TransportMultiproc} {
		if got, err := ParseTransportKind(k.String()); err != nil || got != k {
			t.Errorf("ParseTransportKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if got, err := ParseTransportKind(""); err != nil || got != TransportInProcess {
		t.Errorf("ParseTransportKind(\"\") = %v, %v; want inprocess", got, err)
	}
	for _, s := range []string{"deploy", "multi", "TCP", "in-process", "multiproc "} {
		if got, err := ParseTransportKind(s); err == nil {
			t.Errorf("ParseTransportKind(%q) = %v, want an error", s, got)
		}
	}
}

// leafFields counts the settable values of a config struct; a field whose
// type is itself a struct of settings counts by its own fields.
func leafFields(t reflect.Type) int {
	n := 0
	for i := range t.NumField() {
		if f := t.Field(i).Type; f.Kind() == reflect.Struct {
			n += leafFields(f)
		} else {
			n++
		}
	}
	return n
}

// TestTracedJobKeepsItsStart: a traced driver's ring is drained only when
// the trace is written, so it keeps as many events as the View: a job
// that records more events than an untraced ring holds (DefaultCapacity)
// still has its first stage's begin event when the trace is read, and
// nothing was dropped.
func TestTracedJobKeepsItsStart(t *testing.T) {
	ctx := New(Config{
		Parallelism: 4,
		Mode:        ModeDeca,
		PageSize:    4096,
		SpillDir:    t.TempDir(),
		TraceOut:    filepath.Join(t.TempDir(), "trace.json"),
	})
	defer ctx.Close()
	const actions = 200
	d := Parallelize(ctx, make([]int64, 64), 16)
	for range actions {
		if n, err := Count(d); err != nil || n != 64 {
			t.Fatalf("Count = %d, %v; want 64", n, err)
		}
	}
	if n := uint64(ctx.rec.Len()) + ctx.rec.Dropped(); n <= obs.DefaultCapacity {
		t.Fatalf("the job recorded %d events, no more than an untraced ring holds: the test proves nothing", n)
	}
	ctx.drainLocalEvents()
	begins := 0
	for _, e := range ctx.view.Events() {
		if e.Kind == obs.KindStageBegin {
			begins++
		}
	}
	if begins != actions || ctx.view.Dropped() != 0 {
		t.Errorf("the trace holds %d stage begins and dropped %d events, want %d and 0", begins, ctx.view.Dropped(), actions)
	}
}
