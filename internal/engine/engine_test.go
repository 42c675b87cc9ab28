package engine

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

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
	evens := Filter(doubled, func(v int) bool { return v%4 == 0 })
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

func TestCachingAllLevels(t *testing.T) {
	for _, tc := range []struct {
		level StorageLevel
		mode  Mode
	}{
		{StorageObjects, ModeSpark},
		{StorageSerialized, ModeSparkSer},
		{StorageDeca, ModeDeca},
	} {
		t.Run(tc.level.String(), func(t *testing.T) {
			ctx := testCtx(t, tc.mode)
			var computes atomic.Int64
			d := Generate(ctx, 2, func(p int, emit func(int64)) {
				computes.Add(1)
				for i := int64(0); i < 50; i++ {
					emit(int64(p)*100 + i)
				}
			})
			d.Persist(tc.level, Storage[int64]{
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

func TestPersistRequirements(t *testing.T) {
	ctx := testCtx(t, ModeDeca)
	d := Parallelize(ctx, []int64{1}, 1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("serialized without ser", func() {
		d.Persist(StorageSerialized, Storage[int64]{})
	})
	mustPanic("deca without codec", func() {
		d.Persist(StorageDeca, Storage[int64]{})
	})
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

func TestSortByKeyAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeSpark, ModeDeca} {
		t.Run(mode.String(), func(t *testing.T) {
			ctx := testCtx(t, mode)
			var pairs []decompose.Pair[int64, int64]
			for i := int64(500); i > 0; i-- {
				pairs = append(pairs, KV(i, i*3))
			}
			d := Parallelize(ctx, pairs, 4)
			sorted := SortByKey(d, int64Ops(3))
			// Each partition must be internally sorted and values correct.
			for p := 0; p < sorted.Partitions(); p++ {
				var keys []int64
				err := sorted.Iterate(p, func(kv decompose.Pair[int64, int64]) bool {
					if kv.Value != kv.Key*3 {
						t.Fatalf("value mismatch for key %d", kv.Key)
					}
					keys = append(keys, kv.Key)
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
					t.Errorf("partition %d not sorted", p)
				}
			}
			n, err := Count(sorted)
			if err != nil || n != 500 {
				t.Errorf("Count = %d, %v", n, err)
			}
		})
	}
}

func TestJoin(t *testing.T) {
	for _, mode := range []Mode{ModeSpark, ModeDeca} {
		t.Run(mode.String(), func(t *testing.T) {
			ctx := testCtx(t, mode)
			left := Parallelize(ctx, []decompose.Pair[int64, int64]{
				KV[int64, int64](1, 10), KV[int64, int64](2, 20), KV[int64, int64](1, 11),
			}, 2)
			right := Parallelize(ctx, []decompose.Pair[int64, int64]{
				KV[int64, int64](1, 100), KV[int64, int64](3, 300),
			}, 2)
			joined := Join(left, right, int64Ops(2), int64Ops(2))
			rows, err := Collect(joined)
			if err != nil {
				t.Fatal(err)
			}
			// Key 1 joins twice (10,100) and (11,100); keys 2, 3 drop.
			if len(rows) != 2 {
				t.Fatalf("join produced %d rows, want 2: %v", len(rows), rows)
			}
			for _, r := range rows {
				if r.Key != 1 || r.Value.Value != 100 {
					t.Errorf("unexpected row %v", r)
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
	d.Persist(StorageDeca, Storage[int64]{Codec: decompose.Int64Codec{}})
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
	st := ctx.Executors()[0].CacheManager().Stats()
	if st.Evictions == 0 {
		t.Errorf("expected evictions under pressure, stats = %+v", st)
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
	if ctx.Memory().InUse() != 0 {
		t.Errorf("pages leaked after shuffle release: %d", ctx.Memory().InUse())
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
	if ctx.Memory().InUse() != 0 {
		t.Errorf("pages leaked after second release: %d", ctx.Memory().InUse())
	}
}

func TestDecaBlockForDirectAccess(t *testing.T) {
	ctx := testCtx(t, ModeDeca)
	d := Parallelize(ctx, []int64{1, 2, 3, 4}, 2)
	d.Persist(StorageDeca, Storage[int64]{Codec: decompose.Int64Codec{}})
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

func TestCoGroup(t *testing.T) {
	ctx := testCtx(t, ModeSpark)
	left := Parallelize(ctx, []decompose.Pair[int64, int64]{
		KV[int64, int64](1, 10), KV[int64, int64](2, 20),
	}, 2)
	right := Parallelize(ctx, []decompose.Pair[int64, int64]{
		KV[int64, int64](2, 200), KV[int64, int64](3, 300),
	}, 2)
	cg := CoGroup(left, right, int64Ops(2), int64Ops(2))
	got, err := CollectMap(cg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("cogroup keys = %d, want 3", len(got))
	}
	if !reflect.DeepEqual(got[2].Left, []int64{20}) || !reflect.DeepEqual(got[2].Right, []int64{200}) {
		t.Errorf("key 2 cogroup = %+v", got[2])
	}
	if len(got[1].Right) != 0 || len(got[3].Left) != 0 {
		t.Errorf("unmatched sides should be empty: %+v", got)
	}
}

func TestCountAndForeach(t *testing.T) {
	ctx := testCtx(t, ModeSpark)
	d := Parallelize(ctx, []int{5, 6, 7}, 2)
	n, err := Count(d)
	if err != nil || n != 3 {
		t.Errorf("Count = %d, %v", n, err)
	}
	var mu sync.Mutex
	seen := map[int]bool{}
	err = Foreach(d, func(p int, v int) {
		mu.Lock()
		seen[v] = true
		mu.Unlock()
	})
	if err != nil || len(seen) != 3 {
		t.Errorf("Foreach: %v, %v", seen, err)
	}
}

// TestConfigSurface ratchets the engine's settings: a value no experiment,
// flag, benchmark workload or deployment sets is a constant, not a field.
// The ceiling only goes down; a raise states its reason here, as the CI
// line ratchets do. (29 -> 20 when the fetch pipeline's shape, the fetch
// retry count, probation and the speculation thresholds became constants.)
func TestConfigSurface(t *testing.T) {
	if n := leafFields(reflect.TypeOf(Config{})); n > 20 {
		t.Errorf("engine.Config has %d settable values, the ceiling is 20", n)
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
