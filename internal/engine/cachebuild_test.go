package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"deca/internal/cache"
	"deca/internal/decompose"
	"deca/internal/obs"
	"deca/internal/serial"
	"deca/internal/shuffle"
)

// countingCodec is Int64Codec that counts its Decode calls.
type countingCodec struct {
	decompose.Int64Codec
	decodes *atomic.Int64
}

func (c countingCodec) Decode(seg []byte) (int64, int) {
	c.decodes.Add(1)
	return c.Int64Codec.Decode(seg)
}

// TestMaterializeDecodesNothing: warming a Deca cache and counting it read
// the count off the blocks, and counting a ReduceByKey reads it off its
// merged containers, spill runs pending or not and in every deployment;
// only an action that wants the records decodes.
func TestMaterializeDecodesNothing(t *testing.T) {
	t.Run("cache", testCachedCountDecodesNothing)
	for _, kind := range []TransportKind{TransportInProcess, TransportTCP} {
		for _, mode := range []Mode{ModeSpark, ModeSparkSer, ModeDeca} {
			for _, spill := range []int64{0, 256} {
				t.Run(fmt.Sprintf("ReduceByKey/%s/%s/spill=%d", kind, mode, spill), func(t *testing.T) {
					conf := recoveryConfig(t.TempDir())
					conf.Mode, conf.TransportKind, conf.ShuffleSpillThreshold = mode, kind, spill
					ctx := New(conf)
					t.Cleanup(ctx.Close)
					if got := checkReduceCount(t, ctx, spill > 0); mode == ModeDeca && got != countKeys {
						t.Errorf("Count + Collect decoded %d keys, want Collect's %d", got, countKeys)
					}
				})
			}
		}
	}
	t.Run("ReduceByKey/multiproc/Deca/spill=256", func(t *testing.T) {
		// The executor processes decode; their drained count is what shows.
		checkReduceCount(t, programCtx(t, "count", TransportMultiproc), true)
	})
}

func testCachedCountDecodesNothing(t *testing.T) {
	const parts, perPart = 4, 500
	ctx := testCtx(t, ModeDeca)
	var decodes atomic.Int64
	d := Generate(ctx, parts, func(p int, emit func(int64)) {
		for i := int64(0); i < perPart; i++ {
			emit(int64(p)*perPart + i)
		}
	})
	d.Persist(Storage[int64]{Codec: countingCodec{decodes: &decodes}})
	if err := Materialize(d); err != nil {
		t.Fatal(err)
	}
	n, err := Count(d)
	if err != nil || n != parts*perPart {
		t.Fatalf("Count = %d, %v; want %d", n, err, parts*perPart)
	}
	if got := decodes.Load(); got != 0 {
		t.Errorf("Materialize + Count decoded %d records, want 0", got)
	}
	if _, err := Collect(d); err != nil {
		t.Fatal(err)
	}
	if got := decodes.Load(); got != parts*perPart {
		t.Errorf("Collect decoded %d records, want %d", got, parts*perPart)
	}
}

// countKeys is how many keys countProgram's ReduceByKey holds.
const countKeys = 331

// countProgram is a ReduceByKey of countKeys keys whose key codec counts
// its decodes into decodes, counted, then collected; counted is how many
// of the decodes the Count took.
func countProgram(ctx *Context, decodes *atomic.Int64) (n, counted int64, all []decompose.Pair[int64, int64], err error) {
	var pairs []decompose.Pair[int64, int64]
	for i := int64(0); i < 4000; i++ {
		pairs = append(pairs, KV(i*7%countKeys, i))
	}
	ops := int64Ops(4)
	ops.KeyCodec = countingCodec{decodes: decodes}
	red := ReduceByKey(Parallelize(ctx, pairs, 4), ops, func(a, b int64) int64 { return a + b })
	if n, err = Count(red); err != nil {
		return 0, 0, nil, err
	}
	counted = decodes.Load()
	all, err = Collect(red)
	return n, counted, all, err
}

// checkReduceCount runs countProgram on ctx and returns the keys this
// process decoded: Count decodes none and equals what Collect drains, and
// a spilling run has spilled.
func checkReduceCount(t *testing.T, ctx *Context, spills bool) int64 {
	t.Helper()
	var decodes atomic.Int64
	n, counted, all, err := countProgram(ctx, &decodes)
	if err != nil {
		t.Fatal(err)
	}
	if counted != 0 {
		t.Errorf("Count decoded %d keys, want 0", counted)
	}
	if n != int64(len(all)) || n != countKeys {
		t.Errorf("Count = %d, Collect drained %d records; want %d both", n, len(all), countKeys)
	}
	ctx.SyncClusterMetrics() // an executor process's spill shows in its next heartbeat
	if spilled := ctx.Counters()[obs.ShuffleSpillBytes] > 0; spilled != spills {
		t.Errorf("map buffers spilled: %v, want %v", spilled, spills)
	}
	return decodes.Load()
}

// TestCountAcrossLevelsAndSwap: Count agrees in every mode's cache block,
// from the blocks as first built and again after a budget a fraction of the
// dataset has pushed them to disk — and, for the two modes whose blocks are
// read back, through it: a swapped-out Deca block is counted and collected
// from its file's mapping, with nothing swapped in.
func TestCountAcrossLevelsAndSwap(t *testing.T) {
	const parts, perPart = 8, 200
	for _, tc := range cacheModes {
		t.Run(tc.name, func(t *testing.T) {
			ctx := New(Config{
				Parallelism:     2,
				Mode:            tc.mode,
				PageSize:        1024,
				MemoryBudget:    2 * 1024,
				StorageFraction: 0.5,
				SpillDir:        t.TempDir(),
			})
			defer ctx.Close()
			d := Generate(ctx, parts, func(p int, emit func(int64)) {
				for i := int64(0); i < perPart; i++ {
					emit(int64(p)*1000 + i)
				}
			})
			d.Persist(Storage[int64]{
				Estimate: func(int64) int { return 16 },
				Ser:      serial.Int64{},
				Codec:    decompose.Int64Codec{},
			})
			count := func(when string) {
				t.Helper()
				if n, err := Count(d); err != nil || n != parts*perPart {
					t.Fatalf("Count %s = %d, %v; want %d", when, n, err, parts*perPart)
				}
			}
			count("on first build")
			all, err := Collect(d)
			if err != nil || len(all) != parts*perPart {
				t.Fatalf("Collect = %d records, %v", len(all), err)
			}
			st := ctx.Counters()
			if readBack := tc.mode != ModeDeca; st[obs.CacheSwapOutBytes] == 0 || (st[obs.CacheSwapInBytes] != 0) != readBack {
				t.Fatalf("swapped out %d bytes, swapped in %d (read back: %v): %v",
					st[obs.CacheSwapOutBytes], st[obs.CacheSwapInBytes], readBack, st)
			}
			if st[obs.CacheDrops] != 0 {
				t.Fatalf("blocks were dropped, not swapped: %v", st)
			}
			count("after the swap")
		})
	}
}

// TestFailedBuildLeavesNoPages: a partition whose upstream dies while its
// Deca block is being filled — a generator panic, or the error panic the
// lazy chain uses to carry an upstream's error (here context.Canceled) —
// releases the half-built page group and publishes no block, on every
// attempt.
func TestFailedBuildLeavesNoPages(t *testing.T) {
	for name, failure := range map[string]any{
		"panic":    "generator exploded",
		"canceled": context.Canceled,
	} {
		t.Run(name, func(t *testing.T) {
			ctx := testCtx(t, ModeDeca)
			d := Generate(ctx, 4, func(p int, emit func(int64)) {
				for i := int64(0); i < 3000; i++ { // several 4 KiB pages in
					emit(i)
				}
				if p == 2 {
					panic(failure)
				}
			})
			d.Persist(Storage[int64]{Codec: decompose.Int64Codec{}})
			err := Materialize(d)
			if err == nil {
				t.Fatal("Materialize succeeded over a failing partition")
			}
			if want, ok := failure.(error); ok && !errors.Is(err, want) {
				t.Errorf("error %v does not wrap %v", err, want)
			}
			if ctx.Executors()[0].cache.Contains(cache.BlockID{Dataset: d.ID(), Partition: 2}) {
				t.Error("the failed partition published a block")
			}
			d.Unpersist()
			for _, ex := range ctx.Executors() {
				if st := ex.Memory().Counters(); st[obs.PageGroupsLive] != 0 || st[obs.PageBytesInUse] != 0 {
					t.Errorf("executor %d still holds %d live groups, %d bytes", ex.ID(), st[obs.PageGroupsLive], st[obs.PageBytesInUse])
				}
			}
		})
	}
}

// TestGroupByKeyBlockFromPages: a Deca-persisted GroupByKey output, whose
// blocks are written from the merged groups' pages, reads back the lists a
// drain of the same shuffle yields; a persist codec the hand-off cannot
// write fails the materialization with a *shuffle.CodecError, publishes no
// block and leaves no page behind.
func TestGroupByKeyBlockFromPages(t *testing.T) {
	pairs := make([]decompose.Pair[int64, int64], 5000)
	for i := range pairs {
		pairs[i] = KV(int64(i*7919%613), int64(i))
	}
	sorted := func(m map[int64][]int64) map[int64][]int64 {
		for _, vs := range m {
			slices.Sort(vs)
		}
		return m
	}
	ctx := testCtx(t, ModeDeca)
	drained := GroupByKey(Parallelize(ctx, pairs, 4), int64Ops(3))
	want, err := CollectMap(drained)
	if err != nil {
		t.Fatal(err)
	}
	lists := decompose.PairCodec[int64, []int64]{KeyCodec: decompose.Int64Codec{}, ValueCodec: decompose.Int64SliceCodec{}}
	cached := GroupByKey(Parallelize(ctx, pairs, 4), int64Ops(3))
	cached.Persist(Storage[decompose.Pair[int64, []int64]]{Codec: lists})
	got, err := CollectMap(cached)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sorted(got), sorted(want)) {
		t.Errorf("the cached lists differ from the drained ones")
	}
	cached.Unpersist()

	vectors := decompose.PairCodec[int64, []int64]{KeyCodec: decompose.Int64Codec{}, ValueCodec: decompose.Int64VecCodec{Dim: 1}}
	refused := GroupByKey(Parallelize(ctx, pairs, 4), int64Ops(3))
	refused.Persist(Storage[decompose.Pair[int64, []int64]]{Codec: vectors})
	var ce *shuffle.CodecError
	if err := Materialize(refused); !errors.As(err, &ce) {
		t.Fatalf("materializing with a vector codec: %v, want a *shuffle.CodecError", err)
	}
	if ctx.Executors()[0].cache.Contains(cache.BlockID{Dataset: refused.ID(), Partition: 0}) {
		t.Error("a refused partition published a block")
	}
	for _, d := range []int{drained.ID(), cached.ID(), refused.ID()} {
		ctx.ReleaseShuffle(d)
	}
	for _, ex := range ctx.Executors() {
		if st := ex.Memory().Counters(); st[obs.PageGroupsLive] != 0 || st[obs.PageBytesInUse] != 0 {
			t.Errorf("executor %d still holds %d live groups, %d bytes", ex.ID(), st[obs.PageGroupsLive], st[obs.PageBytesInUse])
		}
	}
}
