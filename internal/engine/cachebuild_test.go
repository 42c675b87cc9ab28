package engine

import (
	"errors"
	"sync/atomic"
	"testing"

	"deca/internal/cache"
	"deca/internal/decompose"
	"deca/internal/obs"
	"deca/internal/sched"
	"deca/internal/serial"
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
// the count off the blocks; only an action that wants the records decodes.
func TestMaterializeDecodesNothing(t *testing.T) {
	const parts, perPart = 4, 500
	ctx := testCtx(t, ModeDeca)
	var decodes atomic.Int64
	d := Generate(ctx, parts, func(p int, emit func(int64)) {
		for i := int64(0); i < perPart; i++ {
			emit(int64(p)*perPart + i)
		}
	})
	d.Persist(StorageDeca, Storage[int64]{Codec: countingCodec{decodes: &decodes}})
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

// TestCountAcrossLevelsAndSwap: Count agrees at every storage level, from
// the blocks as first built and again after a budget a fraction of the
// dataset has pushed them to disk — and, for the two levels that are read
// back, through it: a swapped-out Deca block is counted and collected from
// its file's mapping, with nothing swapped in.
func TestCountAcrossLevelsAndSwap(t *testing.T) {
	const parts, perPart = 8, 200
	for _, level := range []StorageLevel{StorageObjects, StorageSerialized, StorageDeca} {
		t.Run(level.String(), func(t *testing.T) {
			ctx := New(Config{
				Parallelism:     2,
				Mode:            ModeDeca,
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
			d.Persist(level, Storage[int64]{
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
			if readBack := level != StorageDeca; st[obs.CacheSwapOutBytes] == 0 || (st[obs.CacheSwapInBytes] != 0) != readBack {
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
// lazy chain uses to carry a failed or cancelled upstream — releases the
// half-built page group and publishes no block, on every attempt.
func TestFailedBuildLeavesNoPages(t *testing.T) {
	for name, failure := range map[string]any{
		"panic":    "generator exploded",
		"canceled": sched.ErrCanceled,
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
			d.Persist(StorageDeca, Storage[int64]{Codec: decompose.Int64Codec{}})
			err := Materialize(d)
			if err == nil {
				t.Fatal("Materialize succeeded over a failing partition")
			}
			if want, ok := failure.(error); ok && !errors.Is(err, want) {
				t.Errorf("error %v does not wrap %v", err, want)
			}
			if ctx.Executors()[0].CacheManager().Contains(cache.BlockID{Dataset: d.ID(), Partition: 2}) {
				t.Error("the failed partition published a block")
			}
			d.Unpersist()
			for _, ex := range ctx.Executors() {
				if st := ex.Memory().Stats(); st.LiveGroups != 0 || st.BytesInUse != 0 {
					t.Errorf("executor %d still holds %d live groups, %d bytes", ex.ID(), st.LiveGroups, st.BytesInUse)
				}
			}
		})
	}
}
