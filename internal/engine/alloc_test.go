//go:build !race

package engine

import (
	"runtime"
	"testing"

	"deca/internal/decompose"
	"deca/internal/obs"
)

// expandUDF is reached through a variable: handed to FlatMap as a literal
// it is inlined into the walk and the per-record closure never reaches the
// heap, which no real caller (a UDF crosses packages) gets.
var expandUDF = func(v int, emit func(int)) {
	emit(v)
	emit(-v)
}

// TestFlatMapAllocsPerWalk: FlatMap builds its emit closure once per
// partition walk. (It used to build one per input record: 320 k
// allocations per WordCount job. The race detector changes allocation
// counts, so plain builds only.)
func TestFlatMapAllocsPerWalk(t *testing.T) {
	const n = 10_000
	ctx := testCtx(t, ModeDeca)
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	out := FlatMap(Parallelize(ctx, in, 1), expandUDF)
	seen := 0
	allocs := testing.AllocsPerRun(5, func() {
		seen = 0
		if err := out.Iterate(0, func(int) bool { seen++; return true }); err != nil {
			t.Fatal(err)
		}
	})
	if seen != 2*n {
		t.Fatalf("walk yielded %d records, want %d", seen, 2*n)
	}
	if allocs > 32 {
		t.Errorf("walking a %d-record partition through FlatMap took %.0f allocations, want a constant", n, allocs)
	}
}

// TestDecaBuildAllocatesOnlyItsPages: a Deca-persisted partition is
// decomposed into its pages as it is generated, so materializing it
// allocates the pages plus a constant — not a staging copy that grows with
// the record count, and nothing to count the records afterwards.
func TestDecaBuildAllocatesOnlyItsPages(t *testing.T) {
	for _, n := range []int{10_000, 100_000} {
		ctx := testCtx(t, ModeDeca)
		d := Generate(ctx, 1, func(_ int, emit func(int64)) {
			for i := 0; i < n; i++ {
				emit(int64(i))
			}
		})
		d.Persist(Storage[int64]{Codec: decompose.Int64Codec{}})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := Materialize(d); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		pageBytes := uint64(ctx.Counters()[obs.PagesAllocated]) * uint64(ctx.execs[0].mem.PageSize())
		if pageBytes < uint64(8*n) {
			t.Fatalf("%d records sit in %d page bytes", n, pageBytes)
		}
		allocated := after.TotalAlloc - before.TotalAlloc
		if budget := pageBytes*5/4 + 64<<10; allocated > budget {
			t.Errorf("materializing %d records allocated %d bytes for %d bytes of pages (budget %d)",
				n, allocated, pageBytes, budget)
		}
	}
}

// TestLentDrainAllocatesPerPartition: a pointer-free Map over a Deca
// string-keyed ReduceByKey borrows each key (Map's rule), so an action over
// a materialized shuffle allocates a constant per partition, not the key
// bytes an owned drain cuts for 60 k keys — which a Map to string, given
// keys of its own, still does.
func TestLentDrainAllocatesPerPartition(t *testing.T) {
	const keys, parts = 60_000, 4
	ctx := testCtx(t, ModeDeca)
	words := lendWords(keys, keys)
	keyBytes := 0
	for _, w := range words {
		keyBytes += len(w)
	}
	counts := ReduceByKey(Map(Parallelize(ctx, words, parts), func(w string) decompose.Pair[string, int64] {
		return KV(w, int64(1))
	}), stringOps(parts), addI64)
	if err := Materialize(counts); err != nil {
		t.Fatal(err)
	}
	allocated := func(action func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := action(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	lent := allocated(func() error {
		_, _, err := Reduce(Map(counts, func(kv decompose.Pair[string, int64]) float64 {
			return float64(kv.Value) * float64(len(kv.Key))
		}), func(a, b float64) float64 { return a + b })
		return err
	})
	owned := allocated(func() error {
		_, err := Count(Map(counts, func(kv decompose.Pair[string, int64]) string { return kv.Key }))
		return err
	})
	t.Logf("%d keys (%d bytes) over %d partitions: %d B lent, %d B owned", keys, keyBytes, parts, lent, owned)
	if budget := uint64(parts * 8 << 10); lent > budget {
		t.Errorf("a pointer-free Map's action allocated %d B, budget %d (%d partitions); the key bytes are %d", lent, budget, parts, keyBytes)
	}
	if owned < uint64(keyBytes) {
		t.Errorf("a Map to string's action allocated %d B, less than the %d bytes of the keys it is given", owned, keyBytes)
	}
}
