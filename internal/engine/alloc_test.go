//go:build !race

package engine

import (
	"runtime"
	"testing"

	"deca/internal/decompose"
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
		d.Persist(StorageDeca, Storage[int64]{Codec: decompose.Int64Codec{}})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := Materialize(d); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		st := ctx.Memory().Stats()
		pageBytes := st.PagesAllocated * uint64(st.PageSize)
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
