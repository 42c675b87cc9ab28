//go:build !race

package engine

import "testing"

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
