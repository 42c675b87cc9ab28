package engine

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"deca/internal/decompose"
)

// TestPointerFree pins the type fact Map's borrowing rule is read from: a
// result of bool and numbers, arrays and structs of them, cannot keep its
// argument; anything that holds a pointer can.
func TestPointerFree(t *testing.T) {
	type point struct {
		X, Y float64
		N    int32
		Ok   bool
	}
	type named struct {
		ID   int64
		Name string
	}
	for _, c := range []struct {
		t    reflect.Type
		want bool
	}{
		{reflect.TypeFor[float64](), true},
		{reflect.TypeFor[int64](), true},
		{reflect.TypeFor[bool](), true},
		{reflect.TypeFor[complex128](), true},
		{reflect.TypeFor[[4]float64](), true},
		{reflect.TypeFor[point](), true},
		{reflect.TypeFor[[2]point](), true},
		{reflect.TypeFor[decompose.Pair[int64, float64]](), true},
		{reflect.TypeFor[string](), false},
		{reflect.TypeFor[[]float64](), false},
		{reflect.TypeFor[decompose.Pair[string, int64]](), false},
		{reflect.TypeFor[named](), false},
		{reflect.TypeFor[[2]string](), false},
		{reflect.TypeFor[*float64](), false},
		{reflect.TypeFor[map[int64]int64](), false},
		{reflect.TypeFor[any](), false},
		{reflect.TypeFor[chan int](), false},
		{reflect.TypeFor[func() int](), false},
		{reflect.TypeFor[uintptr](), false},
		{reflect.TypeFor[unsafe.Pointer](), false},
	} {
		if got := pointerFree(c.t); got != c.want {
			t.Errorf("pointerFree(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

// lendWords is n words over keys distinct ones, each of several lengths.
func lendWords(n, keys int) []string {
	words := make([]string, n)
	for i := range words {
		k := i % keys
		words[i] = fmt.Sprintf("w%0*d", 4+k%5, k)
	}
	return words
}

// TestOwnedConsumersKeepTheirKeys: a pointer-free Map over a Deca
// ReduceByKey borrows each key from one reused array per drain, and the
// consumers that may keep a key — CollectMap, a Map to string then Collect
// — are still given keys of their own after it, on the same context: they
// return exactly Spark mode's keys, under the decapoison build too (which
// blanks each lent key once its call returns). Spark mode's drains lend
// nothing.
func TestOwnedConsumersKeepTheirKeys(t *testing.T) {
	words := lendWords(20_000, 3_000)
	type answer struct {
		sum    float64
		arrays int // distinct key arrays the pointer-free Map saw
		counts map[string]int64
		keys   []string
	}
	run := func(mode Mode) answer {
		ctx := testCtx(t, mode)
		pairs := Map(Parallelize(ctx, words, 4), func(w string) decompose.Pair[string, int64] { return KV(w, int64(1)) })
		counts := ReduceByKey(pairs, stringOps(3), addI64)
		var mu sync.Mutex
		seen := map[*byte]bool{}
		sum, _, err := Reduce(Map(counts, func(kv decompose.Pair[string, int64]) float64 {
			mu.Lock()
			seen[unsafe.StringData(kv.Key)] = true
			mu.Unlock()
			return float64(kv.Value) * float64(len(kv.Key))
		}), func(a, b float64) float64 { return a + b })
		if err != nil {
			t.Fatal(err)
		}
		m, err := CollectMap(counts)
		if err != nil {
			t.Fatal(err)
		}
		keys, err := Collect(Map(counts, func(kv decompose.Pair[string, int64]) string { return kv.Key }))
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(keys)
		return answer{sum, len(seen), m, keys}
	}
	spark, deca := run(ModeSpark), run(ModeDeca)
	if deca.sum != spark.sum {
		t.Errorf("the pointer-free Map's sum: Deca %v, Spark %v", deca.sum, spark.sum)
	}
	// A drain's one array grows at most once for keys of 5 to 9 bytes.
	if deca.arrays > 2*3 || spark.arrays != 3_000 {
		t.Errorf("the pointer-free Map saw its 3000 keys in %d arrays (Deca) and %d (Spark), want at most 6 (two a drain) and 3000",
			deca.arrays, spark.arrays)
	}
	if !maps.Equal(deca.counts, spark.counts) {
		t.Errorf("CollectMap after a lent Map: Deca's %d keys differ from Spark's %d", len(deca.counts), len(spark.counts))
	}
	if !slices.Equal(deca.keys, spark.keys) {
		t.Errorf("Map to string then Collect after a lent Map: Deca's %d keys differ from Spark's %d", len(deca.keys), len(spark.keys))
	}
}
