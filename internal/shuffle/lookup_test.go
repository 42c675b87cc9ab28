package shuffle

import (
	"bytes"
	"maps"
	"os"
	"testing"

	"deca/internal/memory"
)

// lookupAgg is an aggregation buffer of int64 → float64 (PageRank's
// contribution sums) as the probe tests drive it, whatever its kind.
type lookupAgg interface {
	frameBuffer
	Put(k int64, v float64)
	Fold(st *Staged) error
	FoldRuns() error
	Lookup(k int64) (float64, bool)
	Drain(yield func(int64, float64) bool) error
}

var lookupCases = []struct {
	name string
	new  func(tb testing.TB, mem *memory.Manager, dir string) lookupAgg
}{
	{"DecaAgg", func(tb testing.TB, mem *memory.Manager, dir string) lookupAgg {
		b, err := NewDecaAgg[int64, float64](mem, addF, i64, f64, dir)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}},
	{"ObjectAgg", func(_ testing.TB, _ *memory.Manager, dir string) lookupAgg {
		return NewObjectAgg(addF, f64Cfg(dir))
	}},
}

// pendingRuns is how many spill runs b still has to fold.
func pendingRuns(b lookupAgg) int {
	switch b := b.(type) {
	case *DecaAgg[int64, float64]:
		return len(b.spills)
	case *ObjectAgg[int64, float64]:
		return len(b.spills)
	}
	panic("unknown buffer")
}

// fillLookup puts value v under every key in [lo, hi) into b and into ref.
func fillLookup(b lookupAgg, ref map[int64]float64, lo, hi int64, v float64) {
	for k := lo; k < hi; k++ {
		b.Put(k, v)
		ref[k] += v
	}
}

// checkLookups probes every key of ref plus keys b never saw, and drains b
// against ref.
func checkLookups(t *testing.T, b lookupAgg, ref map[int64]float64, what string) {
	t.Helper()
	for k, want := range ref {
		if got, ok := b.Lookup(k); !ok || got != want {
			t.Fatalf("%s: Lookup(%d) = %v, %v; want %v, true", what, k, got, ok, want)
		}
	}
	for _, k := range []int64{-1, 1 << 40} {
		if got, ok := b.Lookup(k); ok || got != 0 {
			t.Fatalf("%s: Lookup(%d) of an absent key = %v, %v", what, k, got, ok)
		}
	}
	got := map[int64]float64{}
	if err := b.Drain(func(k int64, v float64) bool { got[k] = v; return true }); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, ref) {
		t.Fatalf("%s: drain after the probes holds %d keys, want %d", what, len(got), len(ref))
	}
}

// TestAggLookup: a probe of either aggregation buffer answers what its
// drain yields — for keys put into it, for keys folded into it from staged
// frames, and for keys of spill runs once FoldRuns took them back, which a
// second FoldRuns does not repeat; a probe with runs pending refuses.
func TestAggLookup(t *testing.T) {
	for _, c := range lookupCases {
		t.Run(c.name, func(t *testing.T) {
			mem := memory.NewManager(4096, 0)
			dir := t.TempDir()

			t.Run("put", func(t *testing.T) {
				b, ref := c.new(t, mem, dir), map[int64]float64{}
				defer b.Release()
				fillLookup(b, ref, 0, 1000, 1)
				fillLookup(b, ref, 0, 1000, 0.5) // every key combined once
				checkLookups(t, b, ref, "put")
				// A probe borrows the staging buffer; a Put after it stages afresh.
				fillLookup(b, ref, 500, 1500, 2)
				checkLookups(t, b, ref, "put after probes")
			})

			t.Run("fold", func(t *testing.T) {
				b, ref := c.new(t, mem, dir), map[int64]float64{}
				defer b.Release()
				for _, r := range [][2]int64{{0, 600}, {300, 1000}} {
					src := c.new(t, memory.NewManager(4096, 0), dir)
					fillLookup(src, ref, r[0], r[1], float64(r[0]+1))
					st, err := Stage(bytes.NewReader(encodeFrame(t, src)), mem, dir)
					if err != nil {
						t.Fatal(err)
					}
					if err := b.Fold(st); err != nil {
						t.Fatal(err)
					}
				}
				checkLookups(t, b, ref, "fold")
			})

			t.Run("spill", func(t *testing.T) {
				b, ref := c.new(t, mem, dir), map[int64]float64{}
				defer b.Release()
				fillLookup(b, ref, 0, 500, 1)
				if err := b.Spill(); err != nil {
					t.Fatal(err)
				}
				fillLookup(b, ref, 250, 750, 2)
				if err := b.Spill(); err != nil {
					t.Fatal(err)
				}
				fillLookup(b, ref, 0, 100, 4)
				if n := pendingRuns(b); n != 2 {
					t.Fatalf("%d runs pending, want 2", n)
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("a probe with spill runs pending answered")
						}
					}()
					b.Lookup(10)
				}()
				for i := 0; i < 2; i++ { // the second fold finds nothing to fold
					if err := b.FoldRuns(); err != nil {
						t.Fatal(err)
					}
				}
				if n := pendingRuns(b); n != 0 {
					t.Fatalf("%d runs still pending after FoldRuns", n)
				}
				if entries, _ := os.ReadDir(dir); len(entries) != 0 {
					t.Fatalf("%d run files left after FoldRuns", len(entries))
				}
				checkLookups(t, b, ref, "spill") // a run folded twice would double these sums
			})
			assertClean(t, mem, dir, c.name)
		})
	}
}

// TestSealedDecaAggRefusesLookup: a sealed map output has no index left,
// so a probe would miss every key — it panics instead.
func TestSealedDecaAggRefusesLookup(t *testing.T) {
	b, err := NewDecaAgg[int64, float64](memory.NewManager(4096, 0), addF, i64, f64, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	b.Put(1, 1)
	b.Seal()
	defer func() {
		if r := recover(); r != "shuffle: Lookup on a sealed DecaAgg" {
			t.Fatalf("Lookup on a sealed buffer: recovered %v", r)
		}
	}()
	b.Lookup(1)
}
