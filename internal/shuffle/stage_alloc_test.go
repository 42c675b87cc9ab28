//go:build !race

package shuffle

import (
	"fmt"
	"math/bits"
	"testing"
	"unsafe"

	"deca/internal/memory"
)

// The allocation budget of stage → fold (the race detector changes
// allocation counts, so plain builds only).
//
// A staged frame is a fixed set of heap objects — the Staged, its
// arenas, the pointer reader's scratch buffer, the restored group and its
// page array (pages themselves recycle through the manager's pool) —
// whatever its key count. DecaGroup's pointer arena is the one part that
// grows: the frame announces its key count but not its pointer total, so
// the arena grows geometrically as pointers arrive, a logarithmic number
// of steps.
//
// Folding adds the destination's own index. DecaGroup's is one
// make(map, n), which the runtime splits into tables of at most 1024
// slots, so its allocation count is the key count over a few hundred.
// DecaAgg's is one pointer-free table sized from the frame's count — and
// nothing per key, whatever the key type: a folded key stays in its page.

const (
	stageBudget      = 12 // heap objects per staged frame, fixed-size keys
	groupArenaGrowth = 6  // extra growth steps a 10× larger DecaGroup frame may take
	foldSlack        = 8  // Fold's own objects beside the destination table
)

func TestStageFoldAllocBudget(t *testing.T) {
	for _, c := range frameCases {
		t.Run(c.name, func(t *testing.T) {
			mem := memory.NewManager(4096, 0)
			dir := t.TempDir()
			measure := func(keys int) (stage, both float64) {
				frame := c.build(t, keys, dir, false)
				stage = testing.AllocsPerRun(10, func() {
					st, err := c.stage(frame, mem, dir)
					if err != nil {
						t.Fatal(err)
					}
					st.Release()
				})
				both = testing.AllocsPerRun(10, func() {
					if err := c.stageFold(frame, mem, dir); err != nil {
						t.Fatal(err)
					}
				})
				return stage, both
			}
			stage2k, both2k := measure(2_000)
			stage20k, both20k := measure(20_000)
			t.Logf("stage %.0f → %.0f allocs, stage+fold %.0f → %.0f allocs (2k → 20k keys)",
				stage2k, stage20k, both2k, both20k)

			grow := 0.0
			if c.kind == wireDecaGroup {
				grow = groupArenaGrowth
			}
			if stage2k > stageBudget+grow {
				t.Errorf("staging 2k keys took %.0f allocations, budget %v", stage2k, stageBudget+grow)
			}
			if stage20k > stage2k+grow {
				t.Errorf("staging grew with the key count: %.0f allocations at 2k keys, %.0f at 20k", stage2k, stage20k)
			}
			for _, m := range []struct{ keys, both, stage float64 }{{2_000, both2k, stage2k}, {20_000, both20k, stage20k}} {
				table := 0.0
				if c.kind == wireDecaGroup {
					table = m.keys / 128 // the pre-sized destination map's tables and groups
				}
				if fold := m.both - m.stage; fold > foldSlack+table {
					t.Errorf("folding %.0f keys took %.0f allocations, budget %.0f", m.keys, fold, foldSlack+table)
				}
			}
			assertClean(t, mem, dir, c.name)
		})
	}
}

// TestDecaAggFillAllocBudget: the map side of the same claim. Combining
// into a key the buffer holds allocates nothing; filling n distinct string
// keys costs the table's doubling steps (and the page array's), never an
// object per key; a spill clears the table in place, so the refill runs on
// the same allocation.
func TestDecaAggFillAllocBudget(t *testing.T) {
	const n = 50_000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("word-%d", i)
	}
	mem := memory.NewManager(1<<16, 0)
	dir := t.TempDir()
	fill := func() *DecaAgg[string, int64] {
		b, err := NewDecaAgg[string, int64](mem, addI, str, i64, dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			b.Put(k, int64(i))
		}
		return b
	}
	fill().Release() // the pages the measured fills take now come from the pool

	steps := float64(bits.Len(n))
	if got, budget := testing.AllocsPerRun(5, func() { fill().Release() }), 2*steps+8; got > budget {
		t.Errorf("filling %d distinct keys took %.0f allocations, budget %.0f", n, got, budget)
	}

	b := fill()
	defer b.Release()
	if got := testing.AllocsPerRun(100, func() { b.Put(keys[n/2], 1) }); got != 0 {
		t.Errorf("Put on an existing key took %.0f allocations, want 0", got)
	}
	table, slots := unsafe.SliceData(b.idx.slots), len(b.idx.slots)
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("%d keys in memory after a spill", b.Len())
	}
	for i, k := range keys {
		b.Put(k, int64(i))
	}
	if unsafe.SliceData(b.idx.slots) != table || len(b.idx.slots) != slots {
		t.Errorf("refill after a spill runs on a new table (%d slots, was %d)", len(b.idx.slots), slots)
	}
	if want := mem.Stats().BytesInUse + int64(slots)*aggSlotSize; b.SizeBytes() != want {
		t.Errorf("SizeBytes %d, want pages + table = %d", b.SizeBytes(), want)
	}
}
