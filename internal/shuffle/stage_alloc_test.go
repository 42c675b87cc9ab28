//go:build !race

package shuffle

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"deca/internal/memory"
)

// The allocation budget of stage → fold (the race detector changes
// allocation counts, so plain builds only).
//
// A staged frame is a fixed set of heap objects — the Staged, DecaSort's
// pointer array and its reader's scratch buffer, the restored group and
// its page array (pages themselves recycle through the manager's pool), an
// Object frame's one record slice and its doublings — whatever its key
// count.
//
// Folding a Deca frame adds the destination's own index: for DecaAgg and
// DecaGroup slabs of manager memory sized from the frame's count, under a
// directory inside the container — and nothing per key or per value,
// whatever their types: a folded key stays in its page, and so does its
// value list. (Folding an Object frame boxes every record by design: that
// half holds the Deca kinds only.)

const (
	stageBudget = 12 // heap objects per staged frame
	foldSlack   = 8  // Fold's own objects beside the destination table
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
					st, err := c.stage(frame, mem, dir)
					if err == nil {
						err = c.fold(st, mem, dir)
					}
					if err != nil {
						t.Fatal(err)
					}
				})
				return stage, both
			}
			stage2k, both2k := measure(2_000)
			stage20k, both20k := measure(20_000)
			t.Logf("stage %.0f → %.0f allocs, stage+fold %.0f → %.0f allocs (2k → 20k keys)",
				stage2k, stage20k, both2k, both20k)

			if stage2k > stageBudget {
				t.Errorf("staging 2k keys took %.0f allocations, budget %v", stage2k, stageBudget)
			}
			if stage20k > stage2k {
				t.Errorf("staging grew with the key count: %.0f allocations at 2k keys, %.0f at 20k", stage2k, stage20k)
			}
			for _, m := range []struct{ keys, both, stage float64 }{{2_000, both2k, stage2k}, {20_000, both20k, stage20k}} {
				if fold := m.both - m.stage; fold > foldSlack && !objectKind(c.kind) {
					t.Errorf("folding %.0f keys took %.0f allocations, budget %v", m.keys, fold, foldSlack)
				}
			}
			assertClean(t, mem, dir, c.name)
		})
	}
}

// TestDecaAggFillAllocBudget: the map side of the same claim. Combining
// into a key the buffer holds allocates nothing; filling n distinct string
// keys costs the table's doubling steps (and the page array's), never an
// object per key, and no directory object either (4 segments fit the
// container's own). On a warm manager every page and every slab is the
// previous lifetime's — at the page-to-table ratio of the WordCount
// workloads too (1 MiB pages, a table ending at 1.5 MiB: until ISSUE 23 its
// two largest tables were fresh each time). A spill clears the table in
// place, so the refill runs on the same segments.
func TestDecaAggFillAllocBudget(t *testing.T) {
	const n = 50_000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("word-%d", i)
	}
	mem := memory.NewManager(1<<20, 0)
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
	fill().Release() // the pages and index slabs the measured fills take now come from the pool
	warm := mem.Stats().PagesAllocated

	steps := float64(bits.Len(n))
	if got, budget := testing.AllocsPerRun(5, func() { fill().Release() }), 2*steps+8; got > budget {
		t.Errorf("filling %d distinct keys took %.0f allocations, budget %.0f", n, got, budget)
	}

	b := fill()
	defer b.Release()
	b.flush() // what follows reads table and pages directly
	if got := mem.Stats().PagesAllocated - warm; got != 0 || len(b.idx.dir) != 4 {
		t.Errorf("7 container lifetimes on a warm manager took %d pages or index slabs from the heap, want none (table of %d segments, want 4)", got, len(b.idx.dir))
	}
	if got := testing.AllocsPerRun(100, func() { b.Put(keys[n/2], 1) }); got != 0 {
		t.Errorf("Put on an existing key took %.0f allocations, want 0", got)
	}
	table, slots := b.idx.segments(), b.idx.size()
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("%d keys in memory after a spill", b.Len())
	}
	for i, k := range keys {
		b.Put(k, int64(i))
	}
	b.flush()
	if !slices.Equal(b.idx.segments(), table) || b.idx.size() != slots {
		t.Errorf("refill after a spill runs on a new table (%d slots, was %d)", b.idx.size(), slots)
	}
	if want := b.group.Footprint() + int64(slots)*aggSlotSize; b.SizeBytes() != want || mem.Stats().BytesInUse != want {
		t.Errorf("SizeBytes %d and the manager's BytesInUse %d, want pages + table = %d, each once",
			b.SizeBytes(), mem.Stats().BytesInUse, want)
	}
}

// TestLookupAllocBudget: a probe of a merged aggregation buffer — the next
// PageRank iteration's rank table — allocates nothing, hit or miss, once
// its runs are folded back: DecaAgg encodes the key into its staging
// buffer, ObjectAgg reads its own table.
func TestLookupAllocBudget(t *testing.T) {
	for _, c := range lookupCases {
		t.Run(c.name, func(t *testing.T) {
			b := c.new(t, memory.NewManager(4096, 0), t.TempDir())
			defer b.Release()
			fillLookup(b, map[int64]float64{}, 0, 10_000, 1)
			if err := b.Spill(); err != nil {
				t.Fatal(err)
			}
			fillLookup(b, map[int64]float64{}, 5_000, 15_000, 1)
			if err := b.FoldRuns(); err != nil {
				t.Fatal(err)
			}
			for _, k := range []int64{7_000, 20_000} { // a hit, a miss
				if got := testing.AllocsPerRun(100, func() { b.Lookup(k) }); got != 0 {
					t.Errorf("Lookup(%d) took %.0f allocations, want 0", k, got)
				}
			}
		})
	}
}

// TestDecaGroupFillAllocBudget: a grouping buffer is its pages and its
// index slab. Filling one with 100 k values over 10 k keys (at the parent:
// one Go slice per key, regrown as it fills — ≈ 60 k objects) allocates the
// page array's and the table's doubling steps and nothing per key or per
// value; on a warm manager, no page and no slab; and the manager's ledger
// is the buffer's SizeBytes.
func TestDecaGroupFillAllocBudget(t *testing.T) {
	const keys, values = 10_000, 100_000
	mem := memory.NewManager(1<<20, 0)
	fill := func() *DecaGroup[int64, int64] {
		b := NewDecaGroup[int64, int64](mem, i64, i64, "")
		for i := int64(0); i < values; i++ {
			b.Put(i*7919%keys, i)
		}
		return b
	}
	fill().Release()
	warm := mem.Stats().PagesAllocated
	if got, budget := testing.AllocsPerRun(5, func() { fill().Release() }), 2*float64(bits.Len(values))+8; got > budget {
		t.Errorf("filling %d values over %d keys took %.0f allocations, budget %.0f", values, keys, got, budget)
	}
	if got := mem.Stats().PagesAllocated; got != warm {
		t.Errorf("later container lifetimes took %d pages or index slabs from the heap, want none", got-warm)
	}
	b := fill()
	if b.Len() != keys || b.Values() != values {
		t.Fatalf("%d keys, %d values in the buffer", b.Len(), b.Values())
	}
	if in := mem.Stats().BytesInUse; b.SizeBytes() != in || in != b.group.Footprint()+b.idx.footprint() {
		t.Errorf("SizeBytes %d, BytesInUse %d, want pages %d + index slab %d, each once", b.SizeBytes(), in, b.group.Footprint(), b.idx.footprint())
	}
	b.Release()
	if st := mem.Stats(); st.BytesInUse != 0 || st.LiveGroups != 0 || st.BytesPooled == 0 {
		t.Errorf("after release: %+v", st)
	}
}

// What a Deca drain yields it decodes into chunks of its own
// (decompose.Chunk): a key string or a value list is cut from a GC-owned
// array shared with the drain's other keys or lists, never a page and never
// an array of a former drain. The tests below hold a drain to it: what it
// yielded survives the container, the reuse of its pages and the next
// drain unchanged; a list cannot be appended into its neighbour; and a drain
// allocates an array per chunk of what it yields, not an object per key.

// drainKeys is the string keys of the lifetime tests: distinct, with
// lengths that differ.
func drainKeys(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%d", prefix, i*7919)
	}
	return keys
}

// TestDrainOutlivesItsContainer: keys and value lists kept from one drain
// stay byte-identical after Release, after a new fill reuses the pages and
// after a second drain.
func TestDrainOutlivesItsContainer(t *testing.T) {
	mem := memory.NewManager(4096, 0)
	fillAgg := func(prefix string) *DecaAgg[string, int64] {
		b, err := NewDecaAgg[string, int64](mem, addI, str, i64, "")
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range drainKeys(prefix, 3_000) {
			b.Put(k, int64(i))
		}
		return b
	}
	fillGroup := func(base int64) *DecaGroup[string, int64] {
		b := NewDecaGroup[string, int64](mem, str, i64, "")
		for i, k := range drainKeys("g", 1_000) {
			for j := 0; j <= i%4; j++ {
				b.Put(k, base+int64(j))
			}
		}
		return b
	}

	agg := fillAgg("a")
	keys := map[string]int64{}
	if err := agg.Drain(func(k string, v int64) bool { keys[k] = v; return true }); err != nil {
		t.Fatal(err)
	}
	group := fillGroup(0)
	lists := map[string][]int64{}
	if err := group.Drain(func(k string, vs []int64) bool { lists[k] = vs; return true }); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // every kept key and list, as copied bytes
	for k, v := range keys {
		want["agg "+strings.Clone(k)] = fmt.Sprint(v)
	}
	for k, vs := range lists {
		want["group "+strings.Clone(k)] = fmt.Sprint(vs)
	}
	check := func(when string) {
		t.Helper()
		got := map[string]string{}
		for k, v := range keys {
			got["agg "+k] = fmt.Sprint(v)
		}
		for k, vs := range lists {
			got["group "+k] = fmt.Sprint(vs)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d kept keys read back as %d distinct ones", when, len(want), len(got))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: kept %q reads %q, was %q", when, k, got[k], v)
			}
		}
	}

	agg.Release()
	group.Release()
	check("after Release")
	warm := mem.Stats().PagesAllocated
	agg, group = fillAgg("b"), fillGroup(1_000_000)
	defer agg.Release()
	defer group.Release()
	if got := mem.Stats().PagesAllocated; got != warm {
		t.Fatalf("the refill took %d fresh pages: it must reuse the released ones", got-warm)
	}
	check("after a new fill of the same pages")
	if err := agg.Drain(func(string, int64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := group.Drain(func(string, []int64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	check("after a second drain")
}

// TestDrainListsDoNotOverlap: appending to a yielded value list leaves the
// next key's list unchanged, and the list it grew keeps what was appended.
func TestDrainListsDoNotOverlap(t *testing.T) {
	b := NewDecaGroup[int64, int64](memory.NewManager(4096, 0), i64, i64, "")
	defer b.Release()
	for k := int64(0); k < 500; k++ {
		for j := int64(0); j <= k%3; j++ {
			b.Put(k, k*10+j)
		}
	}
	var got, grown [][]int64
	if err := b.Drain(func(k int64, vs []int64) bool {
		got = append(got, vs)
		grown = append(grown, append(vs, -k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for k, vs := range got {
		want := make([]int64, 0, 4)
		for j := 0; j <= k%3; j++ {
			want = append(want, int64(k*10+j))
		}
		if !slices.Equal(vs, want) {
			t.Fatalf("key %d yielded %v, want %v (an append to key %d's list reached it)", k, vs, want, k-1)
		}
		if !slices.Equal(grown[k], append(want, int64(-k))) {
			t.Fatalf("key %d's list grown by one reads %v: the next list overwrote it", k, grown[k])
		}
	}
}

// TestDrainAllocBudget: a drain allocates an array per chunk of what it
// yields — 32 KiB of key bytes (decompose.Chunk), listChunk values — and a
// few objects of its own, never an object per key: DecaAgg[string, int64]
// over 50 k keys, DecaGroup[int64, int64] over 10 k keys, and a re-sort of
// a DecaSort of 20 k string keys, where a sort that decodes both keys of
// every comparison allocates O(n log n) strings.
func TestDrainAllocBudget(t *testing.T) {
	const chunk = 32 << 10
	within := func(what string, got, budget float64) {
		t.Helper()
		t.Logf("%s: %.0f allocations (budget %.0f)", what, got, budget)
		if got > budget {
			t.Errorf("%s took %.0f allocations, budget %.0f", what, got, budget)
		}
	}
	mem := memory.NewManager(1<<20, 0)
	keys := drainKeys("word", 50_000)
	size := 0
	for _, k := range keys {
		size += len(k)
	}

	agg, err := NewDecaAgg[string, int64](mem, addI, str, i64, "")
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Release()
	for i, k := range keys {
		agg.Put(k, int64(i))
	}
	within(fmt.Sprintf("draining %d string keys (%d bytes)", len(keys), size), testing.AllocsPerRun(5, func() {
		agg.Drain(func(string, int64) bool { return true })
	}), float64(size/chunk+4))

	const groupKeys, values = 10_000, 100_000
	group := NewDecaGroup[int64, int64](mem, i64, i64, "")
	defer group.Release()
	for i := int64(0); i < values; i++ {
		group.Put(i*7919%groupKeys, i)
	}
	within(fmt.Sprintf("draining %d keys with %d values", groupKeys, values), testing.AllocsPerRun(5, func() {
		group.Drain(func(int64, []int64) bool { return true })
	}), float64(values/listChunk+4))

	sorter := NewDecaSort[string, int64](mem, func(a, b string) bool { return a < b }, str, i64, "")
	defer sorter.Release()
	size = 0
	for i, k := range keys[:20_000] {
		sorter.Put(k, int64(i))
		size += len(k)
	}
	sorter.DrainSorted(func(string, int64) bool { return true }) // sorted now: what follows re-sorts
	within(fmt.Sprintf("re-sorting %d string keys (%d bytes)", 20_000, size), testing.AllocsPerRun(5, func() {
		sorter.DrainSorted(func(string, int64) bool { return true })
	}), float64(size/chunk+12))
}
