package cache

import (
	"os"
	"reflect"
	"slices"
	"testing"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/serial"
)

func intBlock(vals []int64) *ObjectBlock[int64] {
	return NewObjectBlock(vals, func(int64) int { return 16 }, serial.Int64{})
}

func TestPutGetUnpersist(t *testing.T) {
	m := NewManager(0, t.TempDir())
	id := BlockID{Dataset: 1, Partition: 0}
	if err := m.Put(id, intBlock([]int64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	m.Unpin(id)

	b, ok, err := m.Get(id)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	got := b.(*ObjectBlock[int64]).Values()
	if !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Errorf("values = %v", got)
	}
	m.Unpin(id)

	m.Unpersist(1)
	if m.Contains(id) {
		t.Error("block survived Unpersist")
	}
	if _, ok, _ := m.Get(id); ok {
		t.Error("Get after Unpersist should miss")
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEvictionSwapsOldest(t *testing.T) {
	// Budget of 40 bytes, blocks of 32 bytes each → inserting the second
	// must swap out the first (LRU), not the newcomer.
	m := NewManager(40, t.TempDir())
	a := BlockID{Dataset: 1, Partition: 0}
	b := BlockID{Dataset: 1, Partition: 1}

	if err := m.Put(a, intBlock([]int64{1, 2})); err != nil {
		t.Fatal(err)
	}
	m.Unpin(a)
	if err := m.Put(b, intBlock([]int64{3, 4})); err != nil {
		t.Fatal(err)
	}
	m.Unpin(b)

	st := m.Stats()
	if st.Evictions == 0 || st.SwapOutBytes == 0 {
		t.Fatalf("expected a swap-out eviction, stats = %+v", st)
	}

	// Block a must come back transparently.
	blk, ok, err := m.Get(a)
	if err != nil || !ok {
		t.Fatalf("Get(a): ok=%v err=%v", ok, err)
	}
	if got := blk.(*ObjectBlock[int64]).Values(); !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Errorf("swapped-in values = %v", got)
	}
	m.Unpin(a)
	if m.Stats().SwapInBytes == 0 {
		t.Error("SwapInBytes = 0 after swap-in")
	}
}

func TestEvictionDropsNonSwappable(t *testing.T) {
	m := NewManager(40, t.TempDir())
	a := BlockID{Dataset: 1, Partition: 0}
	b := BlockID{Dataset: 1, Partition: 1}
	// No serializer → not swappable → eviction drops.
	m.Put(a, NewObjectBlock([]int64{1, 2}, func(int64) int { return 16 }, nil))
	m.Unpin(a)
	m.Put(b, NewObjectBlock([]int64{3, 4}, func(int64) int { return 16 }, nil))
	m.Unpin(b)

	if m.Contains(a) {
		t.Error("non-swappable LRU block should have been dropped")
	}
	if m.Stats().Drops == 0 {
		t.Error("Drops = 0")
	}
}

func TestPinnedBlocksNotEvicted(t *testing.T) {
	m := NewManager(40, t.TempDir())
	a := BlockID{Dataset: 1, Partition: 0}
	b := BlockID{Dataset: 1, Partition: 1}
	m.Put(a, intBlock([]int64{1, 2}))
	// a stays pinned.
	m.Put(b, intBlock([]int64{3, 4}))
	m.Unpin(b)

	blk, ok, _ := m.Get(a)
	if !ok || !blk.InMemory() {
		t.Error("pinned block was evicted")
	}
}

func TestSerializedBlockRoundTrip(t *testing.T) {
	vals := []int64{5, -6, 7}
	b := BuildSerializedBlock(slices.Values(vals), serial.Int64{})
	if b.Count() != 3 {
		t.Errorf("Count = %d", b.Count())
	}
	if got := b.Decode(); !reflect.DeepEqual(got, vals) {
		t.Errorf("Decode = %v", got)
	}
	var each []int64
	b.Each(func(v int64) bool { each = append(each, v); return true })
	if !reflect.DeepEqual(each, vals) {
		t.Errorf("Each = %v", each)
	}

	dir := t.TempDir()
	if err := b.SwapOut(dir); err != nil {
		t.Fatal(err)
	}
	if b.InMemory() || b.MemBytes() != 0 {
		t.Error("block still resident after SwapOut")
	}
	if err := b.SwapIn(); err != nil {
		t.Fatal(err)
	}
	if got := b.Decode(); !reflect.DeepEqual(got, vals) {
		t.Errorf("post-swap Decode = %v", got)
	}
	b.Drop()
}

func TestDecaBlockRoundTrip(t *testing.T) {
	mem := memory.NewManager(64, 0)
	vals := []int64{10, 20, 30, 40}
	b := NewDecaBlock[int64](mem, decompose.Int64Codec{}, vals)
	if b.Count() != 4 {
		t.Errorf("Count = %d", b.Count())
	}
	var got []int64
	b.Each(func(v int64) bool { got = append(got, v); return true })
	if !reflect.DeepEqual(got, vals) {
		t.Errorf("Each = %v", got)
	}

	dir := t.TempDir()
	if err := b.SwapOut(dir); err != nil {
		t.Fatal(err)
	}
	if mem.InUse() != 0 {
		t.Errorf("pages not released on swap-out: %d", mem.InUse())
	}
	if err := b.SwapIn(); err != nil {
		t.Fatal(err)
	}
	got = nil
	b.Each(func(v int64) bool { got = append(got, v); return true })
	if !reflect.DeepEqual(got, vals) {
		t.Errorf("post-swap Each = %v", got)
	}
	b.Drop()
	if mem.InUse() != 0 {
		t.Errorf("pages leaked after Drop: %d", mem.InUse())
	}
}

func TestDecaBlockFromGroup(t *testing.T) {
	mem := memory.NewManager(64, 0)
	g := mem.NewGroup()
	decompose.Write[int64](g, decompose.Int64Codec{}, 1)
	decompose.Write[int64](g, decompose.Int64Codec{}, 2)
	b := NewDecaBlockFromGroup[int64](mem, decompose.Int64Codec{}, g, 2)
	var got []int64
	b.Each(func(v int64) bool { got = append(got, v); return true })
	if !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Errorf("Each = %v", got)
	}
	b.Drop()
}

func TestDecaBlockEvictionViaManager(t *testing.T) {
	mem := memory.NewManager(64, 0)
	m := NewManager(100, t.TempDir())
	a := BlockID{Dataset: 9, Partition: 0}
	b := BlockID{Dataset: 9, Partition: 1}
	m.Put(a, NewDecaBlock[int64](mem, decompose.Int64Codec{}, []int64{1, 2, 3, 4, 5, 6, 7, 8}))
	m.Unpin(a)
	m.Put(b, NewDecaBlock[int64](mem, decompose.Int64Codec{}, []int64{9, 10, 11, 12, 13, 14, 15, 16}))
	m.Unpin(b)

	st := m.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected eviction, stats = %+v", st)
	}
	blk, ok, err := m.Get(a)
	if err != nil || !ok {
		t.Fatalf("Get(a): %v %v", ok, err)
	}
	var got []int64
	blk.(*DecaBlock[int64]).Each(func(v int64) bool { got = append(got, v); return true })
	if !reflect.DeepEqual(got, []int64{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("values after page swap round-trip = %v", got)
	}
	m.Unpin(a)
	m.Clear()
	if mem.InUse() != 0 {
		t.Errorf("pages leaked after Clear: %d", mem.InUse())
	}
}

func TestObjectBlockSwapErrors(t *testing.T) {
	b := NewObjectBlock([]int64{1}, nil, nil)
	if err := b.SwapOut(t.TempDir()); err == nil {
		t.Error("SwapOut without serializer must fail")
	}
	b2 := intBlock([]int64{1})
	if err := b2.SwapIn(); err != nil {
		t.Errorf("SwapIn on a resident block must be a no-op, got %v", err)
	}
	if !b2.InMemory() {
		t.Error("block lost residency")
	}
}

func TestPutReplacesExisting(t *testing.T) {
	m := NewManager(0, "")
	id := BlockID{Dataset: 2, Partition: 0}
	m.Put(id, intBlock([]int64{1}))
	m.Unpin(id)
	m.Put(id, intBlock([]int64{2}))
	m.Unpin(id)
	blk, ok, _ := m.Get(id)
	if !ok {
		t.Fatal("miss after replace")
	}
	if got := blk.(*ObjectBlock[int64]).Values(); !reflect.DeepEqual(got, []int64{2}) {
		t.Errorf("values = %v", got)
	}
	m.Unpin(id)
}

// TestWriteOnceEviction: blocks are immutable, so scanning a dataset twice
// the budget over and over writes each block's swap file once — SwapOutBytes
// stops at one dataset's bytes however many passes evict it — while every
// pass still reads it back; Unpersist removes the files.
func TestWriteOnceEviction(t *testing.T) {
	const blocks, perBlock = 8, 64 // 8 values x 8 bytes each, page size 64
	mem := memory.NewManager(perBlock, 0)
	dir := t.TempDir()
	m := NewManager(blocks*perBlock/2, dir)
	id := func(p int) BlockID { return BlockID{Dataset: 3, Partition: p} }
	for p := 0; p < blocks; p++ {
		vals := make([]int64, 8)
		for i := range vals {
			vals[i] = int64(p*100 + i)
		}
		if err := m.Put(id(p), NewDecaBlock[int64](mem, decompose.Int64Codec{}, vals)); err != nil {
			t.Fatal(err)
		}
		m.Unpin(id(p))
	}
	const passes = 5
	for pass := 0; pass < passes; pass++ {
		for p := 0; p < blocks; p++ {
			blk, ok, err := m.Get(id(p))
			if err != nil || !ok {
				t.Fatalf("pass %d: Get(%d): ok=%v err=%v", pass, p, ok, err)
			}
			var first int64 = -1
			blk.(*DecaBlock[int64]).Each(func(v int64) bool { first = v; return false })
			if first != int64(p*100) {
				t.Fatalf("pass %d: block %d starts with %d", pass, p, first)
			}
			m.Unpin(id(p))
		}
	}
	st := m.Stats()
	if want := int64(blocks * perBlock); st.SwapOutBytes != want {
		t.Errorf("SwapOutBytes = %d after %d passes, want one dataset = %d", st.SwapOutBytes, passes, want)
	}
	if st.SwapInBytes < int64(passes-1)*blocks*perBlock {
		t.Errorf("SwapInBytes = %d: the passes did not go through swap", st.SwapInBytes)
	}
	if got, want := st.MemBytes+st.SwappedBytes, int64(blocks*perBlock); got != want {
		t.Errorf("resident %d + swapped %d = %d, want the dataset's %d", st.MemBytes, st.SwappedBytes, got, want)
	}
	if files, _ := os.ReadDir(dir); len(files) != blocks {
		t.Errorf("%d swap files for %d blocks", len(files), blocks)
	}
	m.Unpersist(3)
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("%d swap files survived Unpersist", len(files))
	}
	if mem.InUse() != 0 {
		t.Errorf("pages leaked after Unpersist: %d", mem.InUse())
	}
}

// TestCountSurvivesSwap: every block type answers Count while its data is
// on disk, and a second SwapOut needs no directory — the file exists.
func TestCountSurvivesSwap(t *testing.T) {
	vals := []int64{4, 5, 6, 7, 8}
	mem := memory.NewManager(64, 0)
	for name, b := range map[string]Block{
		"objects":    intBlock(slices.Clone(vals)),
		"serialized": BuildSerializedBlock(slices.Values(vals), serial.Int64{}),
		"deca":       BuildDecaBlock[int64](mem, decompose.Int64Codec{}, slices.Values(vals)),
	} {
		dir := t.TempDir()
		if err := b.SwapOut(dir); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.InMemory() || !b.OnDisk() || b.Count() != len(vals) {
			t.Errorf("%s swapped out: resident=%v onDisk=%v count=%d", name, b.InMemory(), b.OnDisk(), b.Count())
		}
		if err := b.SwapIn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !b.InMemory() || !b.OnDisk() || b.Count() != len(vals) {
			t.Errorf("%s swapped in: resident=%v onDisk=%v count=%d", name, b.InMemory(), b.OnDisk(), b.Count())
		}
		if err := b.SwapOut("/nonexistent"); err != nil {
			t.Errorf("%s: second SwapOut wrote again: %v", name, err)
		}
		b.Drop()
		if files, _ := os.ReadDir(dir); len(files) != 0 || b.OnDisk() {
			t.Errorf("%s: swap file survived Drop", name)
		}
	}
}

// TestBuildDecaBlockReleasesOnPanic: a record stream that dies mid-build
// takes the half-filled page group with it.
func TestBuildDecaBlockReleasesOnPanic(t *testing.T) {
	mem := memory.NewManager(64, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the stream's panic was swallowed")
			}
		}()
		BuildDecaBlock[int64](mem, decompose.Int64Codec{}, func(yield func(int64) bool) {
			for i := int64(0); i < 100; i++ {
				yield(i)
			}
			panic("upstream failed")
		})
	}()
	if st := mem.Stats(); st.LiveGroups != 0 || st.BytesInUse != 0 {
		t.Errorf("failed build left %d live groups, %d bytes in use", st.LiveGroups, st.BytesInUse)
	}
}
