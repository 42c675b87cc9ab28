package cache

import (
	"encoding/binary"
	"os"
	"reflect"
	"slices"
	"testing"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/serial"
)

// fixed64 serializes an int64 as 8 bytes, so a serialized block of n values
// holds what a Deca block of them does.
type fixed64 struct{}

func (fixed64) Marshal(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}
func (fixed64) Unmarshal(src []byte) (int64, int) {
	return int64(binary.LittleEndian.Uint64(src)), 8
}

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
// the budget over and over writes a block's swap file once, and Unpersist
// removes the files. What the passes cost after that is the level's: a
// serialized block is read back on every pass and evicts another — every
// block ends up written, SwapOutBytes stops at one dataset — while a Deca
// block, once written, is scanned where it lies: only the half that did not
// fit is ever written, and nothing is read back.
func TestWriteOnceEviction(t *testing.T) {
	const blocks, perBlock = 8, 64 // 8 values x 8 bytes each, page size 64
	id := func(p int) BlockID { return BlockID{Dataset: 3, Partition: p} }
	values := func(p int) []int64 {
		vals := make([]int64, 8)
		for i := range vals {
			vals[i] = int64(p*100 + i)
		}
		return vals
	}
	mem := memory.NewManager(perBlock, 0)
	for name, level := range map[string]struct {
		build    func(p int) Block
		readBack bool
	}{
		"serialized": {func(p int) Block {
			return BuildSerializedBlock(slices.Values(values(p)), fixed64{})
		}, true},
		"deca": {func(p int) Block {
			return NewDecaBlock[int64](mem, decompose.Int64Codec{}, values(p))
		}, false},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			m := NewManager(blocks*perBlock/2, dir)
			for p := 0; p < blocks; p++ {
				if err := m.Put(id(p), level.build(p)); err != nil {
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
					blk.(interface{ Each(func(int64) bool) }).Each(func(v int64) bool { first = v; return false })
					if first != int64(p*100) {
						t.Fatalf("pass %d: block %d starts with %d", pass, p, first)
					}
					m.Unpin(id(p))
				}
			}
			st := m.Stats()
			written := int64(blocks * perBlock)
			if !level.readBack {
				written /= 2
			}
			if st.SwapOutBytes != written {
				t.Errorf("SwapOutBytes = %d after %d passes, want %d", st.SwapOutBytes, passes, written)
			}
			if level.readBack && st.SwapInBytes < int64(passes-1)*blocks*perBlock {
				t.Errorf("SwapInBytes = %d: the passes did not go through swap", st.SwapInBytes)
			}
			if !level.readBack && (st.SwapInBytes != 0 || st.Evictions != blocks/2 || st.Misses != 0) {
				t.Errorf("a mapped block was read back, evicted again or missed: %+v", st)
			}
			if got, want := st.MemBytes+st.SwappedBytes, int64(blocks*perBlock); got != want {
				t.Errorf("resident %d + swapped %d = %d, want the dataset's %d", st.MemBytes, st.SwappedBytes, got, want)
			}
			if files, _ := os.ReadDir(dir); int64(len(files))*perBlock != written {
				t.Errorf("%d swap files for %d bytes written", len(files), written)
			}
			m.Unpersist(3)
			if files, _ := os.ReadDir(dir); len(files) != 0 {
				t.Errorf("%d swap files survived Unpersist", len(files))
			}
			if st := mem.Stats(); st.BytesInUse != 0 || st.LiveGroups != 0 {
				t.Errorf("pages or mappings leaked after Unpersist: %+v", st)
			}
		})
	}
}

// TestSwappedDecaBlockScansItsFile: an evicted Deca block is a mapping of
// its swap file. A Get of it is a hit that reads nothing back, its pages
// are byte for byte the ones it was built into and pointers recorded then
// still resolve, and pass after pass over twice the budget evicts nothing
// more and writes no more files. The accounting keeps its meaning: what is
// in files is SwappedBytes, and MemBytes + SwappedBytes — what
// workloads.Result.CacheBytes reports — is still the dataset.
func TestSwappedDecaBlockScansItsFile(t *testing.T) {
	const blocks, pageSize, perBlock = 6, 128, 40 // 40 values: two full pages and a half
	mem := memory.NewManager(pageSize, 0)
	dir := t.TempDir()
	id := func(p int) BlockID { return BlockID{Dataset: 4, Partition: p} }
	type built struct {
		pages [][]byte
		ptrs  []memory.Ptr
	}
	var want [blocks]built
	var dataset int64
	m := NewManager(blocks/2*3*pageSize, dir)
	for p := 0; p < blocks; p++ {
		g := mem.NewGroup()
		for i := 0; i < perBlock; i++ {
			want[p].ptrs = append(want[p].ptrs, decompose.Write[int64](g, decompose.Int64Codec{}, int64(p*1000+i)))
		}
		for i := 0; i < g.NumPages(); i++ {
			want[p].pages = append(want[p].pages, slices.Clone(g.Page(i)))
		}
		dataset += g.Footprint()
		if err := m.Put(id(p), NewDecaBlockFromGroup[int64](mem, decompose.Int64Codec{}, g, perBlock)); err != nil {
			t.Fatal(err)
		}
		m.Unpin(id(p))
	}
	after := m.Stats()
	if after.Evictions != blocks/2 || after.SwapOutBytes != dataset/2 || after.SwappedBytes != dataset/2 || after.MemBytes != dataset/2 {
		t.Fatalf("after the build: %+v, want half of %d bytes evicted", after, dataset)
	}
	if mem.InUse() != dataset/2 {
		t.Errorf("manager holds %d bytes, want the resident half of %d", mem.InUse(), dataset)
	}
	mapped := 0
	for pass := 0; pass < 6; pass++ {
		for p := 0; p < blocks; p++ {
			blk, ok, err := m.Get(id(p))
			if err != nil || !ok {
				t.Fatalf("pass %d: Get(%d): ok=%v err=%v", pass, p, ok, err)
			}
			deca := blk.(*DecaBlock[int64])
			if pass == 0 && deca.OnDisk() {
				mapped++
				if deca.MemBytes() != 0 || !deca.InMemory() {
					t.Errorf("mapped block %d: MemBytes %d, InMemory %v", p, deca.MemBytes(), deca.InMemory())
				}
			}
			g := deca.Group()
			if g.NumPages() != len(want[p].pages) {
				t.Fatalf("block %d has %d pages, was built into %d", p, g.NumPages(), len(want[p].pages))
			}
			for i, page := range want[p].pages {
				if !slices.Equal(g.Page(i), page) {
					t.Fatalf("pass %d: block %d page %d differs from the page it was built into", pass, p, i)
				}
			}
			for i, ptr := range want[p].ptrs {
				if got := decompose.I64(g.Bytes(ptr, 8), 0); got != int64(p*1000+i) {
					t.Fatalf("pass %d: block %d record %d at %v reads %d", pass, p, i, ptr, got)
				}
			}
			m.Unpin(id(p))
		}
	}
	if mapped != blocks/2 {
		t.Errorf("%d blocks on disk, want %d", mapped, blocks/2)
	}
	st := m.Stats()
	if st.SwapInBytes != 0 || st.Misses != 0 || st.Hits != 6*blocks {
		t.Errorf("the passes read something back or missed: %+v", st)
	}
	if st.Evictions != after.Evictions || st.SwapOutBytes != after.SwapOutBytes ||
		st.SwappedBytes != after.SwappedBytes || st.MemBytes != after.MemBytes {
		t.Errorf("the passes moved the cache: %+v, was %+v", st, after)
	}
	if files, _ := os.ReadDir(dir); len(files) != blocks/2 {
		t.Errorf("%d swap files, want %d", len(files), blocks/2)
	}
	m.Clear()
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("%d swap files survived Clear", len(files))
	}
	if st := mem.Stats(); st.BytesInUse != 0 || st.LiveGroups != 0 {
		t.Errorf("after Clear the manager holds %+v", st)
	}
}

// TestReclaimSkipsBlocksThatFreeNothing: with a budget smaller than one
// block, reclaim runs out of victims that would free a byte — what is not
// pinned is mapped — and returns over budget instead of evicting a mapping
// round and round.
func TestReclaimSkipsBlocksThatFreeNothing(t *testing.T) {
	mem := memory.NewManager(64, 0)
	m := NewManager(8, t.TempDir())
	id := func(p int) BlockID { return BlockID{Dataset: 5, Partition: p} }
	returns(t, "Put, Unpin and Get over a budget nothing fits", func() {
		for p := 0; p < 3; p++ {
			if err := m.Put(id(p), NewDecaBlock[int64](mem, decompose.Int64Codec{}, []int64{1, 2, 3})); err != nil {
				t.Error(err)
			}
			if p > 0 {
				m.Unpin(id(p)) // block 0 stays pinned, on its pages
			}
		}
		for p := 0; p < 3; p++ {
			if _, ok, err := m.Get(id(p)); !ok || err != nil {
				t.Errorf("Get(%d): ok=%v err=%v", p, ok, err)
			}
		}
	})
	// Block 1 was evicted by block 2's Put; block 2, unpinned over budget,
	// is evicted by the next thing that reclaims — nothing here did.
	if st := m.Stats(); st.Evictions != 1 || st.MemBytes != 128 || st.SwappedBytes != 64 {
		t.Errorf("stats = %+v, want one eviction and two blocks on their pages", st)
	}
	for p := 0; p < 3; p++ {
		m.Unpin(id(p))
		m.Unpin(id(p))
	}
	m.Clear()
	if st := mem.Stats(); st.BytesInUse != 0 || st.LiveGroups != 0 {
		t.Errorf("after Clear the manager holds %+v", st)
	}
}

// TestCountSurvivesSwap: every block type answers Count while its data is
// on disk, and a second SwapOut needs no directory — the file exists. An
// object or serialized block is unreadable until SwapIn; a Deca block reads
// from the file and holds no memory either way.
func TestCountSurvivesSwap(t *testing.T) {
	vals := []int64{4, 5, 6, 7, 8}
	mem := memory.NewManager(64, 0)
	for name, b := range map[string]Block{
		"objects":    intBlock(slices.Clone(vals)),
		"serialized": BuildSerializedBlock(slices.Values(vals), serial.Int64{}),
		"deca":       BuildDecaBlock[int64](mem, decompose.Int64Codec{}, slices.Values(vals)),
	} {
		dir := t.TempDir()
		held := b.MemBytes()
		if err := b.SwapOut(dir); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.InMemory() != (name == "deca") || b.MemBytes() != 0 || !b.OnDisk() || b.Count() != len(vals) {
			t.Errorf("%s swapped out: readable=%v bytes=%d onDisk=%v count=%d", name, b.InMemory(), b.MemBytes(), b.OnDisk(), b.Count())
		}
		if err := b.SwapIn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := held
		if name == "deca" {
			want = 0
		}
		if !b.InMemory() || b.MemBytes() != want || !b.OnDisk() || b.Count() != len(vals) {
			t.Errorf("%s swapped in: readable=%v bytes=%d (want %d) onDisk=%v count=%d", name, b.InMemory(), b.MemBytes(), want, b.OnDisk(), b.Count())
		}
		var got []int64
		b.(interface{ Each(func(int64) bool) }).Each(func(v int64) bool { got = append(got, v); return true })
		if !slices.Equal(got, vals) {
			t.Errorf("%s after the swap reads %v", name, got)
		}
		if err := b.SwapOut("/nonexistent"); err != nil {
			t.Errorf("%s: second SwapOut wrote again: %v", name, err)
		}
		b.Drop()
		if files, _ := os.ReadDir(dir); len(files) != 0 || b.OnDisk() {
			t.Errorf("%s: swap file survived Drop", name)
		}
	}
	if st := mem.Stats(); st.BytesInUse != 0 || st.LiveGroups != 0 {
		t.Errorf("the deca block left %+v", st)
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
