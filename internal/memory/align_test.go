package memory

import (
	"bytes"
	"testing"
	"unsafe"

	"deca/internal/obs"
)

// TestManagerMemoryIsAligned pins the invariant decompose.Float64s/Int64s
// read in place on: every page and block a Manager hands out starts 8-byte
// aligned — fresh or parked, standard, short, oversized, restored from a
// frame — and Group.Alloc packs a page from offset 0, so a record made only
// of 8-byte primitives is aligned too. A mapped swap file (MapGroup) keeps
// the promise for memory that is not the manager's: whatever the page count
// and the page lengths, every page of the mapping starts aligned.
func TestManagerMemoryIsAligned(t *testing.T) {
	aligned := func(what string, b []byte) {
		t.Helper()
		if p := uintptr(unsafe.Pointer(unsafe.SliceData(b[:cap(b)]))); p%8 != 0 {
			t.Errorf("%s starts at %#x, not 8-byte aligned", what, p)
		}
	}
	groupAligned := func(what string, g *Group) {
		t.Helper()
		for i := 0; i < g.NumPages(); i++ {
			if len(g.Page(i)) > 0 {
				aligned(what, g.Page(i))
			}
		}
	}
	odd := []int{1, 3, 7, 9, 13, 15, 17, 31, 33, 63, 65, 100, 129, 1001, 4097}

	for _, pageSize := range []int{64, 0} {
		m, _ := ownManager(t, pageSize)
		// Two rounds: the first takes everything fresh from chunks, the
		// second from the spans the first parked.
		for _, round := range []string{"fresh", "parked"} {
			page := m.getPage(1)
			aligned(round+" page", page)
			held := [][]byte{page}
			for _, n := range odd {
				// Several of each size: small blocks share the allocator's
				// tiny-object cells, where a lone one would be aligned by luck.
				for range 4 {
					b, _ := m.take(n)
					aligned(round+" block", b)
					held = append(held, b)
				}
				big := m.getPage(m.PageSize() + n)
				aligned(round+" oversized page", big)
				held = append(held, big)
			}
			m.give(held...)

			// A group of 24-byte records with a short last page and one
			// oversized record, through the frame and through the swap file.
			g := m.NewGroup()
			rec := bytes.Repeat([]byte{0xab}, 24)
			for range 3*m.PageSize()/len(rec) + 1 {
				ptr := g.Append(rec)
				if ptr.Off%8 != 0 {
					t.Fatalf("%s: record at %v is not packed from an aligned offset", round, ptr)
				}
			}
			g.Append(bytes.Repeat([]byte{0xcd}, m.PageSize()+8))
			g.Append(rec[:8])
			groupAligned(round+" group page", g)

			var frame bytes.Buffer
			if _, err := g.Snapshot(&frame); err != nil {
				t.Fatal(err)
			}
			swap := spillFile(t, spillBytes(t, g))
			g.Release()
			restored, err := m.RestoreGroup(&frame)
			if err != nil {
				t.Fatal(err)
			}
			groupAligned(round+" restored page", restored)
			mapped, err := MapGroup(m, swap)
			if err != nil {
				t.Fatal(err)
			}
			groupAligned(round+" mapped page", mapped)
			restored.Release()
			mapped.Release()
		}
		// Odd page counts (the header's padding) of odd page lengths (the
		// bodies').
		for _, pages := range []int{1, 3, 5, 7, 33} {
			lens := make([]int, pages)
			for i := range lens {
				lens[i] = odd[i%len(odd)]
			}
			mapped, err := MapGroup(m, spillFile(t, spillOf(t, lens...)))
			if err != nil {
				t.Fatal(err)
			}
			if mapped.NumPages() != pages {
				t.Fatalf("%d pages mapped, want %d", mapped.NumPages(), pages)
			}
			groupAligned("mapped odd page", mapped)
			mapped.Release()
		}
		if s := m.Counters(); s[obs.PageBytesInUse] != 0 || s[obs.PagesReused] == 0 {
			t.Errorf("page size %d: in use %d, reused %d: the parked round did not run on parked spans", m.PageSize(), s[obs.PageBytesInUse], s[obs.PagesReused])
		}
	}
}
