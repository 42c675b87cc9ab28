package memory

import (
	"bytes"
	"sync"
	"testing"

	"deca/internal/obs"
)

// TestSlabLedger: a slab is charged while held, given back once when
// released — however often Release is called — and comes back zeroed.
func TestSlabLedger(t *testing.T) {
	m, r := ownManager(t, 1<<16)
	s := m.NewSlab(192) // a 16-slot index table: not a 64 KiB page
	if st := m.Counters(); st[obs.PageBytesInUse] != 192 || s.Footprint() != 192 || st[obs.PagesAllocated] != 1 {
		t.Fatalf("a 192-byte slab is charged %d bytes (footprint %d) in %d allocations, want 192 in 1", st[obs.PageBytesInUse], s.Footprint(), st[obs.PagesAllocated])
	}
	for i := range s.Bytes() {
		s.Bytes()[i] = 0xff
	}
	s.Release()
	s.Release()
	if st := m.Counters(); st[obs.PageBytesInUse] != 0 || r.bytes() != int64(osPage) || st[obs.PagesReleased] != 1 {
		t.Fatalf("after a double Release: %+v, reserve %d bytes; want 0 in use, one OS page parked, 1 released", st, r.bytes())
	}
	if s.Bytes() != nil || s.Footprint() != 0 {
		t.Error("a released slab still shows its memory")
	}
	again := m.NewSlab(192)
	defer again.Release()
	if st := m.Counters(); st[obs.PagesAllocated] != 1 || st[obs.PagesReused] != 1 || r.bytes() != 0 {
		t.Errorf("the second slab of a size was not the first one's memory: %+v", st)
	}
	if !bytes.Equal(again.Bytes(), make([]byte, 192)) {
		t.Error("a recycled slab is not zeroed")
	}
}

// TestSlabSizeClasses: a request is served from its own power-of-two
// class only — never a span less than it asks for, never one of a larger
// class a sibling will want — and, within the class, by the best fit; a
// larger span is split, and its rest stays parked.
func TestSlabSizeClasses(t *testing.T) {
	if osPage != 4096 {
		t.Skipf("sizes are written for 4 KiB OS pages, not %d", osPage)
	}
	const k = 1 << 10
	m, r := ownManager(t, 4096)
	hold := func(n int) *Slab { s := m.NewSlab(n); return &s }
	big, mid, small := hold(60*k), hold(40*k), hold(36*k) // one class: [32 KiB, 64 KiB)
	other := hold(96 * k)                                 // the next one
	at := func(s *Slab) uintptr { return spanOf(s.buf).lo }
	bigAt, midAt, smallAt, otherAt := at(big), at(mid), at(small), at(other)
	for _, s := range []*Slab{big, small, mid, other} { // parked in this order, newest last
		s.Release()
	}
	base := m.Counters()

	for _, c := range []struct {
		want int
		at   uintptr // 0: a fresh span
	}{
		{38 * k, midAt},   // the best fit of its class
		{36 * k, smallAt}, // the best fit left
		{20 * k, 0},       // class [16 KiB, 32 KiB) is empty: the larger spans are not for it
		{70 * k, otherAt}, // class [64 KiB, 128 KiB); its 24 KiB rest stays parked
		{50 * k, bigAt},   // the last one of [32 KiB, 64 KiB), split too
		{24 * k, otherAt + 72*k},
	} {
		s := m.NewSlab(c.want)
		defer s.Release()
		if c.at != 0 && at(&s) != c.at {
			t.Errorf("a %d KiB request got the span at %#x, want the one at %#x", c.want/k, at(&s), c.at)
		}
		if c.at == 0 && (at(&s) == bigAt || at(&s) == otherAt) {
			t.Errorf("a %d KiB request got a parked span of a larger class", c.want/k)
		}
		if s.Footprint() != int64(c.want) {
			t.Errorf("a %d-byte request is charged %d bytes", c.want, s.Footprint())
		}
	}
	if st := m.Counters(); st[obs.PagesReused]-base[obs.PagesReused] != 5 || st[obs.PagesAllocated]-base[obs.PagesAllocated] != 1 || r.bytes() != 8*k {
		t.Errorf("6 requests: %d reused, %d fresh, %d bytes still parked; want 5, 1 and big's 8 KiB rest",
			st[obs.PagesReused]-base[obs.PagesReused], st[obs.PagesAllocated]-base[obs.PagesAllocated], r.bytes())
	}
}

// TestSlabsConcurrent: index tables are taken and returned by every task
// of an executor at once (run under -race).
func TestSlabsConcurrent(t *testing.T) {
	m := NewManager(4096, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := m.NewSlab(192 << (uint(i+w) % 6))
				b := s.Bytes()
				if b[0] != 0 || b[len(b)-1] != 0 {
					t.Error("slab not zeroed")
				}
				b[0], b[len(b)-1] = 1, 1
				g := m.NewGroup()
				g.Alloc(100)
				s.Release()
				g.Release()
			}
		}(w)
	}
	wg.Wait()
	if st := m.Counters(); st[obs.PageBytesInUse] != 0 || st[obs.PageGroupsLive] != 0 || st[obs.PagesAllocated]+st[obs.PagesReused] != st[obs.PagesReleased] {
		t.Errorf("ledger after the storm: %+v", st)
	}
}

// TestRestoreRightSizesShortPages: a frame's short last page restores into
// a block of its own size — whether or not the reserve has a page parked —
// and goes back to the reserve as one.
func TestRestoreRightSizesShortPages(t *testing.T) {
	const page = 64 << 10
	src := NewManager(page, 0)
	g := src.NewGroup()
	g.Alloc(page) // a full page,
	g.Alloc(100)  // and a short second page
	var frame bytes.Buffer
	if _, err := g.Snapshot(&frame); err != nil {
		t.Fatal(err)
	}
	g.Release()

	dst, res := ownManager(t, page)
	warm := dst.NewGroup()
	warm.Alloc(page)
	warm.Alloc(page)
	warm.Release() // two parked pages: the restore takes one
	r, err := dst.RestoreGroup(&frame)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Footprint(); got != page+100 {
		t.Errorf("restored footprint %d, want a %d-byte page and a 100-byte block", got, page)
	}
	if st := dst.Counters(); st[obs.PageBytesInUse] != r.Footprint() || res.bytes() != page {
		t.Errorf("manager charges %d for a footprint of %d with %d bytes parked, want one page left in the reserve", st[obs.PageBytesInUse], r.Footprint(), res.bytes())
	}
	r.Release()
	if st := dst.Counters(); st[obs.PageBytesInUse] != 0 || res.bytes() != 2*page+int64(osPage) {
		t.Errorf("after release: %+v, %d bytes parked; want both pages and the block's OS page parked", st, res.bytes())
	}
}
