package memory

import (
	"bytes"
	"testing"

	"deca/internal/obs"
)

// put fills a segment with a repeated byte so tests can recognize it later.
func put(g *Group, b byte, n int) Ptr {
	seg, ptr := g.Alloc(n)
	for i := range seg {
		seg[i] = b
	}
	return ptr
}

func TestAdoptPagesSpansGroups(t *testing.T) {
	m := NewManager(64, 0)
	dst := m.NewGroup()
	src1 := m.NewGroup()
	src2 := m.NewGroup()

	pd := put(dst, 'd', 16)
	p1 := put(src1, 'a', 100) // oversized for a 64-byte page
	p2 := put(src2, 'b', 16)

	base1 := dst.AdoptPages(src1)
	base2 := dst.AdoptPages(src2)
	if base1 != 1 || base2 != 2 {
		t.Fatalf("bases = %d, %d; want 1, 2", base1, base2)
	}

	if got := dst.Bytes(pd, 16); !bytes.Equal(got, bytes.Repeat([]byte{'d'}, 16)) {
		t.Errorf("own segment corrupted: %q", got)
	}
	if got := dst.Bytes(p1.Rebase(base1), 100); !bytes.Equal(got, bytes.Repeat([]byte{'a'}, 100)) {
		t.Errorf("adopted segment 1 wrong: %q", got[:8])
	}
	if got := dst.Bytes(p2.Rebase(base2), 16); !bytes.Equal(got, bytes.Repeat([]byte{'b'}, 16)) {
		t.Errorf("adopted segment 2 wrong: %q", got)
	}
	if dst.Len() != 16+100+16 {
		t.Errorf("Len = %d, want 132", dst.Len())
	}
	if got := m.Counters()[obs.PagesAdopted]; got != 2 {
		t.Errorf("PagesAdopted = %d, want the two source pages", got)
	}

	src1.Release()
	src2.Release()
	dst.Release()
	if in := m.Counters()[obs.PageBytesInUse]; in != 0 {
		t.Errorf("InUse = %d after releasing everything", in)
	}
}

func TestAdoptedPagesSurviveSourceRelease(t *testing.T) {
	m := NewManager(64, 0)
	dst := m.NewGroup()
	src := m.NewGroup()
	p := put(src, 'x', 32)
	base := dst.AdoptPages(src)

	if src.Refs() != 2 {
		t.Fatalf("src refs = %d, want 2 (owner + adopter)", src.Refs())
	}
	inUse := m.Counters()[obs.PageBytesInUse]
	released := m.Counters()[obs.PagesReleased]

	src.Release() // owner lets go; the adopter's dep keeps the pages live
	if src.Refs() != 1 {
		t.Fatalf("src refs after owner release = %d, want 1", src.Refs())
	}
	if got := m.Counters()[obs.PageBytesInUse]; got != inUse {
		t.Errorf("InUse changed on deferred release: %d -> %d", inUse, got)
	}
	if got := dst.Bytes(p.Rebase(base), 32); !bytes.Equal(got, bytes.Repeat([]byte{'x'}, 32)) {
		t.Errorf("adopted bytes lost after source release: %q", got)
	}

	dst.Release() // frees dst and, through deps, src's pages — exactly once
	if got := m.Counters()[obs.PageBytesInUse]; got != 0 {
		t.Errorf("InUse = %d after final release", got)
	}
	if got := m.Counters()[obs.PagesReleased] - released; got != 1 {
		t.Errorf("pages released %d times, want exactly once", got)
	}

	// Over-release must still panic: the source is already fully released.
	defer func() {
		if recover() == nil {
			t.Error("expected panic on over-release of adopted source group")
		}
	}()
	src.Release()
}

func TestAllocAfterAdoptStartsOwnedPage(t *testing.T) {
	m := NewManager(64, 0)
	src := m.NewGroup()
	put(src, 's', 8) // leaves 56 free bytes in src's page
	dst := m.NewGroup()
	dst.AdoptPages(src)

	// The adopted page has room, but g must not write into shared memory:
	// the next Alloc starts a fresh owned page.
	_, ptr := dst.Alloc(8)
	if int(ptr.Page) != dst.NumPages()-1 || dst.isAdopted(int(ptr.Page)) {
		t.Fatalf("Alloc landed on adopted page: %v", ptr)
	}
	if got := src.Page(0); len(got) != 8 {
		t.Errorf("source page grew to %d bytes under the adopter's Alloc", len(got))
	}
	src.Release()
	dst.Release()
}

func TestResetReleasesAdoptedDeps(t *testing.T) {
	m := NewManager(64, 0)
	src := m.NewGroup()
	put(src, 's', 8)
	dst := m.NewGroup()
	put(dst, 'd', 8)
	dst.AdoptPages(src)
	src.Release() // dst's dep is now the only reference

	dst.Reset()
	if got := m.Counters()[obs.PageBytesInUse]; got != 0 {
		t.Errorf("InUse = %d after Reset of the last holder", got)
	}
	// The group stays usable after Reset.
	put(dst, 'e', 8)
	dst.Release()
	if got := m.Counters()[obs.PageBytesInUse]; got != 0 {
		t.Errorf("InUse = %d after final release", got)
	}
}

func TestAdoptAcrossManagersRehomesAccounting(t *testing.T) {
	srcMgr := NewManager(64, 0)
	dstMgr := NewManager(64, 0)
	src := srcMgr.NewGroup()
	put(src, 'x', 100) // one 100-byte oversized page on the source manager

	dst := dstMgr.NewGroup()
	put(dst, 'd', 8)
	dstBefore := dstMgr.Counters()[obs.PageBytesInUse]

	base := dst.AdoptPages(src)
	// The adopter's executor now holds the bytes: the source manager's
	// budget is relieved, the destination's charged.
	if got := srcMgr.Counters()[obs.PageBytesInUse]; got != 0 {
		t.Errorf("source manager still charged %d bytes after adoption", got)
	}
	if got := dstMgr.Counters()[obs.PageBytesInUse]; got != dstBefore+100 {
		t.Errorf("destination manager charged %d bytes, want %d", got, dstBefore+100)
	}
	if srcMgr.Counters()[obs.PageGroupsLive] != 0 || dstMgr.Counters()[obs.PageGroupsLive] != 2 {
		t.Errorf("live groups = %d/%d, want 0/2",
			srcMgr.Counters()[obs.PageGroupsLive], dstMgr.Counters()[obs.PageGroupsLive])
	}

	src.Release()
	if got := dst.Bytes(put2ptr(base), 100); !bytes.Equal(got, bytes.Repeat([]byte{'x'}, 100)) {
		t.Errorf("adopted bytes wrong after cross-manager release: %q", got[:4])
	}
	dst.Release() // releases the re-homed page through the destination's ledger
	if srcMgr.Counters()[obs.PageBytesInUse] != 0 || dstMgr.Counters()[obs.PageBytesInUse] != 0 {
		t.Errorf("InUse after release: src=%d dst=%d", srcMgr.Counters()[obs.PageBytesInUse], dstMgr.Counters()[obs.PageBytesInUse])
	}
	if dstMgr.Counters()[obs.PagesReleased] != 2 {
		t.Errorf("destination released %d pages, want 2 (own + re-homed)", dstMgr.Counters()[obs.PagesReleased])
	}
	if srcMgr.Counters()[obs.PagesReleased] != 0 {
		t.Errorf("source released %d pages, want 0 after re-homing", srcMgr.Counters()[obs.PagesReleased])
	}
}

// put2ptr is the pointer of the first segment of an adopted group whose
// pages landed at base.
func put2ptr(base int) Ptr { return Ptr{}.Rebase(base) }

func TestAdoptSelfPanics(t *testing.T) {
	m := NewManager(64, 0)
	g := m.NewGroup()
	defer g.Release()
	defer func() {
		if recover() == nil {
			t.Error("expected panic adopting own pages")
		}
	}()
	g.AdoptPages(g)
}

// TestOversizedPagePooledSeparately: a released oversized page is parked
// in its own size class, so a standard request does not take it and an
// oversized one does.
func TestOversizedPagePooledSeparately(t *testing.T) {
	m, r := ownManager(t, 4096)
	g := m.NewGroup()
	g.Alloc(3 * 4096) // oversized page
	seg, _ := g.Alloc(8)
	standard := spanOf(seg).lo
	g.Release()
	if r.bytes() != 4*4096 {
		t.Fatalf("the reserve parks %d bytes, want both pages", r.bytes())
	}
	// A standard request must not consume the oversized page.
	g2 := m.NewGroup()
	if seg, _ := g2.Alloc(8); spanOf(seg).lo != standard {
		t.Errorf("a standard page at %#x, want the parked one at %#x", spanOf(seg).lo, standard)
	}
	// An oversized request reuses the parked oversized page.
	reusedBefore := m.Counters()[obs.PagesReused]
	g2.Alloc(2*4096 + 1)
	if got := m.Counters()[obs.PagesReused] - reusedBefore; got != 1 {
		t.Errorf("oversized request reused %d pages, want 1", got)
	}
	g2.Release()
}
