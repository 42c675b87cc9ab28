package memory

import (
	"bytes"
	"testing"

	"deca/internal/gcstats"
	"deca/internal/obs"
)

// TestCloseAfterReleases: a manager whose groups and slabs were all
// released has given all of its memory to the reserve already, and Close
// gives nothing more.
func TestCloseAfterReleases(t *testing.T) {
	m, r := ownManager(t, 4096)
	g := m.NewGroup()
	for _, n := range []int{100, 4000, 9000, 30} { // two standard pages, an oversized one, a third page
		g.Alloc(n)
	}
	s := m.NewSlab(192)
	g.Release()
	s.Release()
	parked := int64(3*4096 + mappedLen(9000) + mappedLen(192))
	if st := m.Counters(); st[obs.PageBytesInUse] != 0 || r.bytes() != parked {
		t.Fatalf("before Close: %+v, reserve %d bytes; want nothing in use and %d parked", st, r.bytes(), parked)
	}
	m.Close()
	if st := m.Counters(); st[obs.PageBytesInUse] != 0 || st[obs.PageGroupsLive] != 0 || r.bytes() != parked {
		t.Errorf("after Close: %+v, reserve %d bytes; want nothing in use and the reserve unchanged", st, r.bytes())
	}
}

// TestCloseIsIdempotentAndFinal: a second Close does nothing, and a closed
// manager hands out no page, block or slab.
func TestCloseIsIdempotentAndFinal(t *testing.T) {
	m := NewManager(64, 0)
	m.Close()
	m.Close()
	for name, ask := range map[string]func(){
		"getPage":   func() { m.getPage(1) },
		"oversized": func() { m.getPage(1000) },
		"take":      func() { m.take(10) },
		"NewSlab":   func() { m.NewSlab(10) },
		"Alloc":     func() { m.NewGroup().Alloc(8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Close did not panic", name)
				}
			}()
			ask()
		}()
	}
}

// TestCloseUnderLiveGroup: Close never takes memory a live group or slab
// may still read. Their bytes stay readable and in BytesInUse, and their
// release gives them to the reserve as it would before Close.
func TestCloseUnderLiveGroup(t *testing.T) {
	m, r := ownManager(t, 256)
	g := m.NewGroup()
	var want [][]byte
	var ptrs []Ptr
	for i := range 40 {
		b := bytes.Repeat([]byte{byte(i)}, 1+i*9) // standard pages and oversized ones
		want = append(want, b)
		ptrs = append(ptrs, g.Append(b))
	}
	s := m.NewSlab(100)
	copy(s.Bytes(), "slab bytes")

	m.Close()
	if st, live := m.Counters(), g.Footprint()+s.Footprint(); st[obs.PageBytesInUse] != live {
		t.Errorf("closed under a live group: %+v, want %d bytes in use", st, live)
	}
	for i, p := range ptrs {
		if !bytes.Equal(g.Bytes(p, len(want[i])), want[i]) {
			t.Fatalf("segment %d changed under Close", i)
		}
	}
	if string(s.Bytes()[:10]) != "slab bytes" {
		t.Error("the slab changed under Close")
	}
	parked := r.bytes()
	g.Release()
	s.Release()
	if st := m.Counters(); st[obs.PageBytesInUse] != 0 || st[obs.PageGroupsLive] != 0 || r.bytes() <= parked {
		t.Errorf("released after Close: %+v, reserve %d bytes (%d before); want nothing in use, the reserve grown", st, r.bytes(), parked)
	}
}

// rssAnon is the process's resident anonymous memory; the test is skipped
// where the kernel does not report it.
func rssAnon(t *testing.T) int64 {
	t.Helper()
	n := gcstats.ReadProcMem().RSSAnon
	if n == 0 {
		t.Skip("no RssAnon in /proc/self/status on this platform")
	}
	return n
}

const (
	touched  = 64 << 20
	smallCap = 16 << 20 // the test reserves' cap: a quarter of what they are given
	slack    = 8 << 20  // what the Go heap and the runtime may move meanwhile
)

// touch takes and touches touched bytes of 1 MiB pages of m in one group,
// and fails the test unless RssAnon rose above before by most of them.
func touch(t *testing.T, m *Manager, before int64) *Group {
	t.Helper()
	g := m.NewGroup()
	for range touched / m.PageSize() {
		seg, _ := g.Alloc(m.PageSize())
		for i := 0; i < len(seg); i += 4096 {
			seg[i] = 1
		}
	}
	if held := rssAnon(t) - before; held < touched*3/4 {
		t.Fatalf("64 MiB of touched pages raised RssAnon by only %d MiB: the test measures nothing", held>>20)
	}
	return g
}

// closedRSS is how far above its start RssAnon stands once 64 MiB of
// pages were touched, released and closed over the reserve r, and
// trimming r brings it back within slack.
func closedRSS(t *testing.T, r *reserve) int64 {
	t.Helper()
	before := rssAnon(t)
	m := newManager(1<<20, 0, r)
	touch(t, m, before).Release()
	m.Close()
	after := rssAnon(t) - before
	r.trim()
	if trimmed := rssAnon(t) - before; trimmed > slack {
		t.Errorf("RssAnon %d MiB above its start with the reserve trimmed: the pages outlived their reserve", trimmed>>20)
	}
	return after
}

// TestReleasedMemoryLeavesTheProcess is release at lifetime end as the
// kernel sees it: 64 MiB of pages taken, touched, released and closed leave
// RssAnon within the reserve's cap (plus slack) of where it started, which
// memory the collector had to give back could not promise; the reserve
// parks the cap's worth for the next page and unmaps the rest. Its
// positive control is a reserve without a cap, which keeps all 64 MiB.
func TestReleasedMemoryLeavesTheProcess(t *testing.T) {
	if held := closedRSS(t, &reserve{cap: smallCap}); held > smallCap+slack {
		t.Errorf("RssAnon %d MiB above its start after Close over a %d MiB reserve: the reserve held past its cap", held>>20, smallCap>>20)
	}
	if held := closedRSS(t, &reserve{cap: 1 << 40}); held <= smallCap+slack {
		t.Errorf("an uncapped reserve left RssAnon only %d MiB above its start: the bound tests nothing", held>>20)
	}
}

// TestUnclosedManagerPoolIsUnmapped: a manager nobody closes strands
// nothing. Its released pages are with the reserve at once — no Close, no
// collection — which parks its cap's worth and unmaps the rest.
func TestUnclosedManagerPoolIsUnmapped(t *testing.T) {
	r := &reserve{cap: smallCap}
	defer r.trim()
	before := rssAnon(t)
	touch(t, newManager(1<<20, 0, r), before).Release()
	if held := rssAnon(t) - before; held > smallCap+slack {
		t.Errorf("RssAnon %d MiB above its start once an unclosed manager's pages were released over a %d MiB reserve", held>>20, smallCap>>20)
	}
	if got := r.bytes(); got != smallCap {
		t.Errorf("the reserve parks %d MiB of the released pages, want its cap, %d MiB", got>>20, smallCap>>20)
	}
	r.trim()
	if trimmed := rssAnon(t) - before; trimmed > slack {
		t.Errorf("RssAnon %d MiB above its start with the reserve trimmed", trimmed>>20)
	}
}
