package memory

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"unsafe"

	"deca/internal/obs"
)

// trim unmaps everything the reserve holds: its parked spans and the uncut
// rest of its last chunk.
func (r *reserve) trim() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.spans[:r.n] {
		unmapAnon(s)
		r.spans[i] = nil
	}
	r.n, r.parked = 0, 0
	unmapAnon(r.chunk)
	r.chunk = nil
}

// ownManager is a manager over a reserve of its own, trimmed when the test
// ends, so its counts do not depend on what other tests left parked in the
// process reserve.
func ownManager(t *testing.T, pageSize int) (*Manager, *reserve) {
	r := &reserve{cap: reserveCap}
	t.Cleanup(r.trim)
	return newManager(pageSize, 0, r), r
}

// TestReserveReusesWhatAManagerLeft: a second manager's pages and slabs
// are the first one's, taken back from the reserve dirty (a slab cleared
// all the same), and no take maps a chunk.
func TestReserveReusesWhatAManagerLeft(t *testing.T) {
	first, r := ownManager(t, 1<<20)
	g := first.NewGroup()
	for range 4 {
		seg, _ := g.Alloc(1 << 20)
		seg[0], seg[len(seg)-1] = 0xee, 0xee
	}
	s := first.NewSlab(3000)
	copy(s.Bytes(), "dirty")
	g.Release()
	s.Release()
	if got, want := r.bytes(), int64(4<<20+mappedLen(3000)); got != want {
		t.Fatalf("after the releases the reserve parks %d bytes, want %d", got, want)
	}
	first.Close()

	second := newManager(1<<20, 0, r)
	defer second.Close()
	g = second.NewGroup()
	for range 4 {
		g.Alloc(1 << 20)
	}
	s = second.NewSlab(3000)
	for i, b := range s.Bytes() {
		if b != 0 {
			t.Fatalf("a slab from the reserve has byte %d = %#x, want it cleared", i, b)
		}
	}
	if c := second.Counters(); c[obs.PagesReused] != 5 || c[obs.PagesAllocated] != 0 {
		t.Errorf("second manager: %d reused, %d cut fresh; want 5 and 0", c[obs.PagesReused], c[obs.PagesAllocated])
	}
	if r.bytes() != 0 {
		t.Errorf("the reserve still parks %d bytes", r.bytes())
	}
	g.Release()
	s.Release()
}

// TestReleasedPageIsAnotherManagersNext: memory goes back to the one place
// every manager takes from. While two managers are open, a page one
// releases is the other's next page, and within a size class the span
// parked last is taken first.
func TestReleasedPageIsAnotherManagersNext(t *testing.T) {
	a, r := ownManager(t, 64<<10)
	b := newManager(64<<10, 0, r)
	defer a.Close()
	defer b.Close()
	ga := a.NewGroup()
	seg, _ := ga.Alloc(100)
	released := spanOf(seg).lo
	ga.Release()
	gb := b.NewGroup()
	defer gb.Release()
	if seg, _ := gb.Alloc(100); spanOf(seg).lo != released {
		t.Errorf("b's page is at %#x, want the one a released at %#x", spanOf(seg).lo, released)
	}
	if c := b.Counters(); c[obs.PagesReused] != 1 || c[obs.PagesAllocated] != 0 {
		t.Errorf("b: %d reused, %d cut fresh; want 1 and 0", c[obs.PagesReused], c[obs.PagesAllocated])
	}

	p1, p2 := a.NewSlab(5000), a.NewSlab(6000) // one class: two OS pages each
	at2 := spanOf(p2.buf).lo
	p1.Release()
	p2.Release()
	next := b.NewSlab(5000)
	defer next.Release()
	if spanOf(next.buf).lo != at2 {
		t.Errorf("the next take got the span at %#x, want p2's at %#x, the one parked last", spanOf(next.buf).lo, at2)
	}
}

// TestReserveSlotsBound: the reserve is the process's only free list, so
// its slot array is a bound too. Once reserveSlots spans are parked, the
// next span given back unmaps the oldest one parked, and neither the
// parked count nor the parked bytes grow.
func TestReserveSlotsBound(t *testing.T) {
	r := &reserve{cap: 1 << 40}
	defer r.trim()
	spans := make([][]byte, reserveSlots+1)
	for i := range spans {
		spans[i], _ = r.take(1)
	}
	r.give(spans[:reserveSlots]...)
	full := r.bytes()
	if r.n != reserveSlots || full != int64(reserveSlots*osPage) {
		t.Fatalf("%d spans given: %d parked, %d bytes; want %d and %d", reserveSlots, r.n, full, reserveSlots, reserveSlots*osPage)
	}
	r.give(spans[reserveSlots])
	if r.n != reserveSlots || r.bytes() != full || spanOf(r.spans[r.n-1]).lo != spanOf(spans[reserveSlots]).lo {
		t.Errorf("a span given to a full reserve: %d parked, %d bytes; want %d and %d, the new span parked last", r.n, r.bytes(), reserveSlots, full)
	}
	if spanOf(r.spans[0]).lo != spanOf(spans[1]).lo {
		t.Error("the oldest span is still parked")
	}
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		return // the Go-heap chunks of other platforms are not unmapped
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if recover() == nil {
			t.Error("the oldest span is still mapped")
		}
	}()
	faultSink = spans[0][:1][0]
}

var faultSink byte

// span is a range of manager memory in the property test's model.
type span struct{ lo, hi uintptr }

func spanOf(b []byte) span {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b[:cap(b)])))
	return span{lo, lo + uintptr(cap(b))}
}

// TestReserveProperty runs random sequences over managers that share a
// small reserve: groups of standard, short and oversized pages, slabs,
// pages adopted across managers, Close in random order and managers
// dropped unclosed. After every step, nothing live
// overlaps anything else live or parked, everything handed out is 8-byte
// aligned, every slab comes zeroed, every live byte holds what was written
// there, and the reserve parks at most its cap.
func TestReserveProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		reserveRun(t, seed)
	}
}

type liveGroup struct {
	g    *Group
	segs []filled // its own and those of the groups it adopted
}

// filled is a segment and the byte written all over it.
type filled struct {
	b    []byte
	fill byte
}

type liveSlab struct {
	s    Slab
	fill byte
}

func reserveRun(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := &reserve{cap: 2 << 20}
	defer r.trim()
	pageSizes := []int{4096, 64 << 10, 256 << 10}
	mgrs := make([]*Manager, 4)
	var took int64 // takes the reserve served from parked spans
	open := func(i int) {
		if m := mgrs[i]; m != nil {
			took += m.Counters()[obs.PagesReused]
		}
		mgrs[i] = newManager(pageSizes[rng.Intn(len(pageSizes))], 0, r)
	}
	for i := range mgrs {
		open(i)
	}
	var groups []*liveGroup
	var slabs []*liveSlab
	fill := byte(0)
	aligned := func(b []byte) {
		if uintptr(unsafe.Pointer(unsafe.SliceData(b[:cap(b)])))%8 != 0 {
			t.Fatalf("seed %d: memory handed out at %p is not 8-byte aligned", seed, unsafe.SliceData(b))
		}
	}

	check := func(step int) {
		var all []span
		for _, lg := range groups {
			for _, p := range lg.g.pages { // an adopted group is no longer listed: each page is here once
				all = append(all, spanOf(p))
			}
			for _, seg := range lg.segs {
				if bytes.Count(seg.b, []byte{seg.fill}) != len(seg.b) {
					t.Fatalf("seed %d step %d: a live segment of fill %#x was overwritten", seed, step, seg.fill)
				}
			}
		}
		for _, ls := range slabs {
			all = append(all, spanOf(ls.s.buf))
			if bytes.Count(ls.s.Bytes(), []byte{ls.fill}) != len(ls.s.Bytes()) {
				t.Fatalf("seed %d step %d: a live slab of fill %#x was overwritten", seed, step, ls.fill)
			}
		}
		r.mu.Lock()
		for _, s := range r.spans[:r.n] {
			all = append(all, spanOf(s))
		}
		parked := r.parked
		r.mu.Unlock()
		if parked > r.cap {
			t.Fatalf("seed %d step %d: the reserve parks %d bytes, over its cap %d", seed, step, parked, r.cap)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].lo < all[j].lo })
		for i := 1; i < len(all); i++ {
			if all[i].lo < all[i-1].hi {
				t.Fatalf("seed %d step %d: [%#x,%#x) overlaps [%#x,%#x)", seed, step, all[i-1].lo, all[i-1].hi, all[i].lo, all[i].hi)
			}
		}
	}

	for step := range 400 {
		i := rng.Intn(len(mgrs))
		m := mgrs[i]
		switch op := rng.Intn(10); {
		case op < 3: // a group of records
			fill++
			lg := &liveGroup{g: m.NewGroup()}
			for range 1 + rng.Intn(6) {
				n := 1 + rng.Intn(m.PageSize()*3/2)
				seg, _ := lg.g.Alloc(n)
				aligned(lg.g.pages[len(lg.g.pages)-1])
				for j := range seg {
					seg[j] = fill
				}
				lg.segs = append(lg.segs, filled{seg, fill})
			}
			groups = append(groups, lg)
		case op < 5: // a slab
			fill++
			s := m.NewSlab(1 + rng.Intn(64<<10))
			aligned(s.Bytes())
			if bytes.Count(s.Bytes(), []byte{0}) != len(s.Bytes()) {
				t.Fatalf("seed %d step %d: a new slab is not zeroed", seed, step)
			}
			for j := range s.Bytes() {
				s.Bytes()[j] = fill
			}
			slabs = append(slabs, &liveSlab{s: s, fill: fill})
		case op < 6 && len(groups) >= 2: // one group adopts another's pages
			a, b := rng.Intn(len(groups)), rng.Intn(len(groups))
			if a == b {
				continue
			}
			dst, src := groups[a], groups[b]
			dst.g.AdoptPages(src.g)
			src.g.Release() // dst holds it as a dependency now
			dst.segs = append(dst.segs, src.segs...)
			groups = append(groups[:b], groups[b+1:]...)
		case op < 8 && len(groups) > 0: // a group's lifetime ends
			k := rng.Intn(len(groups))
			groups[k].g.Release()
			groups = append(groups[:k], groups[k+1:]...)
		case op < 9 && len(slabs) > 0:
			k := rng.Intn(len(slabs))
			slabs[k].s.Release()
			slabs = append(slabs[:k], slabs[k+1:]...)
		case rng.Intn(2) == 0: // a manager's lifetime ends
			m.Close()
			open(i)
		default: // dropped unclosed: it holds nothing to give back
			open(i)
		}
		check(step)
	}
	for _, lg := range groups {
		lg.g.Release()
	}
	for _, ls := range slabs {
		ls.s.Release()
	}
	groups, slabs = nil, nil
	for i := range mgrs {
		mgrs[i].Close()
		open(i)
	}
	check(-1)
	if took == 0 {
		t.Errorf("seed %d: the reserve served no take: the run tested only fresh chunks", seed)
	}
	t.Logf("seed %d: %d takes from parked spans", seed, took)
}
