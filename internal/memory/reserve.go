package memory

import (
	"math/bits"
	"os"
	"sync"
	"unsafe"
)

// reserveCap bounds the bytes the process reserve parks: what the largest
// benchmark job touches (wc-shuffle peaks at 165 MB resident) with room to
// spare. Past it, a returned span is unmapped.
const reserveCap = 256 << 20

// hugePage is the alignment and the size unit of a chunk: an x86-64 or
// arm64 transparent huge page.
const hugePage = 2 << 20

// chunkSize is what the reserve maps at a time when no parked span fits:
// four huge pages, so the first job of a process maps tens of chunks where
// it mapped hundreds of pages and slabs one at a time.
const chunkSize = 4 * hugePage

// reserveSlots is how many spans the reserve parks at most: 256 MiB of
// 1 MiB pages takes 256, and the rest are slabs and short blocks. It is the
// process's only free list, so it holds every span released and not yet
// taken again; past it, the oldest parked span is unmapped. The most the
// benchmark workloads park at once (bench/e2e, seed 1, a 6 s run each,
// counted by an instrumented build): 262 on wc-shuffle, 155 on pr-iter,
// 131 on wc-spill, 68 on lr-cache and 63 on lr-swap.
const reserveSlots = 1024

// processReserve sits under every Manager NewManager returns, for the
// process's lifetime. Tests build their own (newManager).
var processReserve = reserve{cap: reserveCap}

// reserve is the memory below the managers and the one place it goes back
// to: every page and slab a manager releases is parked here, up to cap
// bytes, and the next page or slab any manager asks for is taken back
// without a fault, a zeroing by the kernel or a munmap. A span past the cap
// is unmapped, and past the slots the oldest parked one is. When no parked
// span fits, a span is cut from a huge-page-aligned chunk (mapChunk).
//
// A span is a whole number of OS pages that starts on one: the mapping a
// manager's page or block of n bytes is the front of (whole). Parked spans
// are kept in the order they were parked in a fixed array, so the
// bookkeeping allocates nothing, and are dirty: a take reports a parked
// span as not fresh, and NewSlab clears it. Under -tags decapoison a
// parked span is PROT_NONE.
type reserve struct {
	cap int64

	mu     sync.Mutex
	chunk  []byte // the uncut rest of the last chunk mapped
	spans  [reserveSlots][]byte
	n      int   // spans[:n] are parked, the most recent last
	parked int64 // bytes of spans[:n]
}

var osPage = os.Getpagesize()

// mappedLen rounds n up to whole OS pages.
func mappedLen(n int) int { return (n + osPage - 1) &^ (osPage - 1) }

// whole is the entire span b is the front of.
func whole(b []byte) []byte { return unsafe.Slice(unsafe.SliceData(b), mappedLen(cap(b))) }

// sizeClass is the power-of-two size class of n bytes: class c holds sizes
// in [2^c, 2^(c+1)).
func sizeClass(n int) int { return bits.Len(uint(n)) - 1 }

// take returns a zero-length slice of capacity n, 8-byte aligned because it
// starts an OS page: the front of the best-fitting parked span of n's size
// class (dirty, fresh false), whose rest stays parked, or else cut from a
// chunk (zeroed, fresh true). Among spans that fit equally well the one
// parked last wins, the order a free stack serves in: the span just
// released is the likeliest to be still in the caches. Staying inside the
// class bounds the waste at 2× and keeps a small request from splitting
// the large span a sibling is about to ask for.
func (r *reserve) take(n int) (b []byte, fresh bool) {
	need := mappedLen(n)
	class := sizeClass(need)
	r.mu.Lock()
	defer r.mu.Unlock()
	best := -1
	for i := r.n - 1; i >= 0; i-- {
		l := len(r.spans[i])
		if l < need || sizeClass(l) != class || best >= 0 && l >= len(r.spans[best]) {
			continue
		}
		if best = i; l == need {
			break
		}
	}
	if best >= 0 {
		s := r.removeLocked(best)
		if len(s) > need {
			r.parkLocked(s[need:])
		}
		front := s[:need:need]
		unpoison(front)
		return front[:0:n], false
	}
	if len(r.chunk) < need {
		rest := r.chunk
		r.chunk = mapChunk(max(chunkSize, (need+hugePage-1)&^(hugePage-1)))
		if len(rest) > 0 {
			r.giveLocked(rest)
		}
	}
	s := r.chunk[:need:need]
	r.chunk = r.chunk[need:]
	return s[:0:n], true
}

// give takes back the spans the slices in bs are the fronts of (one of
// capacity 0 is no span). Their lifetimes, and those of every slice of
// them, are over.
func (r *reserve) give(bs ...[]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range bs {
		if cap(b) > 0 {
			r.giveLocked(whole(b))
		}
	}
}

// giveLocked parks s, or unmaps it if the cap has no room for it. With
// every slot taken the oldest parked span is unmapped to make room, so
// spans of a size no one asks for any more cannot hold every slot while
// each span released after them is unmapped.
func (r *reserve) giveLocked(s []byte) {
	if r.parked+int64(len(s)) > r.cap {
		unmapAnon(s)
		return
	}
	if r.n == len(r.spans) {
		unmapAnon(r.removeLocked(0))
	}
	poison(s)
	r.parkLocked(s)
}

// parkLocked adds the span s, already poisoned, to the parked set as its
// most recent; the caller has checked the cap and freed a slot.
func (r *reserve) parkLocked(s []byte) {
	r.spans[r.n] = s
	r.n++
	r.parked += int64(len(s))
}

// removeLocked takes spans[i] out of the parked set and keeps the rest in
// the order they were parked.
func (r *reserve) removeLocked(i int) []byte {
	s := r.spans[i]
	r.n--
	copy(r.spans[i:r.n], r.spans[i+1:r.n+1])
	r.spans[r.n] = nil
	r.parked -= int64(len(s))
	return s
}

// bytes is what the reserve parks now.
func (r *reserve) bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.parked
}

// ReserveBytes is the resident memory the process reserve parks: every
// page and slab released and not yet taken again, a level of the process,
// not of one executor (every manager in a process shares the reserve).
func ReserveBytes() int64 { return processReserve.bytes() }
