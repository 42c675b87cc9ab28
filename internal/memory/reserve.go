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
// 1 MiB pages takes 256, and the rest are slabs and short blocks.
const reserveSlots = 1024

// processReserve sits under every Manager NewManager returns, for the
// process's lifetime. Tests build their own (newManager).
var processReserve = reserve{cap: reserveCap}

// reserve is the memory below the managers: what one manager's lifetime
// ends with (its pool at Close or at cleanup, and whatever its pool has no
// room for) is parked here, up to cap bytes, and the next manager takes it
// back without a fault, a zeroing by the kernel or a munmap. Past the cap a
// span is unmapped. When no parked span fits, a span is cut from a
// huge-page-aligned chunk (mapChunk).
//
// A span is a whole number of OS pages that starts on one: the mapping a
// manager's page or block of n bytes is the front of (whole). Parked spans
// are kept unsorted in a fixed array, so the bookkeeping allocates nothing,
// and are dirty: a take reports a parked span as not fresh, and NewSlab
// clears it as it clears a pooled slab. Under -tags decapoison a parked
// span is PROT_NONE, as a pooled one is.
type reserve struct {
	cap int64

	mu     sync.Mutex
	chunk  []byte // the uncut rest of the last chunk mapped
	spans  [reserveSlots][]byte
	n      int   // spans[:n] are parked
	parked int64 // bytes of spans[:n]
}

var osPage = os.Getpagesize()

// mappedLen rounds n up to whole OS pages.
func mappedLen(n int) int { return (n + osPage - 1) &^ (osPage - 1) }

// whole is the entire span b is the front of.
func whole(b []byte) []byte { return unsafe.Slice(unsafe.SliceData(b), mappedLen(cap(b))) }

// sizeClass is the power-of-two size class of n bytes, the pool's and the
// reserve's: class c holds sizes in [2^c, 2^(c+1)).
func sizeClass(n int) int { return bits.Len(uint(n)) - 1 }

// take returns a zero-length slice of capacity n, 8-byte aligned because it
// starts an OS page: the front of the best-fitting parked span of n's size
// class (dirty, fresh false), whose rest stays parked, or else cut from a
// chunk (zeroed, fresh true).
func (r *reserve) take(n int) (b []byte, fresh bool) {
	need := mappedLen(n)
	r.mu.Lock()
	defer r.mu.Unlock()
	best := -1
	for i, s := range r.spans[:r.n] {
		if len(s) >= need && sizeClass(len(s)) == sizeClass(need) && (best < 0 || len(s) < len(r.spans[best])) {
			if best = i; len(s) == need {
				break
			}
		}
	}
	if best >= 0 {
		s := r.spans[best]
		r.n--
		r.spans[best], r.spans[r.n] = r.spans[r.n], nil
		r.parked -= int64(len(s))
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

// give takes back the span b is the front of: it is parked if the cap and
// the slots allow, and unmapped if not. b's lifetime, and that of every
// slice of it, is over.
func (r *reserve) give(b []byte) {
	r.mu.Lock()
	r.giveLocked(whole(b))
	r.mu.Unlock()
}

func (r *reserve) giveLocked(s []byte) {
	if r.parked+int64(len(s)) > r.cap || r.n == len(r.spans) {
		unmapAnon(s)
		return
	}
	poison(s)
	r.parkLocked(s)
}

// parkLocked adds the span s, already poisoned, to the parked set; the
// caller has checked the cap and freed a slot.
func (r *reserve) parkLocked(s []byte) {
	r.spans[r.n] = s
	r.n++
	r.parked += int64(len(s))
}

// bytes is what the reserve parks now.
func (r *reserve) bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.parked
}

// ReserveBytes is the resident memory the process reserve parks between
// managers' lifetimes: a level of the process, not of one executor (every
// manager in a process shares the reserve).
func ReserveBytes() int64 { return processReserve.bytes() }
