package shuffle

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"unsafe"

	"deca/internal/memory"
)

// aggIndex is the hash index of DecaAgg and DecaGroup: an open-addressing
// table (linear probing, load ≤ 3/4) whose slots hold a hash tag and the
// pointer of a key record in the buffer's pages. Keys are never stored here
// — a probe compares the tag, then the key bytes in the page — so the table
// is pointer-free, whatever the key type, and it is manager memory like the
// pages it points into: memory.Slabs, taken on the first insert, cleared in
// place on a spill and returned when the fill ends (keyedStore.Seal) or the
// buffer is released.
//
// The table is a directory of equal segments, a power of two of them: one,
// swapped for one twice the size as it fills, up to segSlots slots; past
// that, segments of segSlots that split. A tag's home is its top bits
// counted over the whole table — the first log2(len(dir)) of them name the
// segment — and a probe wraps inside its segment, so the entries of segment
// i are exactly those of segments 2i and 2i+1 of the doubled table. resize
// splits one segment at a time and returns its slab before it takes the
// next two: growing allocates the final table plus one segment, never a
// second table beside the first, in blocks the memory reserve takes back
// and hands to the next split, the next container or a sibling. Tags are
// independent of one another, so a segment's load stays within a percent
// of the table's and none fills (DESIGN.md "Hash index").
type aggIndex struct {
	mem *memory.Manager
	// dir is the directory; it lives in dir0, no object of its own, while
	// the segments fit there.
	dir   []aggSegment           //deca:owns (every segment's slab is returned by release, a split one's by resize)
	dir0  [inlineSegs]aggSegment //deca:owns (dir's first backing array)
	n     int                    // occupied slots; the container's live records once the table is released (keyedStore.dropIndex)
	shift uint                   // 32 - log2(slots of the whole table): a tag's home is its top bits
	mask  int                    // slots per segment - 1
	// chained says a key record's tail is a DecaGroup chain, whose last node
	// a Put writes as well: touch loads it with the record.
	chained bool
	warmed  byte // the sum of what touch loaded; storing it is what keeps the loads
}

// aggSegment is one slab of the table and its bytes as slots.
type aggSegment struct {
	slab  memory.Slab //deca:owns (returned by resize when it splits the segment, and by release)
	slots []aggSlot   //deca:owns (pointers into the page store of the container holding the index, dropped by its Release)
}

// aggSlot is one table entry. tag 0 marks an empty slot (hashKey never
// returns it), which is what lets clear() reset the table.
type aggSlot struct {
	tag uint32
	ptr memory.Ptr //deca:owns (the record's first byte; see aggSegment.slots)
}

const (
	aggSlotSize = int64(unsafe.Sizeof(aggSlot{}))
	minAggSlots = 16
	// segSlots is the most slots a segment has: 384 KiB of table. A constant,
	// so a probe finds segment and slot with an immediate shift and a mask in
	// a register (as struct fields and variable shifts they cost touch's first
	// pass its overlap: EXPERIMENTS.md "Segments"). 4096 measured the same
	// allocation; this size keeps a table of up to 24 k keys one slab.
	segBits  = 15
	segSlots = 1 << segBits
	// inlineSegs is how many segments the directory holds without an object
	// of its own: a table of 3 MiB, inlineKeys keys.
	inlineSegs = 8
	inlineKeys = inlineSegs * segSlots * 3 / 4
	// probeBatch is how many probes run as one pipeline (touch): enough to
	// keep every miss buffer of a core busy; 8 to 64 measure the same.
	probeBatch = 16
)

// hashKey hashes a key's encoded bytes into a slot tag. The function is
// fixed (frames and drains repeat run to run) and shares nothing with the
// partitioner's hashes: every key in reducer r's buffer agrees on
// Key.Hash(k) mod R, so a table that probed from those bits would fill in
// clusters.
func hashKey(key []byte) uint32 {
	const k0, k1, k2 = 0x9e3779b97f4a7c15, 0xa0761d6478bd642f, 0xe7037ed1a0b428db
	h := uint64(len(key)) ^ k0
	for ; len(key) >= 8; key = key[8:] {
		h = mum(h^binary.LittleEndian.Uint64(key), k1)
	}
	if len(key) > 0 {
		var tail uint64
		for i, c := range key {
			tail |= uint64(c) << (8 * uint(i))
		}
		h = mum(h^tail, k2)
	}
	return uint32(mum(h, k2)>>32) | 1
}

// mum folds the 128-bit product of a and b.
func mum(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// find probes for key among the records of g. Found: the record's value
// segment. Not found: at is the empty slot insert takes for it. at counts
// slots over the whole table.
func (ix *aggIndex) find(g *memory.Group, tag uint32, key []byte, valSize int) (val []byte, at int, found bool) {
	if len(ix.dir) == 0 {
		return nil, 0, false
	}
	h, mask := int(tag>>ix.shift), ix.mask
	slots := ix.dir[h>>segBits].slots
	for i := h & mask; ; i = (i + 1) & mask {
		s := slots[i]
		if s.tag == 0 {
			return nil, h&^mask | i, false
		}
		if s.tag != tag {
			continue
		}
		// Slots only ever point at records the buffer wrote or validated.
		rec := g.Page(int(s.ptr.Page))[s.ptr.Off:]
		hd, w := uint64(rec[0]), 1
		if hd >= 0x80 { // a key of 64 bytes or more
			hd, w = binary.Uvarint(rec)
		}
		if kl := int(hd >> 1); kl == len(key) && sameKey(rec[w:w+kl], key) {
			return rec[w+kl : w+kl+valSize], h&^mask | i, true
		}
	}
}

// sameKey compares keys of one length, of 8-16 bytes (WC's 12, PR's 8) as two overlapping words.
func sameKey(a, b []byte) bool {
	if n := len(a); n >= 8 && n <= 16 {
		return binary.LittleEndian.Uint64(a) == binary.LittleEndian.Uint64(b) &&
			binary.LittleEndian.Uint64(a[n-8:]) == binary.LittleEndian.Uint64(b[n-8:])
	}
	return string(a) == string(b)
}

// touch is the head of a pipelined probe: it loads what the finds for tags
// are about to read — pass one every tag's home slot, pass two the first
// byte of the record each tag's probe stops at (the probe by tag alone, now
// over cached slots), pass three, chained, the link field that record's
// chain ends in — so a batch's misses overlap, where a find waits out two
// or three dependent ones. It decides nothing and writes nothing but
// warmed: the finds that follow probe as if it had not run, only out of
// cache.
func (ix *aggIndex) touch(g *memory.Group, tags []uint32) {
	if len(ix.dir) == 0 {
		return
	}
	// Locals, and segBits an immediate: pass one must stay a handful of
	// instructions a tag, or the loads do not overlap.
	sum, dir, shift, mask := ix.warmed, ix.dir, ix.shift, ix.mask
	for _, tag := range tags {
		h := int(tag >> shift)
		sum += byte(dir[h>>segBits].slots[h&mask].tag)
	}
	var hit [probeBatch]aggSlot // where each probe stops: a slot of the tag, or an empty one
	for i, tag := range tags {
		h := int(tag >> shift)
		slots, j := dir[h>>segBits].slots, h&mask
		for slots[j].tag != tag && slots[j].tag != 0 {
			j = (j + 1) & mask
		}
		if hit[i] = slots[j]; hit[i].tag != 0 {
			sum += g.Page(int(hit[i].ptr.Page))[hit[i].ptr.Off]
		}
	}
	for i := 0; ix.chained && i < len(tags); i++ {
		s := hit[i]
		if s.tag == 0 {
			continue
		}
		rec := g.Page(int(s.ptr.Page))[s.ptr.Off:]
		hd, w := binary.Uvarint(rec)
		chain := rec[w+int(hd>>1):]
		// Checked like push's own read: a failed fold may have left a bad tail.
		if link, err := g.CheckedBytes(getLink(chain[linkSize:], s.ptr.Page), 1); err == nil && chainCount(chain) > 0 {
			sum += link[0]
		}
	}
	ix.warmed = sum
}

// slot is the table entry find or free named at.
func (ix *aggIndex) slot(at int) *aggSlot {
	return &ix.dir[at>>segBits].slots[at&ix.mask]
}

// size is the slots of the whole table.
func (ix *aggIndex) size() int { return len(ix.dir) * (ix.mask + 1) }

// insert files a record under the slot find reported for its absent key.
func (ix *aggIndex) insert(at int, tag uint32, ptr memory.Ptr) {
	if len(ix.dir) == 0 {
		ix.resize(minAggSlots)
		at = ix.free(tag)
	}
	*ix.slot(at) = aggSlot{tag: tag, ptr: ptr}
	ix.n++
	if size := ix.size(); ix.n*4 > size*3 {
		ix.resize(2 * size)
	}
}

// free is the first empty slot from tag's home.
func (ix *aggIndex) free(tag uint32) int {
	h, mask := int(tag>>ix.shift), ix.mask
	slots, i := ix.dir[h>>segBits].slots, h&mask
	for slots[i].tag != 0 {
		i = (i + 1) & mask
	}
	return h&^mask | i
}

// resize grows the table to size slots (a power of two, more than it has):
// each segment in turn — the one slab of a small table, a segment of nothing
// of an empty one — is replaced by the segments its entries' homes now lie
// in, fresh from the manager, and returned to it before the next is taken
// apart. From the last down, so the new ones land past every segment still
// to split. Tags carry the whole hash, so no key is re-read from its page.
func (ix *aggIndex) resize(size int) {
	per := min(size, segSlots)
	from, to := max(len(ix.dir), 1), size/per
	if ix.dir == nil {
		ix.dir = ix.dir0[:0]
	}
	ix.dir = slices.Grow(ix.dir, to-len(ix.dir))[:to]
	ix.shift, ix.mask = uint(32-bits.TrailingZeros(uint(size))), per-1
	for s, k := from-1, to/from; s >= 0; s-- {
		old := ix.dir[s]
		for i := s * k; i < (s+1)*k; i++ {
			slab := ix.mem.NewSlab(per * int(aggSlotSize))
			ix.dir[i] = aggSegment{slab: slab, slots: unsafe.Slice((*aggSlot)(unsafe.Pointer(unsafe.SliceData(slab.Bytes()))), per)}
		}
		for _, e := range old.slots {
			if e.tag != 0 {
				*ix.slot(ix.free(e.tag)) = e
			}
		}
		old.slab.Release()
	}
}

// reset empties the table in place: the buffer spilled and refills.
func (ix *aggIndex) reset() {
	for _, seg := range ix.dir {
		clear(seg.slots)
	}
	ix.n = 0
}

// release returns the table to the manager: the fill ended, or the
// container's lifetime did. Idempotent.
func (ix *aggIndex) release() {
	for i := range ix.dir {
		ix.dir[i].slab.Release()
	}
	clear(ix.dir)
	ix.dir, ix.n = ix.dir[:0], 0
}

// footprint is what the table holds of its manager.
func (ix *aggIndex) footprint() (total int64) {
	for i := range ix.dir {
		total += ix.dir[i].slab.Footprint()
	}
	return total
}

// reserve makes room for n keys without a resize on the way.
func (ix *aggIndex) reserve(n int) {
	want := minAggSlots
	for want*3 < n*4 {
		want *= 2
	}
	if want > ix.size() {
		ix.resize(want)
	}
}
