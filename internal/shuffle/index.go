package shuffle

import (
	"encoding/binary"
	"math/bits"
	"unsafe"

	"deca/internal/memory"
)

// aggIndex is the hash index of DecaAgg and DecaGroup: an open-addressing
// table (linear probing, load ≤ 3/4) whose slots hold a hash tag and the
// pointer of a key record in the buffer's pages. Keys are never stored here
// — a probe compares the tag, then the key bytes in the page — so the table
// is pointer-free, whatever the key type, and it is manager memory like the
// pages it points into: a memory.Slab taken on the first insert, swapped
// for one twice the size as it fills (the old one goes back to the manager,
// which pools it, up to half a page, for the sibling buffers growing behind
// this one), cleared in place on a spill and returned at the buffer's Release.
type aggIndex struct {
	mem   *memory.Manager
	slab  memory.Slab //deca:owns (returned by resize when it replaces the table, and by release)
	slots []aggSlot   //deca:owns (the slab's bytes as slots: pointers into the page store of the container holding the index, dropped by its Release)
	n     int         // occupied slots = distinct keys in memory
	shift uint        // 32 - log2(len(slots)): a tag's home slot is its top bits
	// chained says a key record's tail is a DecaGroup chain, whose last node
	// a Put writes as well: touch loads it with the record.
	chained bool
	warmed  byte // the sum of what touch loaded; storing it is what keeps the loads
}

// aggSlot is one table entry. tag 0 marks an empty slot (hashKey never
// returns it), which is what lets clear() reset the table.
type aggSlot struct {
	tag uint32
	ptr memory.Ptr //deca:owns (the record's first byte; see aggIndex.slots)
}

const (
	aggSlotSize = int64(unsafe.Sizeof(aggSlot{}))
	minAggSlots = 16
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
// segment. Not found: at is the empty slot insert takes for it.
func (ix *aggIndex) find(g *memory.Group, tag uint32, key []byte, valSize int) (val []byte, at int, found bool) {
	if len(ix.slots) == 0 {
		return nil, 0, false
	}
	mask := len(ix.slots) - 1
	for i := int(tag >> ix.shift); ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s.tag == 0 {
			return nil, i, false
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
		if kl := int(hd >> 1); kl == len(key) && string(rec[w:w+kl]) == string(key) {
			return rec[w+kl : w+kl+valSize], i, true
		}
	}
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
	if len(ix.slots) == 0 {
		return
	}
	sum, mask := ix.warmed, len(ix.slots)-1
	for _, tag := range tags {
		sum += byte(ix.slots[tag>>ix.shift].tag)
	}
	var hit [probeBatch]aggSlot // where each probe stops: a slot of the tag, or an empty one
	for i, tag := range tags {
		j := int(tag >> ix.shift)
		for ix.slots[j].tag != tag && ix.slots[j].tag != 0 {
			j = (j + 1) & mask
		}
		if hit[i] = ix.slots[j]; hit[i].tag != 0 {
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

// insert files a record under the slot find reported for its absent key.
func (ix *aggIndex) insert(at int, tag uint32, ptr memory.Ptr) {
	if len(ix.slots) == 0 {
		ix.resize(minAggSlots)
		at = ix.free(tag)
	}
	ix.slots[at] = aggSlot{tag: tag, ptr: ptr}
	ix.n++
	if ix.n*4 > len(ix.slots)*3 {
		ix.resize(2 * len(ix.slots))
	}
}

// free is the first empty slot from tag's home.
func (ix *aggIndex) free(tag uint32) int {
	mask := len(ix.slots) - 1
	i := int(tag >> ix.shift)
	for ix.slots[i].tag != 0 {
		i = (i + 1) & mask
	}
	return i
}

// resize moves the table into a fresh slab of n slots (a power of two) and
// returns the old one to the manager. Tags carry the whole hash, so no key
// is re-read from its page.
func (ix *aggIndex) resize(n int) {
	old, oldSlab := ix.slots, ix.slab
	ix.slab = ix.mem.NewSlab(n * int(aggSlotSize))
	ix.slots = unsafe.Slice((*aggSlot)(unsafe.Pointer(unsafe.SliceData(ix.slab.Bytes()))), n)
	ix.shift = uint(32 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.tag != 0 {
			ix.slots[ix.free(s.tag)] = s
		}
	}
	oldSlab.Release()
}

// reset empties the table in place: the buffer spilled and refills.
func (ix *aggIndex) reset() {
	clear(ix.slots)
	ix.n = 0
}

// release returns the table to the manager: the container's lifetime ended.
func (ix *aggIndex) release() {
	ix.slab.Release()
	ix.slots, ix.n = nil, 0
}

// reserve makes room for n keys without a resize on the way.
func (ix *aggIndex) reserve(n int) {
	want := minAggSlots
	for want*3 < n*4 {
		want *= 2
	}
	if want > len(ix.slots) {
		ix.resize(want)
	}
}
