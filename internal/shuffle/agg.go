package shuffle

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/transport"
)

// ObjectAgg is the Spark-semantics hash aggregation buffer: a hash table
// from key to a *boxed* value. Every combine allocates a fresh value
// object, exactly like the JVM's immutable boxed Tuple2 values — the
// source of the short-lived garbage Figure 8(a) shows.
type ObjectAgg[K comparable, V any] struct {
	boxedStore[K, V]
	combine func(V, V) V
	table   map[K]*V
}

// NewObjectAgg returns an empty buffer combining values with combine.
//
//deca:owns
func NewObjectAgg[K comparable, V any](combine func(V, V) V, cfg ObjectConfig[K, V]) *ObjectAgg[K, V] {
	return &ObjectAgg[K, V]{boxedStore: newBoxedStore(cfg), combine: combine, table: make(map[K]*V)}
}

// Put eagerly combines v into the entry for k, allocating a new boxed
// value (JVM semantics: the old Value object dies, a new one is born).
func (b *ObjectAgg[K, V]) Put(k K, v V) {
	if old, ok := b.table[k]; ok {
		nv := b.combine(*old, v)
		b.approx += int64(b.cfg.EntrySize(k, nv)) - int64(b.cfg.EntrySize(k, *old))
		b.table[k] = &nv
		return
	}
	b.charge(k, v)
	b.table[k] = &v
}

// Len returns the number of distinct keys in memory.
func (b *ObjectAgg[K, V]) Len() int { return len(b.table) }

// each enumerates the table for the store's spill and frame writers.
func (b *ObjectAgg[K, V]) each(emit func(K, V) error) error {
	for k, v := range b.table {
		if err := emit(k, *v); err != nil {
			return err
		}
	}
	return nil
}

// Spill serializes the table to a run file and clears memory.
func (b *ObjectAgg[K, V]) Spill() error {
	if err := b.spill(wireObjectAgg, len(b.table), b.each); err != nil {
		return err
	}
	b.table = make(map[K]*V)
	return nil
}

// EncodeWire serializes the table record by record.
func (b *ObjectAgg[K, V]) EncodeWire(w io.Writer) error {
	return b.encodeRecords(w, wireObjectAgg, len(b.table), b.each)
}

// Drain merges spilled runs back (deserializing and re-aggregating, as
// Spark's spill merge does) and yields every (key, value) pair. The buffer
// stays valid; Release frees it.
func (b *ObjectAgg[K, V]) Drain(yield func(K, V) bool) error {
	if err := b.replay(b.Put); err != nil {
		return err
	}
	for k, v := range b.table {
		if !yield(k, *v) {
			return nil
		}
	}
	return nil
}

// Release drops the table and deletes any remaining spill files.
func (b *ObjectAgg[K, V]) Release() {
	b.table = nil
	b.boxedStore.Release()
}

// DecaAgg is the page-decomposed aggregation buffer (§4.3.2, Figure 7): a
// pointer-free hash table (aggIndex) over page segments that hold the key
// and the value. Each distinct key owns one record in the page group,
//
//	uvarint (klen<<1 | dead) | key bytes (the key codec's encoding) | value
//
// appended once and never straddling a page; every combine decodes,
// combines and re-encodes the value *in place* — no allocation, no garbage,
// and no key survives as a Go object. Two keys are the same key iff their
// encodings are byte-equal: Go's == for every built-in codec except on
// floats, where +0 and -0 are two keys and equal-bit NaNs are one. The dead
// bit marks a record a merge combined into another of the same key
// (absorb); every walk skips it, so the pages alone say what the buffer
// holds.
//
// The value codec must be fixed-size (a StaticFixed classification); the
// constructor enforces it because in-place reuse of a variable-size value
// would corrupt neighbouring segments — the safety property §3 exists to
// guarantee.
type DecaAgg[K comparable, V any] struct {
	pageStore
	combine  func(V, V) V
	keyCodec decompose.Codec[K]
	valCodec decompose.Codec[V]
	keySize  int // keyCodec.FixedSize(): negative when keys vary in size
	valSize  int
	idx      aggIndex
	// keyBuf is where Put encodes its key. One buffer per container: a
	// stack array handed to the codec interface escapes, an allocation per
	// record.
	keyBuf []byte
}

// NewDecaAgg returns a page-backed aggregation buffer. valCodec must
// report a non-negative FixedSize; keyCodec must not be nil, because keys
// live in the pages in its encoding.
//
//deca:owns
func NewDecaAgg[K comparable, V any](
	mem *memory.Manager,
	combine func(V, V) V,
	keyCodec decompose.Codec[K],
	valCodec decompose.Codec[V],
	spillDir string,
) (*DecaAgg[K, V], error) {
	if keyCodec == nil || valCodec.FixedSize() < 0 {
		return nil, fmt.Errorf("shuffle: DecaAgg requires a key codec and a StaticFixed value codec")
	}
	return &DecaAgg[K, V]{
		pageStore: newPageStore(mem, spillDir),
		combine:   combine,
		keyCodec:  keyCodec,
		valCodec:  valCodec,
		keySize:   keyCodec.FixedSize(),
		valSize:   valCodec.FixedSize(),
	}, nil
}

// encodeKey returns k's encoding, valid until the next call.
func (b *DecaAgg[K, V]) encodeKey(k K) []byte {
	n := b.keySize
	if n < 0 {
		n = b.keyCodec.Size(k)
	}
	if n > cap(b.keyBuf) {
		b.keyBuf = make([]byte, n, 2*n)
	}
	b.keyCodec.Encode(b.keyBuf[:n], k)
	return b.keyBuf[:n]
}

// upsert returns the value segment of key's record, appending the record
// first when the key is new (fresh: the segment is the caller's to fill).
func (b *DecaAgg[K, V]) upsert(key []byte) (val []byte, fresh bool) {
	tag := hashKey(key)
	val, at, found := b.idx.find(b.group, tag, key, b.valSize)
	if found {
		return val, false
	}
	hd := uint64(len(key)) << 1
	w := (bits.Len64(hd|1) + 6) / 7 // the header's uvarint width
	rec, ptr := b.group.Alloc(w + len(key) + b.valSize)
	binary.PutUvarint(rec, hd)
	copy(rec[w:], key)
	b.idx.insert(at, tag, ptr)
	return rec[w+len(key):], true
}

// combineInto combines v into the value held in seg, in place.
func (b *DecaAgg[K, V]) combineInto(seg []byte, v V) {
	old, _ := b.valCodec.Decode(seg)
	b.valCodec.Encode(seg, b.combine(old, v))
}

// Put eagerly combines v into k's record, reusing its segment in place.
func (b *DecaAgg[K, V]) Put(k K, v V) {
	if seg, fresh := b.upsert(b.encodeKey(k)); fresh {
		b.valCodec.Encode(seg, v)
	} else {
		b.combineInto(seg, v)
	}
}

// Len returns the number of distinct keys in memory.
func (b *DecaAgg[K, V]) Len() int { return b.idx.n }

// SizeBytes returns the page footprint plus the index table's.
func (b *DecaAgg[K, V]) SizeBytes() int64 {
	return b.group.Footprint() + int64(cap(b.idx.slots))*aggSlotSize
}

// recordIter walks the live records of a page group from page base on, or
// (g nil) of one spill run. It trusts nothing it reads: a record that does
// not fit the used bytes of its page, or whose key contradicts a fixed-size
// codec, ends the walk with err naming the page (counted from base) and
// offset.
type recordIter struct {
	keySize, valSize int
	g                *memory.Group
	base, page, off  int
	data             []byte     // the current page's used bytes, or the run
	ptr              memory.Ptr // the current record: where it starts,
	rec, key, val    []byte     // its bytes, and their two parts
	err              error
}

// records iterates the buffer's pages from page base on.
func (b *DecaAgg[K, V]) records(base int) recordIter {
	return recordIter{keySize: b.keySize, valSize: b.valSize, g: b.group, base: base, page: base - 1}
}

func (it *recordIter) next() bool {
	for {
		for it.off >= len(it.data) {
			if it.g == nil || it.page+1 >= it.g.NumPages() {
				return false
			}
			it.page, it.off = it.page+1, 0
			it.data = it.g.Page(it.page)
		}
		start := it.off
		hd, w := binary.Uvarint(it.data[start:])
		kl := min(hd>>1, uint64(len(it.data)))
		ks := start + w
		end := ks + int(kl) + it.valSize
		if w <= 0 || end > len(it.data) || it.keySize >= 0 && kl != uint64(it.keySize) {
			it.err = fmt.Errorf("shuffle: DecaAgg record at page %d offset %d (header %#x, key codec size %d) does not fit the %d bytes in use",
				it.page-it.base, start, hd, it.keySize, len(it.data))
			return false
		}
		it.off = end
		if hd&1 == 0 {
			it.ptr = memory.Ptr{Page: int32(it.page), Off: int32(start)}
			it.rec, it.key, it.val = it.data[start:end], it.data[ks:ks+int(kl)], it.data[ks+int(kl):end]
			return true
		}
	}
}

// Spill writes the live records as they stand in the pages — the run is
// the page encoding, no serialization pass — resets the pages for reuse
// and clears the index in place.
func (b *DecaAgg[K, V]) Spill() error {
	if b.idx.n == 0 {
		return nil
	}
	err := b.spillPages(func(w *spillWriter) error {
		it := b.records(0)
		for it.next() {
			if err := w.emit(it.rec); err != nil {
				return err
			}
		}
		return it.err
	})
	if err == nil {
		clear(b.idx.slots)
		b.idx.n = 0
	}
	return err
}

// Drain merges any spilled runs — each record re-aggregates through the
// byte-keyed upsert, no key or pair is materialized — and yields every
// pair in record order, decoding a key only as it is yielded.
func (b *DecaAgg[K, V]) Drain(yield func(K, V) bool) error {
	err := b.replay(func(run []byte) error {
		it := recordIter{keySize: b.keySize, valSize: b.valSize, data: run}
		for it.next() {
			if seg, fresh := b.upsert(it.key); fresh {
				copy(seg, it.val)
			} else {
				v, _ := b.valCodec.Decode(it.val)
				b.combineInto(seg, v)
			}
		}
		return it.err
	})
	if err != nil {
		return err
	}
	it := b.records(0)
	for it.next() {
		k, _ := b.keyCodec.Decode(it.key)
		v, _ := b.valCodec.Decode(it.val)
		if !yield(k, v) {
			return nil
		}
	}
	return it.err
}

// ValueBytes exposes the raw segment of k's current value — the zero-copy
// output path: Deca "saves the cost of data (de-)serialization by directly
// outputting the raw bytes" (§6.1).
func (b *DecaAgg[K, V]) ValueBytes(k K) ([]byte, bool) {
	key := b.encodeKey(k)
	val, _, ok := b.idx.find(b.group, hashKey(key), key, b.valSize)
	return val, ok
}

// EncodeSegments builds the DecaAgg frame. It has no table: the records
// ride in the page snapshot, and the count says how many are live.
//
//deca:owns
func (b *DecaAgg[K, V]) EncodeSegments() (*transport.FrameSegments, error) {
	return b.encodeSegments(wireDecaAgg, b.idx.n, nil)
}

// EncodeWire writes the buffer's wire frame to w.
func (b *DecaAgg[K, V]) EncodeWire(w io.Writer) error { return writeSegments(w, b.EncodeSegments) }

// MergeFrom folds src into b without decoding or re-encoding records: b
// adopts src's page group and spill runs (pageStore.adopt) and absorbs the
// adopted pages' records. b's Drain folds the transferred runs like its
// own.
//
// Ownership contract: MergeFrom consumes src. The caller must Release src
// afterwards and must not read it in between — records inside the adopted
// pages may be mutated by b, and transferred spill files now belong to b.
// Both buffers must share the codecs they were built with (the exchange
// constructs them from one PairOps).
func (b *DecaAgg[K, V]) MergeFrom(src *DecaAgg[K, V]) error {
	if src == b {
		return fmt.Errorf("shuffle: DecaAgg cannot merge from itself")
	}
	if base, ok := b.adopt(&src.pageStore, src.idx.n); ok {
		return b.absorb(base, src.idx.n)
	}
	return nil
}

// absorb indexes the records of the pages b just adopted at page base —
// the one walk MergeFrom and Fold share. A new key's slot points at its
// record where it lies; a collision combines the source value into b's
// record in place and marks the source record dead. A slot only ever
// points at a record the walk has checked against its page, and the walk
// must find exactly n live ones. An empty b sizes its table from n first
// (capped: n may be a hostile header).
func (b *DecaAgg[K, V]) absorb(base, n int) error {
	if b.idx.n == 0 {
		b.idx.reserve(min(n, stagePresize))
	}
	live, it := 0, b.records(base)
	for it.next() {
		live++
		tag := hashKey(it.key)
		if dst, at, found := b.idx.find(b.group, tag, it.key, b.valSize); found {
			v, _ := b.valCodec.Decode(it.val)
			b.combineInto(dst, v)
			it.rec[0] |= 1
		} else {
			b.idx.insert(at, tag, it.ptr)
		}
	}
	if it.err == nil && live != n {
		return fmt.Errorf("shuffle: DecaAgg pages hold %d live records, their header says %d", live, n)
	}
	return it.err
}

// Fold merges a staged frame into b — MergeFrom without a source
// container. Fold consumes st on every path; a malformed record is an
// error that leaves b partially merged, for the caller to release.
//
//deca:transfers
func (b *DecaAgg[K, V]) Fold(st *Staged) error {
	defer st.Release()
	base, ok, err := b.adoptStaged(st, wireDecaAgg)
	if !ok {
		return err
	}
	return b.absorb(base, st.n)
}

// Release frees the pages and spill files (pageStore.Release) and drops
// the index.
func (b *DecaAgg[K, V]) Release() {
	b.idx = aggIndex{}
	b.pageStore.Release()
}
