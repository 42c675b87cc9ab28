package shuffle

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"unsafe"

	"deca/internal/decompose"
	"deca/internal/freelist"
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
	rest    []decompose.Pair[K, V] // the Puts since StopCombining, in Put order
	stopped bool
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
	if b.stopped {
		b.charge(k, v)
		b.rest = append(b.rest, decompose.Pair[K, V]{Key: k, Value: v})
		return
	}
	if old, ok := b.table[k]; ok {
		nv := b.combine(*old, v)
		b.approx += int64(b.cfg.EntrySize(k, nv)) - int64(b.cfg.EntrySize(k, *old))
		b.table[k] = &nv
		return
	}
	b.charge(k, v)
	b.table[k] = &v
}

// Len returns the records in memory: the table's, then the Puts in rest.
func (b *ObjectAgg[K, V]) Len() int { return len(b.table) + len(b.rest) }

// StopCombining ends the combine (DecaAgg.StopCombining): a later Put is
// kept as it comes. Drain, Lookup, FoldRuns and Fold panic from here on.
func (b *ObjectAgg[K, V]) StopCombining() { b.stopped = true }

// each enumerates the table, then rest, for the spill and frame writers.
func (b *ObjectAgg[K, V]) each(emit func(K, V) error) error {
	for k, v := range b.table {
		if err := emit(k, *v); err != nil {
			return err
		}
	}
	for _, p := range b.rest {
		if err := emit(p.Key, p.Value); err != nil {
			return err
		}
	}
	return nil
}

// Spill serializes the records to a run file and clears memory.
func (b *ObjectAgg[K, V]) Spill() error {
	if err := b.spill(wireObjectAgg, b.Len(), b.each); err != nil {
		return err
	}
	b.table, b.rest = make(map[K]*V), b.rest[:0]
	return nil
}

// EncodeSegments builds the buffer's frame (boxedStore.encodeSegments).
//
//deca:owns
func (b *ObjectAgg[K, V]) EncodeSegments() (*transport.FrameSegments, error) {
	return b.encodeSegments(wireObjectAgg, b.Len(), b.each)
}

// Fold merges a staged frame of b's kind into b (boxedStore.fold).
//
//deca:transfers
func (b *ObjectAgg[K, V]) Fold(st *Staged) error {
	combines(b.stopped, "Fold", wireObjectAgg)
	return b.fold(st, wireObjectAgg, b.Put)
}

// FoldRuns merges spilled runs back as Spark's spill merge does, deleting each.
func (b *ObjectAgg[K, V]) FoldRuns() error {
	combines(b.stopped, "FoldRuns", wireObjectAgg)
	return b.replay(b.Put)
}

// Drain folds the spilled runs back and yields every (key, value) pair.
// The buffer stays valid; Release frees it.
func (b *ObjectAgg[K, V]) Drain(yield func(K, V) bool) error {
	combines(b.stopped, "Drain", wireObjectAgg)
	if err := b.FoldRuns(); err != nil {
		return err
	}
	for k, v := range b.table {
		if !yield(k, *v) {
			return nil
		}
	}
	return nil
}

// Lookup returns k's combined value and whether b holds k. A spill run not
// yet folded back (FoldRuns) would hide its keys: Lookup panics then.
func (b *ObjectAgg[K, V]) Lookup(k K) (v V, ok bool) {
	combines(b.stopped, "Lookup", wireObjectAgg)
	if len(b.spills) > 0 {
		panic("shuffle: Lookup on an ObjectAgg with spill runs pending (FoldRuns first)")
	}
	if p := b.table[k]; p != nil {
		return *p, true
	}
	return v, false
}

// Release drops the table and deletes any remaining spill files.
func (b *ObjectAgg[K, V]) Release() {
	b.table, b.rest = nil, nil
	b.boxedStore.Release()
}

// keyedStore is what DecaAgg and DecaGroup are built on: a page store whose
// key records,
//
//	uvarint (klen<<1 | flag) | key bytes (the key codec's encoding) | tail
//
// are appended once, never straddle a page and are found through an
// aggIndex: no key survives as a Go object, and pages and index slabs are
// all the memory the container owns. Two keys are one iff their encodings
// are byte-equal: Go's == for every built-in codec except on floats, where
// +0 and -0 are two keys and equal-bit NaNs one. The tail is the container's
// per-key state (DecaAgg: the value; DecaGroup: the value chain). A record
// whose flag is set is no key record (DecaAgg: a dead one; DecaGroup: a
// value node) and every walk skips it: the pages alone say what they hold.
type keyedStore struct {
	pageStore
	// *fillState is what only the fill uses; nil once the fill ended
	// (endFill), so a sealed or stopped container's header holds only what
	// outlives it.
	*fillState
	n       int            // live key records once the fill ended; while it lasts, idx.n
	shape   [2]recordShape // of a record, by its flag
	kind    byte           // of the container's frame
	ops     keyedOps       // the container built on the store
	sealed  bool           // Seal ran: the index is gone, the records are final
	stopped bool           // DecaAgg.StopCombining ran: no index, every Put appends
}

// fillState is a keyedStore's fill: the index and the pending batch — the
// Puts staged, not yet probed (flush). staged counts them, tags holds the
// hash of each one's key, and buf its encoded key and value, entry after
// entry, ending at ends[i][0] and ends[i][1]. One buffer per fill, grown on
// demand: a stack array handed to the codec interface escapes, an
// allocation per record. A container takes its state from fillStates and
// gives it back when its fill ends, like the index slabs (DESIGN.md "Hash
// index").
type fillState struct {
	idx    aggIndex //deca:owns (its slots point into the pages of the container holding the state, which ends the fill before it releases them)
	buf    []byte
	staged int // entries
	used   int // bytes of buf
	tags   [probeBatch]uint32
	ends   [probeBatch][2]int32
}

// fillStates recycles fill states, as runWriters does spill writers.
//
//deca:allow ptrescape -- a parked state holds no Ptr: endFill releases its index, which clears every slot and segment, before it gives the state back
var fillStates = freelist.New(32, int64(unsafe.Sizeof(fillState{})), func() *fillState { return new(fillState) })

const maxKeptBatch = 4 << 10 // a longer batch buffer is left to the collector

// keyedOps is what a keyedStore asks of its container.
type keyedOps interface {
	// put applies one Put, staged or replayed from a spill run, given the
	// key's encoding, its hashKey and the value's encoding.
	put(tag uint32, key, val []byte)
	// absorbPages walks the pages the store just adopted at page base, whose
	// header counts n key records: the body of Fold and MergeFrom.
	absorbPages(base, n int) error
}

// recordShape is what a walk holds a record to: the length its first part
// must have (the codec's FixedSize; negative: any) and the size of its tail.
type recordShape struct{ fixed, tail int }

func newKeyedStore(mem *memory.Manager, spillDir string, kind byte, flag0, flag1 recordShape) keyedStore {
	f := fillStates.Get()
	f.idx.mem = mem
	return keyedStore{pageStore: newPageStore(mem, spillDir), fillState: f, kind: kind, shape: [2]recordShape{flag0, flag1}}
}

// stagePut is the head of every Put: it adds k, encoded and hashed once, to
// the pending batch — flushing a full one first — and returns the vlen bytes
// the caller encodes the value into. Nothing reaches pages or index before
// the flush, which every method that reads them runs first. A store that
// stopped combining appends k's record to its pages instead.
func stagePut[K any](s *keyedStore, c decompose.Codec[K], k K, vlen int) []byte {
	s.fills("Put")
	klen := keySize(s, c, k)
	if s.stopped {
		key, tail, _ := s.newRecord(klen, vlen)
		c.Encode(key, k)
		s.n++
		return tail
	}
	f := s.fillState
	if f.staged == probeBatch {
		s.flush()
	}
	at, i := f.used, f.staged
	vat, end := at+klen, at+klen+vlen
	if end > len(f.buf) {
		// Room for the rest of the batch at this entry's size: all a
		// container of fixed-size records ever takes.
		f.buf = slices.Grow(f.buf[:at], (probeBatch-i)*(klen+vlen))
		f.buf = f.buf[:cap(f.buf)]
	}
	key := f.buf[at:vat]
	c.Encode(key, k)
	f.tags[i], f.ends[i] = hashKey(key), [2]int32{int32(vat), int32(end)}
	f.staged, f.used = i+1, end
	return f.buf[vat:end]
}

// keySize is the length of k's encoding in s's records.
func keySize[K any](s *keyedStore, c decompose.Codec[K], k K) int {
	if klen := s.shape[0].fixed; klen >= 0 {
		return klen
	}
	return c.Size(k)
}

// flush probes for the pending batch as one pipeline — touch, then each
// entry's put in Put order — and leaves it empty. A flush is the only way a
// Put takes effect, of one entry like of sixteen.
func (s *keyedStore) flush() {
	f := s.fillState
	if f == nil || f.staged == 0 {
		return
	}
	n := f.staged
	f.staged, f.used = 0, 0
	f.idx.touch(s.group, f.tags[:n])
	at := int32(0)
	for i, end := range f.ends[:n] {
		s.ops.put(f.tags[i], f.buf[at:end[0]], f.buf[end[0]:end[1]])
		at = end[1]
	}
}

// upsert returns the tail of the record of key, whose hashKey is tag, and
// the page the record lies in, appending the record, its tail zeroed, when
// the key is new.
func (s *keyedStore) upsert(tag uint32, key []byte) (tail []byte, page int32, fresh bool) {
	ix, size := &s.idx, s.shape[0].tail
	tail, at, found := ix.find(s.group, tag, key, size)
	if found {
		return tail, ix.slot(at).ptr.Page, false
	}
	dst, tail, ptr := s.newRecord(len(key), size)
	copy(dst, key)
	clear(tail)
	ix.insert(at, tag, ptr)
	return tail, ptr.Page, true
}

// newRecord appends a key record with room for a klen-byte key and a tail
// of size bytes, its header written, and returns where key and tail go.
func (s *keyedStore) newRecord(klen, size int) (key, tail []byte, ptr memory.Ptr) {
	hd := uint64(klen) << 1
	w := (bits.Len64(hd|1) + 6) / 7 // the header's uvarint width
	rec, ptr := s.group.Alloc(w + klen + size)
	binary.PutUvarint(rec, hd)
	return rec[w : w+klen], rec[w+klen:], ptr
}

// Len returns the live key records in memory: the distinct keys, unless stopped.
func (s *keyedStore) Len() int {
	s.flush()
	return s.live()
}

// live is the live key records: the index's count while the fill lasts.
func (s *keyedStore) live() int {
	if s.fillState != nil {
		return s.idx.n
	}
	return s.n
}

// SizeBytes returns what the buffer holds of its manager: the page
// footprint plus the index slabs.
func (s *keyedStore) SizeBytes() int64 {
	s.flush()
	if s.fillState != nil {
		return s.group.Footprint() + s.idx.footprint()
	}
	return s.group.Footprint()
}

// PageOccupancy is pageStore.PageOccupancy with every Put in the pages.
func (s *keyedStore) PageOccupancy() (used, footprint int64) {
	s.flush()
	return s.pageStore.PageOccupancy()
}

// Seal ends the fill: every Put is in the pages, and the index and the
// batch go back (endFill) — nothing probes a filled buffer again. What is
// left counts, sizes, encodes, releases, is a MergeFrom source and drains
// (unless spill runs are pending: replaying one fills); Put, Spill, Fold
// and being a MergeFrom destination panic. Idempotent.
func (s *keyedStore) Seal() {
	s.flush()
	s.endFill()
	s.sealed = true
}

// endFill returns the fill state: the index slabs to the manager, the state
// to fillStates; n goes on counting. A pending batch is dropped, so a
// caller whose Puts count flushes first. Idempotent.
func (s *keyedStore) endFill() {
	f := s.fillState
	if f == nil {
		return
	}
	s.fillState, s.n = nil, f.idx.n
	f.idx.release()
	f.idx.mem, f.idx.chained, f.staged, f.used = nil, false, 0, 0
	if cap(f.buf) > maxKeptBatch {
		f.buf = nil
	}
	fillStates.Put(f)
}

// emptied follows a spill: no record is left in memory, and the index
// clears in place for the refill.
func (s *keyedStore) emptied() {
	if s.fillState != nil {
		s.idx.reset()
	}
	s.n = 0
}

// fills heads every method that adds records.
func (s *keyedStore) fills(method string) {
	if s.sealed {
		panic("shuffle: " + method + " on a sealed " + kindName(s.kind))
	}
}

// combines heads every method that reads or folds through the index: a
// container that stopped combining has none, and may repeat a key.
func combines(stopped bool, method string, kind byte) {
	if stopped {
		panic("shuffle: " + method + " on a " + kindName(kind) + " that stopped combining (read it through its frame)")
	}
}

// replay is runSet.replay; a sealed store must have no run to fold.
func (s *keyedStore) replay(fold func(run []byte) error) error {
	if len(s.spills) > 0 {
		s.fills("Drain with spill runs pending")
	}
	return s.runSet.replay(fold)
}

// Release frees the pages and spill files (pageStore.Release) and ends
// the fill of a container never sealed; a pending batch is dropped.
// Idempotent.
func (s *keyedStore) Release() {
	s.endFill()
	s.n = 0
	s.pageStore.Release()
}

// EncodeSegments builds the container's frame. It has no table: the
// records ride in the page snapshot, and the count says how many key
// records are live.
//
//deca:owns
func (s *keyedStore) EncodeSegments() (*transport.FrameSegments, error) {
	s.flush()
	return s.encodeSegments(s.kind, s.live())
}

// mergeFrom is the containers' MergeFrom: s adopts src's page group and
// spill runs (pageStore.adopt) and absorbs the adopted pages' records —
// nothing is decoded, nothing moves. s's Drain replays the transferred
// runs like its own.
func (s *keyedStore) mergeFrom(src *keyedStore) error {
	if src == s {
		return fmt.Errorf("shuffle: %s cannot merge from itself", kindName(s.kind))
	}
	s.fills("MergeFrom")
	combines(s.stopped, "MergeFrom", s.kind)
	s.flush()
	src.flush()
	if base, ok := s.adopt(&src.pageStore, src.live()); ok {
		return s.ops.absorbPages(base, src.live())
	}
	return nil
}

// Fold merges a staged frame into the container — MergeFrom without a
// source container. Fold consumes st on every path; a malformed record is
// an error that leaves the container partially merged, for the caller to
// release.
//
//deca:transfers
func (s *keyedStore) Fold(st *Staged) error {
	defer st.Release()
	s.fills("Fold")
	combines(s.stopped, "Fold", s.kind)
	s.flush()
	base, ok, err := s.adoptStaged(st, s.kind)
	if !ok {
		return err
	}
	return s.ops.absorbPages(base, st.n)
}

// recordIter walks the records of a page group from page base on, or (g
// nil) of one spill run. It trusts nothing it reads: a record that does not
// fit the used bytes of its page, or whose length contradicts a fixed-size
// codec, ends the walk with err naming the page (counted from base) and
// offset.
type recordIter struct {
	shape           [2]recordShape
	g               *memory.Group
	base, page, off int
	data            []byte     // the current page's used bytes, or the run
	hd              uint64     // the current record: its header,
	ptr             memory.Ptr // where it starts,
	rec, key, val   []byte     // its bytes, and their two parts after the header
	err             error
	// The key records nextBatch gathered: their keys' hashes, where they
	// start, their keys and their tails.
	tags       [probeBatch]uint32
	ptrs       [probeBatch]memory.Ptr
	keys, vals [probeBatch][]byte
}

// records iterates the buffer's pages from page base on.
func (s *keyedStore) records(base int) recordIter {
	return recordIter{shape: s.shape, g: s.group, base: base, page: base - 1}
}

// step advances to the next record, whatever its flag.
func (it *recordIter) step() bool {
	for it.off >= len(it.data) {
		if it.g == nil || it.page+1 >= it.g.NumPages() {
			return false
		}
		it.page, it.off = it.page+1, 0
		it.data = it.g.Page(it.page)
	}
	start := it.off
	hd, w := uint64(it.data[start]), 1
	if hd >= 0x80 { // a key of 64 bytes or more
		hd, w = binary.Uvarint(it.data[start:])
	}
	sh := it.shape[hd&1]
	kl := min(hd>>1, uint64(len(it.data)))
	ks := start + w
	end := ks + int(kl) + sh.tail
	if w <= 0 || end > len(it.data) || sh.fixed >= 0 && kl != uint64(sh.fixed) {
		it.err = fmt.Errorf("shuffle: record at page %d offset %d (header %#x, codec size %d) does not fit the %d bytes in use",
			it.page-it.base, start, hd, sh.fixed, len(it.data))
		return false
	}
	it.off, it.hd = end, hd
	it.ptr = memory.Ptr{Page: int32(it.page), Off: int32(start)}
	it.rec, it.key, it.val = it.data[start:end], it.data[ks:ks+int(kl)], it.data[ks+int(kl):end]
	return true
}

// next advances to the next key record: the next record whose flag is clear.
func (it *recordIter) next() bool {
	for it.step() {
		if it.hd&1 == 0 {
			return true
		}
	}
	return false
}

// drainKey decodes the current record's key through d. A key that is not
// exactly its bytes ends the walk: it.err names its page and offset.
func drainKey[K any](it *recordIter, d decompose.Decoder[K]) (k K, ok bool) {
	if k, ok = d.Exact(it.key); !ok {
		it.err = fmt.Errorf("shuffle: key at page %d offset %d does not decode to its record's %d bytes", it.page-it.base, it.ptr.Off, len(it.key))
	}
	return k, ok
}

// nextBatch gathers the next key records, up to probeBatch of them, for a
// pipelined probe and returns how many there were: 0 ends the walk.
func (it *recordIter) nextBatch() int {
	n := 0
	for n < probeBatch && it.next() {
		it.tags[n], it.ptrs[n], it.keys[n], it.vals[n] = hashKey(it.key), it.ptr, it.key, it.val
		n++
	}
	return n
}

// DecaAgg is the page-decomposed aggregation buffer (§4.3.2, Figure 7): a
// pointer-free hash table (aggIndex) over page segments that hold the key
// and the value. Each distinct key owns one keyedStore record whose tail is
// its value; every combine decodes, combines and re-encodes the value *in
// place* — no allocation, no garbage. The flag marks a record dead: one a
// merge combined into another of the same key (absorbPages).
//
// The value codec must be fixed-size (a StaticFixed classification); the
// constructor enforces it because in-place reuse of a variable-size value
// would corrupt neighbouring segments — the safety property §3 exists to
// guarantee.
type DecaAgg[K comparable, V any] struct {
	keyedStore
	combine  func(V, V) V
	keyCodec decompose.Codec[K]
	valCodec decompose.Codec[V]
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
	shape := recordShape{fixed: keyCodec.FixedSize(), tail: valCodec.FixedSize()}
	b := &DecaAgg[K, V]{
		keyedStore: newKeyedStore(mem, spillDir, wireDecaAgg, shape, shape),
		combine:    combine,
		keyCodec:   keyCodec,
		valCodec:   valCodec,
	}
	b.ops = b
	return b, nil
}

// combineInto combines v into the value held in seg, in place.
func (b *DecaAgg[K, V]) combineInto(seg []byte, v V) {
	old, _ := b.valCodec.Decode(seg)
	b.valCodec.Encode(seg, b.combine(old, v))
}

// Put eagerly combines v into k's record, reusing its segment in place —
// when the batch it joins is flushed (stagePut). After StopCombining it
// appends a record of k and v to the pages instead.
func (b *DecaAgg[K, V]) Put(k K, v V) {
	b.valCodec.Encode(stagePut(&b.keyedStore, b.keyCodec, k, b.shape[0].tail), v)
}

// StopCombining ends the combine (DESIGN.md "Where the map side stops
// combining"): the fill state goes back (endFill) and each later Put
// appends its record to the pages, so a run or frame may repeat a key,
// which the reduce side's fold combines. Drain, Lookup, FoldRuns, Fold and
// MergeFrom panic from here on. Idempotent.
func (b *DecaAgg[K, V]) StopCombining() {
	b.flush()
	b.endFill()
	b.stopped = true
}

// put combines the encoded value val into key's record (keyedOps).
func (b *DecaAgg[K, V]) put(tag uint32, key, val []byte) {
	if seg, _, fresh := b.upsert(tag, key); fresh {
		copy(seg, val)
	} else {
		v, _ := b.valCodec.Decode(val)
		b.combineInto(seg, v)
	}
}

// Spill writes the live records as they stand in the pages — the run is
// the page encoding, no serialization pass — resets the pages for reuse
// and clears the index in place.
func (b *DecaAgg[K, V]) Spill() error {
	b.fills("Spill")
	if b.Len() == 0 {
		return nil
	}
	err := b.spillPages(func(w *spillWriter) error {
		it := b.records(0)
		for it.next() {
			if _, err := w.Write(it.rec); err != nil {
				return err
			}
		}
		return it.err
	})
	if err == nil {
		b.emptied()
	}
	return err
}

// FoldRuns merges any spilled runs back — each record re-aggregates through
// the byte-keyed put, a batch at a time — and deletes each as it lands.
func (b *DecaAgg[K, V]) FoldRuns() error {
	combines(b.stopped, "FoldRuns", b.kind)
	b.flush()
	return b.replay(func(run []byte) error {
		it := recordIter{shape: b.shape, data: run}
		for n := it.nextBatch(); n > 0; n = it.nextBatch() {
			b.idx.touch(b.group, it.tags[:n])
			for i := 0; i < n; i++ {
				b.put(it.tags[i], it.keys[i], it.vals[i])
			}
		}
		return it.err
	})
}

// Lookup returns k's combined value and whether b holds k: the key is
// encoded into the staging buffer and found through the index, nothing
// allocated. Pending spill runs (FoldRuns first) or a seal panic.
func (b *DecaAgg[K, V]) Lookup(k K) (v V, ok bool) {
	b.fills("Lookup")
	combines(b.stopped, "Lookup", b.kind)
	if len(b.spills) > 0 {
		panic("shuffle: Lookup on a DecaAgg with spill runs pending (FoldRuns first)")
	}
	b.flush()
	f, klen := b.fillState, keySize(&b.keyedStore, b.keyCodec, k)
	if len(f.buf) < klen {
		f.buf = make([]byte, klen)
	}
	key := f.buf[:klen] // flushed: no staged entry lives in buf
	b.keyCodec.Encode(key, k)
	if val, _, found := f.idx.find(b.group, hashKey(key), key, b.shape[0].tail); found {
		v, _ = b.valCodec.Decode(val)
		return v, true
	}
	return v, false
}

// Drain folds the spilled runs back and yields every pair in record order,
// each key the consumer's own (DrainInto over an owning Chunk).
func (b *DecaAgg[K, V]) Drain(yield func(K, V) bool) error {
	return b.DrainInto(new(decompose.Chunk), yield)
}

// DrainInto is Drain with each key decoded, only as it is yielded, into
// keys, whose form says whether the consumer owns the key or borrows it
// until yield returns (decompose.Chunk): no key is a view of a page.
func (b *DecaAgg[K, V]) DrainInto(keys *decompose.Chunk, yield func(K, V) bool) error {
	combines(b.stopped, "Drain", b.kind)
	if err := b.FoldRuns(); err != nil {
		return err
	}
	d := decompose.NewDecoder(b.keyCodec, keys)
	it := b.records(0)
	for more := true; more && it.next(); keys.Reuse() {
		k, ok := drainKey(&it, d)
		v, _ := b.valCodec.Decode(it.val)
		more = ok && yield(k, v)
	}
	return it.err
}

// EncodeWire writes the buffer's wire frame to w.
func (b *DecaAgg[K, V]) EncodeWire(w io.Writer) error { return writeSegments(w, b.EncodeSegments) }

// MergeFrom folds src into b without decoding or re-encoding records
// (keyedStore.mergeFrom).
//
// Ownership contract: MergeFrom consumes src. The caller must Release src
// afterwards and must not read it in between — records inside the adopted
// pages may be mutated by b, and transferred spill files now belong to b.
// Both buffers must share the codecs they were built with (the exchange
// constructs them from one PairOps).
func (b *DecaAgg[K, V]) MergeFrom(src *DecaAgg[K, V]) error { return b.mergeFrom(&src.keyedStore) }

// absorbPages indexes the records of the pages b just adopted at page base
// (keyedOps), a batch at a time. A new key's slot points at its record where
// it lies; a collision combines the source value into b's record in place
// and marks the source record dead. A slot only ever points at a record the
// walk has checked against its page, and the walk must find exactly n live
// ones. An empty b sizes its table from n first, capped at inlineKeys: n may
// be a hostile header, or an uncombined frame's count of records, not keys.
func (b *DecaAgg[K, V]) absorbPages(base, n int) error {
	ix := &b.idx
	if ix.n == 0 {
		ix.reserve(min(n, inlineKeys))
	}
	live, it := 0, b.records(base)
	for got := it.nextBatch(); got > 0; got = it.nextBatch() {
		live += got
		ix.touch(b.group, it.tags[:got])
		for i := 0; i < got; i++ {
			tag, ptr := it.tags[i], it.ptrs[i]
			if dst, at, found := ix.find(b.group, tag, it.keys[i], b.shape[0].tail); found {
				v, _ := b.valCodec.Decode(it.vals[i])
				b.combineInto(dst, v)
				b.group.Bytes(ptr, 1)[0] |= 1
			} else {
				ix.insert(at, tag, ptr)
			}
		}
	}
	if it.err == nil && live != n {
		return fmt.Errorf("shuffle: DecaAgg pages hold %d live records, their header says %d", live, n)
	}
	return it.err
}
