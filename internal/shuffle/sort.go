package shuffle

import (
	"fmt"
	"slices"
	"sort"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/serial"
)

// ObjectSort is the Spark-semantics sort-based shuffle buffer: record
// objects accumulate in a slice and are sorted by key. References inserted
// are never removed, so their lifetime equals the buffer's (§4.2 case 1).
type ObjectSort[K comparable, V any] struct {
	less    func(a, b K) bool
	records []decompose.Pair[K, V]

	keySer    serial.Serializer[K]
	valSer    serial.Serializer[V]
	dir       string
	spills    []spillFile
	spilled   int64
	entrySize func(K, V) int
	approx    int64 // running SizeBytes estimate, maintained by Put/Spill
	released  bool
}

// ObjectSortConfig mirrors the other object-buffer configs.
type ObjectSortConfig[K comparable, V any] struct {
	KeySer    serial.Serializer[K]
	ValSer    serial.Serializer[V]
	SpillDir  string
	EntrySize func(K, V) int
}

// NewObjectSort returns an empty sort buffer ordering keys by less.
//
//deca:owns
func NewObjectSort[K comparable, V any](less func(a, b K) bool, cfg ObjectSortConfig[K, V]) *ObjectSort[K, V] {
	es := cfg.EntrySize
	if es == nil {
		es = func(K, V) int { return 48 }
	}
	return &ObjectSort[K, V]{
		less:      less,
		keySer:    cfg.KeySer,
		valSer:    cfg.ValSer,
		dir:       cfg.SpillDir,
		entrySize: es,
	}
}

// Put inserts one record.
func (b *ObjectSort[K, V]) Put(k K, v V) {
	b.records = append(b.records, decompose.Pair[K, V]{Key: k, Value: v})
	b.approx += int64(b.entrySize(k, v))
}

// Len returns the number of in-memory records.
func (b *ObjectSort[K, V]) Len() int { return len(b.records) }

// SizeBytes estimates the footprint, maintained incrementally by Put and
// Spill instead of walking every buffered record on each call.
func (b *ObjectSort[K, V]) SizeBytes() int64 { return b.approx }

// SpilledBytes returns the cumulative spill volume.
func (b *ObjectSort[K, V]) SpilledBytes() int64 { return b.spilled }

// Spill sorts the in-memory records and writes them as a sorted run
// (Appendix C: "Deca sorts the pointers before spilling" — Spark sorts the
// records), serializing each.
func (b *ObjectSort[K, V]) Spill() error {
	if b.keySer == nil || b.valSer == nil {
		return fmt.Errorf("shuffle: ObjectSort has no serializers; cannot spill")
	}
	if len(b.records) == 0 {
		return nil
	}
	b.sortRecords()
	run, err := writeSpill(b.dir, func(w *spillWriter) error {
		for _, r := range b.records {
			rec := b.keySer.Marshal(w.stage(0), r.Key)
			rec = b.valSer.Marshal(rec, r.Value)
			if err := w.emitScratch(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.spills = append(b.spills, run)
	b.spilled += run.size
	b.records = nil
	b.approx = 0
	return nil
}

func (b *ObjectSort[K, V]) sortRecords() {
	sort.SliceStable(b.records, func(i, j int) bool {
		return b.less(b.records[i].Key, b.records[j].Key)
	})
}

// DrainSorted yields all records in key order, k-way merging any sorted
// spill runs with the in-memory records. Draining does not consume the
// buffer: spill runs stay on disk until Release, so a memoized shuffle
// output — which may hold runs transferred in by MergeFrom — drains
// identically on every action.
func (b *ObjectSort[K, V]) DrainSorted(yield func(K, V) bool) error {
	b.sortRecords()
	runs := make([]*runCursor[K, V], 0, len(b.spills)+1)
	for _, run := range b.spills {
		data, err := run.read()
		if err != nil {
			return err
		}
		rc := &runCursor[K, V]{data: data, decode: func(src []byte) (decompose.Pair[K, V], int) {
			k, kn := b.keySer.Unmarshal(src)
			v, vn := b.valSer.Unmarshal(src[kn:])
			return decompose.Pair[K, V]{Key: k, Value: v}, kn + vn
		}}
		rc.advance()
		runs = append(runs, rc)
	}
	mem := &runCursor[K, V]{mem: b.records}
	mem.advance()
	runs = append(runs, mem)

	mergeRuns(runs, b.less, yield)
	return nil
}

// Release drops everything.
func (b *ObjectSort[K, V]) Release() {
	if b.released {
		return
	}
	b.released = true
	b.records = nil
	b.approx = 0
	for _, run := range b.spills {
		run.remove()
	}
	b.spills = nil
}

// DecaSort is the page-backed sort buffer of Figure 6(b): records are
// decomposed into pages as they arrive and an array of in-page pointers is
// sorted instead of the records themselves. The hashing/sorting operations
// run on the pointer array; record bytes never move.
type DecaSort[K comparable, V any] struct {
	less      func(a, b K) bool
	pairCodec decompose.PairCodec[K, V]

	group *memory.Group //deca:owns (released by Release; decode re-homes restored groups here)
	ptrs  []memory.Ptr
	dir   string

	spills   []spillFile
	spilled  int64
	released bool
}

// NewDecaSort returns a page-backed sort buffer.
//
//deca:owns
func NewDecaSort[K comparable, V any](
	mem *memory.Manager,
	less func(a, b K) bool,
	keyCodec decompose.Codec[K],
	valCodec decompose.Codec[V],
	spillDir string,
) *DecaSort[K, V] {
	return &DecaSort[K, V]{
		less:      less,
		pairCodec: decompose.PairCodec[K, V]{KeyCodec: keyCodec, ValueCodec: valCodec},
		group:     mem.NewGroup(),
		dir:       spillDir,
	}
}

// Put encodes the record into the pages and appends its pointer.
func (b *DecaSort[K, V]) Put(k K, v V) {
	b.ptrs = append(b.ptrs, decompose.Write(b.group, b.pairCodec, decompose.Pair[K, V]{Key: k, Value: v}))
}

// Len returns the number of in-memory records.
func (b *DecaSort[K, V]) Len() int { return len(b.ptrs) }

// SizeBytes returns the page footprint plus the pointer array.
func (b *DecaSort[K, V]) SizeBytes() int64 {
	return b.group.Footprint() + int64(len(b.ptrs))*8
}

// SpilledBytes returns the cumulative spill volume.
func (b *DecaSort[K, V]) SpilledBytes() int64 { return b.spilled }

// keyAt decodes only the key of the record at ptr.
func (b *DecaSort[K, V]) keyAt(ptr memory.Ptr) K {
	page := b.group.Page(int(ptr.Page))
	k, _ := b.pairCodec.KeyCodec.Decode(page[ptr.Off:])
	return k
}

func (b *DecaSort[K, V]) sortPtrs() {
	sort.SliceStable(b.ptrs, func(i, j int) bool {
		return b.less(b.keyAt(b.ptrs[i]), b.keyAt(b.ptrs[j]))
	})
}

// Spill sorts the pointer array and writes the records in pointer order as
// raw bytes (Appendix C), then resets the pages.
func (b *DecaSort[K, V]) Spill() error {
	if len(b.ptrs) == 0 {
		return nil
	}
	b.sortPtrs()
	run, err := writeSpill(b.dir, func(w *spillWriter) error {
		for _, ptr := range b.ptrs {
			// Record bytes dump straight from the page in pointer order —
			// no staging buffer at all.
			page := b.group.Page(int(ptr.Page))
			_, n := b.pairCodec.Decode(page[ptr.Off:])
			if err := w.emit(page[ptr.Off : int(ptr.Off)+n]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.spills = append(b.spills, run)
	b.spilled += run.size
	b.ptrs = nil
	b.group.Reset()
	return nil
}

// DrainSorted yields all records in key order, merging sorted spill runs
// with the sorted in-memory pointer array. Like ObjectSort, draining
// leaves the spill runs in place — Release owns their deletion — so
// repeated drains of a memoized output (possibly holding MergeFrom-
// transferred runs) all see the full record set.
func (b *DecaSort[K, V]) DrainSorted(yield func(K, V) bool) error {
	b.sortPtrs()
	runs := make([]*runCursor[K, V], 0, len(b.spills)+1)
	for _, run := range b.spills {
		data, err := run.read()
		if err != nil {
			return err
		}
		rc := &runCursor[K, V]{data: data, decode: b.pairCodec.Decode}
		rc.advance()
		runs = append(runs, rc)
	}
	memRun := &runCursor[K, V]{}
	memRun.mem = make([]decompose.Pair[K, V], len(b.ptrs))
	for i, ptr := range b.ptrs {
		memRun.mem[i] = decompose.ReadAt(b.group, b.pairCodec, ptr)
	}
	memRun.advance()
	runs = append(runs, memRun)

	mergeRuns(runs, b.less, yield)
	return nil
}

// MergeFrom folds src into b zero-copy: b adopts src's page group by
// reference and appends src's pointer array rebased to b's page address
// space; records are never decoded — ordering is established lazily by
// the next DrainSorted/Spill. Sorted spill runs transfer by file handle
// and join b's k-way merge untouched. Same ownership contract as
// DecaAgg.MergeFrom: src is consumed and must only be Released afterwards.
func (b *DecaSort[K, V]) MergeFrom(src *DecaSort[K, V]) error {
	if src == b {
		return fmt.Errorf("shuffle: DecaSort cannot merge from itself")
	}
	b.spills = append(b.spills, src.spills...)
	b.spilled += src.spilled
	src.spills = nil
	if len(src.ptrs) == 0 {
		return nil
	}
	base := b.group.AdoptPages(src.group)
	for _, ptr := range src.ptrs {
		b.ptrs = append(b.ptrs, ptr.Rebase(base))
	}
	return nil
}

// Fold merges a staged frame into b; see DecaAgg.Fold. The frame's
// pointers append to b's array validated and rebased; ordering stays
// deferred to the next DrainSorted/Spill.
//
//deca:transfers
func (b *DecaSort[K, V]) Fold(st *Staged) error {
	defer st.Release()
	if more, err := st.open(wireDecaSort, &b.spills, &b.spilled); !more {
		return err
	}
	base := b.group.AdoptPages(st.group)
	b.ptrs = slices.Grow(b.ptrs, len(st.ptrs))
	for _, ptr := range st.ptrs {
		if _, err := st.group.CheckedBytes(ptr, 1); err != nil {
			return fmt.Errorf("shuffle: DecaSort: %w", err)
		}
		b.ptrs = append(b.ptrs, ptr.Rebase(base))
	}
	return nil
}

// Release frees the page group wholesale and deletes spill files.
func (b *DecaSort[K, V]) Release() {
	if b.released {
		return
	}
	b.released = true
	b.ptrs = nil
	b.group.Release()
	for _, run := range b.spills {
		run.remove()
	}
	b.spills = nil
}

// runCursor iterates one sorted run: either decoded from spill bytes or an
// in-memory slice.
type runCursor[K comparable, V any] struct {
	data   []byte
	off    int
	decode func(src []byte) (decompose.Pair[K, V], int)

	mem    []decompose.Pair[K, V]
	memIdx int

	cur decompose.Pair[K, V]
	ok  bool
}

func (rc *runCursor[K, V]) advance() {
	if rc.mem != nil || rc.decode == nil {
		if rc.memIdx < len(rc.mem) {
			rc.cur = rc.mem[rc.memIdx]
			rc.memIdx++
			rc.ok = true
		} else {
			rc.ok = false
		}
		return
	}
	if rc.off >= len(rc.data) {
		rc.ok = false
		return
	}
	p, n := rc.decode(rc.data[rc.off:])
	rc.off += n
	rc.cur = p
	rc.ok = true
}

// mergeRuns k-way merges sorted runs by repeatedly taking the minimum key.
// Run counts are small (spill count + 1), so a linear scan beats a heap.
func mergeRuns[K comparable, V any](runs []*runCursor[K, V], less func(a, b K) bool, yield func(K, V) bool) {
	for {
		best := -1
		for i, rc := range runs {
			if !rc.ok {
				continue
			}
			if best < 0 || less(rc.cur.Key, runs[best].cur.Key) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		rec := runs[best].cur
		runs[best].advance()
		if !yield(rec.Key, rec.Value) {
			return
		}
	}
}
