package shuffle

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/transport"
)

// ObjectSort is the Spark-semantics sort-based shuffle buffer: record
// objects accumulate in a slice and are sorted by key. References inserted
// are never removed, so their lifetime equals the buffer's (§4.2 case 1).
type ObjectSort[K comparable, V any] struct {
	boxedStore[K, V]
	less    func(a, b K) bool
	records []decompose.Pair[K, V]
}

// NewObjectSort returns an empty sort buffer ordering keys by less.
//
//deca:owns
func NewObjectSort[K comparable, V any](less func(a, b K) bool, cfg ObjectConfig[K, V]) *ObjectSort[K, V] {
	return &ObjectSort[K, V]{boxedStore: newBoxedStore(cfg), less: less}
}

// Put inserts one record.
func (b *ObjectSort[K, V]) Put(k K, v V) {
	b.records = append(b.records, decompose.Pair[K, V]{Key: k, Value: v})
	b.charge(k, v)
}

// Len returns the number of in-memory records.
func (b *ObjectSort[K, V]) Len() int { return len(b.records) }

// each enumerates the in-memory records in their current order for the
// store's spill and frame writers.
func (b *ObjectSort[K, V]) each(emit func(K, V) error) error {
	for _, r := range b.records {
		if err := emit(r.Key, r.Value); err != nil {
			return err
		}
	}
	return nil
}

// Spill sorts the in-memory records and writes them as a sorted run
// (Appendix C: "Deca sorts the pointers before spilling" — Spark sorts the
// records), serializing each.
func (b *ObjectSort[K, V]) Spill() error {
	b.sortRecords()
	if err := b.spill(wireObjectSort, len(b.records), b.each); err != nil {
		return err
	}
	b.records = nil
	return nil
}

// EncodeSegments builds the buffer's frame (boxedStore.encodeSegments):
// the in-memory records in insertion order, then the sorted spill runs.
//
//deca:owns
func (b *ObjectSort[K, V]) EncodeSegments() (*transport.FrameSegments, error) {
	return b.encodeSegments(wireObjectSort, len(b.records), b.each)
}

// Fold merges a staged frame of b's kind into b (boxedStore.fold); its
// sorted runs join the k-way merge untouched.
//
//deca:transfers
func (b *ObjectSort[K, V]) Fold(st *Staged) error { return b.fold(st, wireObjectSort, b.Put) }

func (b *ObjectSort[K, V]) sortRecords() {
	sort.SliceStable(b.records, func(i, j int) bool {
		return b.less(b.records[i].Key, b.records[j].Key)
	})
}

// DrainSorted yields all records in key order, k-way merging any sorted
// spill runs with the in-memory records. Draining does not consume the
// buffer: spill runs stay on disk until Release, so a memoized shuffle
// output — which may hold runs taken over by Fold — drains identically on
// every action.
func (b *ObjectSort[K, V]) DrainSorted(yield func(K, V) bool) error {
	b.sortRecords()
	return mergeSorted(&b.runSet, b.decodePair, b.records, b.less, yield)
}

// Release drops everything.
func (b *ObjectSort[K, V]) Release() {
	b.records = nil
	b.boxedStore.Release()
}

// DecaSort is the page-backed sort buffer of Figure 6(b): records are
// decomposed into pages as they arrive and an array of in-page pointers is
// sorted instead of the records themselves. The hashing/sorting operations
// run on the pointer array; record bytes never move.
type DecaSort[K comparable, V any] struct {
	pageStore
	less      func(a, b K) bool
	pairCodec decompose.PairCodec[K, V]
	ptrs      []memory.Ptr
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
		pageStore: newPageStore(mem, spillDir),
		less:      less,
		pairCodec: decompose.PairCodec[K, V]{KeyCodec: keyCodec, ValueCodec: valCodec},
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

// sortedRecords sorts decoded records and their pointers together, by key.
type sortedRecords[K comparable, V any] struct {
	recs []decompose.Pair[K, V]
	ptrs []memory.Ptr //deca:owns (the DecaSort's own array, sorted in place for the length of one sort)
	less func(a, b K) bool
}

func (s sortedRecords[K, V]) Len() int           { return len(s.recs) }
func (s sortedRecords[K, V]) Less(i, j int) bool { return s.less(s.recs[i].Key, s.recs[j].Key) }
func (s sortedRecords[K, V]) Swap(i, j int) {
	s.recs[i], s.recs[j] = s.recs[j], s.recs[i]
	s.ptrs[i], s.ptrs[j] = s.ptrs[j], s.ptrs[i]
}

// sorted decodes every in-memory record once, into a fresh chunk
// (decompose.Chunk), and sorts the records stably by key, the pointer array
// with them: a comparison decodes nothing. The decoder comes back with them,
// for the spill runs a drain merges in.
func (b *DecaSort[K, V]) sorted() ([]decompose.Pair[K, V], decompose.Decoder[decompose.Pair[K, V]]) {
	d := decompose.NewDecoder[decompose.Pair[K, V]](b.pairCodec, new(decompose.Chunk))
	recs := make([]decompose.Pair[K, V], len(b.ptrs))
	for i, ptr := range b.ptrs {
		recs[i], _ = d.Decode(b.group.Page(int(ptr.Page))[ptr.Off:])
	}
	sort.Stable(sortedRecords[K, V]{recs, b.ptrs, b.less})
	return recs, d
}

// Spill sorts the pointer array and writes the records in pointer order as
// raw bytes (Appendix C), then resets the pages.
func (b *DecaSort[K, V]) Spill() error {
	if len(b.ptrs) == 0 {
		return nil
	}
	recs, _ := b.sorted()
	err := b.spillPages(func(w *spillWriter) error {
		for i, ptr := range b.ptrs {
			// Record bytes dump straight from the page in pointer order —
			// no staging buffer at all.
			page := b.group.Page(int(ptr.Page))
			n := b.pairCodec.Size(recs[i])
			if err := w.emit(page[ptr.Off : int(ptr.Off)+n]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.ptrs = nil
	return nil
}

// DrainSorted yields all records in key order, merging sorted spill runs
// with the sorted in-memory pointer array. Like ObjectSort, draining
// leaves the spill runs in place — Release owns their deletion — so
// repeated drains of a memoized output (possibly holding MergeFrom-
// transferred runs) all see the full record set.
func (b *DecaSort[K, V]) DrainSorted(yield func(K, V) bool) error {
	recs, d := b.sorted()
	return mergeSorted(&b.runSet, d.Decode, recs, b.less, yield)
}

// EncodeSegments builds the DecaSort frame: the leanest one — no key
// table at all, the records ship as pages and the ordering state as
// pointers.
//
//deca:owns
func (b *DecaSort[K, V]) EncodeSegments() (*transport.FrameSegments, error) {
	return b.encodeSegments(wireDecaSort, len(b.ptrs), func(fs *transport.FrameSegments) {
		stagePtrs(fs, b.ptrs)
	})
}

// EncodeWire writes the buffer's wire frame to w.
func (b *DecaSort[K, V]) EncodeWire(w io.Writer) error { return writeSegments(w, b.EncodeSegments) }

// MergeFrom folds src into b zero-copy: b adopts src's page group and
// spill runs (pageStore.adopt) and appends src's pointer array rebased to
// b's page address space; records are never decoded — ordering is
// established lazily by the next DrainSorted/Spill, and the transferred
// runs, already sorted, join b's k-way merge untouched. Same ownership
// contract as DecaAgg.MergeFrom: src is consumed and must only be
// Released afterwards.
func (b *DecaSort[K, V]) MergeFrom(src *DecaSort[K, V]) error {
	if src == b {
		return fmt.Errorf("shuffle: DecaSort cannot merge from itself")
	}
	if base, ok := b.adopt(&src.pageStore, len(src.ptrs)); ok {
		for _, ptr := range src.ptrs {
			b.ptrs = append(b.ptrs, ptr.Rebase(base))
		}
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
	base, ok, err := b.adoptStaged(st, wireDecaSort)
	if !ok {
		return err
	}
	b.ptrs = slices.Grow(b.ptrs, len(st.ptrs))
	for _, ptr := range st.ptrs {
		if _, err := st.group.CheckedBytes(ptr, 1); err != nil {
			return fmt.Errorf("shuffle: DecaSort: %w", err)
		}
		b.ptrs = append(b.ptrs, ptr.Rebase(base))
	}
	return nil
}

// Seal ends the fill (keyedStore.Seal); drain and frame still read the pointers.
func (b *DecaSort[K, V]) Seal() {}

// Release frees the pages and spill files (pageStore.Release) and drops
// the pointer array.
func (b *DecaSort[K, V]) Release() {
	b.ptrs = nil
	b.pageStore.Release()
}
