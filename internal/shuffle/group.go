package shuffle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/transport"
)

// ObjectGroup is the Spark-semantics groupByKey buffer: a hash table from
// key to a growing list of boxed values. The lists only grow, so every
// inserted reference lives until the buffer is released — the long-living
// population that saturates the old generation (§4.2 case 3).
type ObjectGroup[K comparable, V any] struct {
	boxedStore[K, V]
	table map[K][]*V
	count int
}

// NewObjectGroup returns an empty grouping buffer.
//
//deca:owns
func NewObjectGroup[K comparable, V any](cfg ObjectConfig[K, V]) *ObjectGroup[K, V] {
	return &ObjectGroup[K, V]{boxedStore: newBoxedStore(cfg), table: make(map[K][]*V)}
}

// Put appends v to k's value list (boxed, like the JVM's ArrayBuffer of
// references).
func (b *ObjectGroup[K, V]) Put(k K, v V) {
	b.table[k] = append(b.table[k], &v)
	b.count++
	b.charge(k, v)
}

// Len returns the number of distinct keys in memory.
func (b *ObjectGroup[K, V]) Len() int { return len(b.table) }

// Values returns the total number of buffered values in memory.
func (b *ObjectGroup[K, V]) Values() int { return b.count }

// each enumerates every (key, value) pair flat, in list order per key, for
// the store's spill and frame writers; replay and decode regroup them with
// within-key order preserved.
func (b *ObjectGroup[K, V]) each(emit func(K, V) error) error {
	for k, vs := range b.table {
		for _, v := range vs {
			if err := emit(k, *v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Spill serializes all (key, value) pairs flat and clears memory; Drain
// re-groups them.
func (b *ObjectGroup[K, V]) Spill() error {
	if err := b.spill(wireObjectGroup, b.count, b.each); err != nil {
		return err
	}
	b.table = make(map[K][]*V)
	b.count = 0
	return nil
}

// EncodeSegments builds the buffer's frame (boxedStore.encodeSegments).
//
//deca:owns
func (b *ObjectGroup[K, V]) EncodeSegments() (*transport.FrameSegments, error) {
	return b.encodeSegments(wireObjectGroup, b.count, b.each)
}

// Fold merges a staged frame of b's kind into b (boxedStore.fold).
//
//deca:transfers
func (b *ObjectGroup[K, V]) Fold(st *Staged) error { return b.fold(st, wireObjectGroup, b.Put) }

// Drain merges spills back and yields every key with its complete value
// list.
func (b *ObjectGroup[K, V]) Drain(yield func(K, []V) bool) error {
	if err := b.replay(b.Put); err != nil {
		return err
	}
	for k, vs := range b.table {
		out := make([]V, len(vs))
		for i, v := range vs {
			out[i] = *v
		}
		if !yield(k, out) {
			return nil
		}
	}
	return nil
}

// Release drops everything.
func (b *ObjectGroup[K, V]) Release() {
	b.table = nil
	b.boxedStore.Release()
}

// DecaGroup is the page-backed groupByKey buffer of Figure 7(b), wholly
// decomposed: a key is a keyedStore record, a value a node appended to the
// same pages as it arrives (the codec may be RuntimeFixed: values are
// written once, never mutated), a key's value list the chain of its nodes:
//
//	key record   uvarint (klen<<1)     | key bytes   | head link | tail link | uint32 count
//	value node   uvarint (vlen<<1 | 1) | value bytes | next link
//
// A link is 8 bytes in the putPtr layout, its page counted from the page of
// the record holding it, all zero for "none". Links point forward, at what
// starts after their holder ends: none can be all zero or close a loop, and
// all stay valid as they lie when the pages are snapshot, restored or
// adopted behind another buffer's (a frame's pages stay contiguous). head
// is the key's first node, tail the *link field* the next node hangs on
// (the last node's next link), count the chain's length; a key record that
// counts 0 is dead: a merge spliced its chain onto another record of the
// same key (absorbPages).
type DecaGroup[K comparable, V any] struct {
	keyedStore
	keyCodec decompose.Codec[K]
	valCodec decompose.Codec[V]
	count    int // values in memory
}

const (
	linkSize  = 8
	chainSize = 2*linkSize + 4 // a key record's tail: head | tail | count
)

// NewDecaGroup returns a page-backed grouping buffer. keyCodec must not be
// nil: keys live in the pages in its encoding.
//
//deca:owns
func NewDecaGroup[K comparable, V any](
	mem *memory.Manager,
	keyCodec decompose.Codec[K],
	valCodec decompose.Codec[V],
	spillDir string,
) *DecaGroup[K, V] {
	if keyCodec == nil {
		panic("shuffle: DecaGroup requires a key codec")
	}
	b := &DecaGroup[K, V]{
		keyedStore: newKeyedStore(mem, spillDir, wireDecaGroup,
			recordShape{fixed: keyCodec.FixedSize(), tail: chainSize},
			recordShape{fixed: valCodec.FixedSize(), tail: linkSize}),
		keyCodec: keyCodec,
		valCodec: valCodec,
	}
	b.ops, b.idx.chained = b, true
	return b
}

// getLink reads, and putLink writes, the link in b of a record in page from.
func getLink(b []byte, from int32) memory.Ptr     { return getPtr(b).Rebase(int(from)) }
func putLink(b []byte, from int32, to memory.Ptr) { putPtr(b, to.Rebase(-int(from))) }

// after reports whether p lies at or past offset end of page: forward of a
// record that ends there.
func after(p memory.Ptr, page, end int32) bool {
	return p.Page > page || p.Page == page && p.Off >= end
}

// chainCount reads, and addCount grows, the count of a key record's chain.
func chainCount(chain []byte) int { return int(binary.LittleEndian.Uint32(chain[2*linkSize:])) }
func addCount(chain []byte, n int) {
	binary.LittleEndian.PutUint32(chain[2*linkSize:], uint32(chainCount(chain)+n))
}

// mixPtr hashes a page position for absorbPages' link sums.
func mixPtr(p memory.Ptr) uint64 {
	return mum(uint64(uint32(p.Page))<<32|uint64(uint32(p.Off))^0x9e3779b97f4a7c15, 0xa0761d6478bd642f)
}

// push appends a node for a value of vlen bytes to the chain of the key
// record in page; the caller fills the value segment it returns.
func (b *DecaGroup[K, V]) push(chain []byte, page int32, vlen int) ([]byte, error) {
	link, from := chain[:linkSize], page // an empty chain's first node hangs on head
	if chainCount(chain) > 0 {
		// Checked: a buffer a failed fold left half-merged must not turn a
		// bad tail into a write out of bounds.
		tail := getLink(chain[linkSize:], page)
		var err error
		if link, err = b.group.CheckedBytes(tail, linkSize); err != nil {
			return nil, fmt.Errorf("shuffle: DecaGroup tail link: %w", err)
		}
		from = tail.Page
	}
	hd := uint64(vlen)<<1 | 1
	w := (bits.Len64(hd) + 6) / 7
	node, ptr := b.group.Alloc(w + vlen + linkSize)
	binary.PutUvarint(node, hd)
	clear(node[w+vlen:])
	putLink(link, from, ptr)
	putLink(chain[linkSize:], page, memory.Ptr{Page: ptr.Page, Off: ptr.Off + int32(w+vlen)})
	addCount(chain, 1)
	b.count++
	return node[w : w+vlen], nil
}

// Put appends v, decomposed, to k's chain — when the batch it joins is
// flushed (stagePut).
func (b *DecaGroup[K, V]) Put(k K, v V) {
	b.valCodec.Encode(stagePut(&b.keyedStore, b.keyCodec, k, b.valCodec.Size(v)), v)
}

// put hangs a node holding the encoded value val on key's chain
// (keyedOps). It can only fail — and then panics — on a buffer a failed
// Fold left for release.
func (b *DecaGroup[K, V]) put(tag uint32, key, val []byte) {
	chain, page, _ := b.upsert(tag, key)
	seg, err := b.push(chain, page, len(val))
	if err != nil {
		panic(err)
	}
	copy(seg, val)
}

// Values returns the total number of buffered values in memory.
func (b *DecaGroup[K, V]) Values() int {
	b.flush()
	return b.count
}

// node decodes the value of the value node at p through vals and returns
// its next-link segment, checked against its page: chains are walked with
// the distrust their pages were absorbed with, and a value must decode to
// exactly its bytes.
func (b *DecaGroup[K, V]) node(p memory.Ptr, vals decompose.Decoder[V]) (v V, link []byte, err error) {
	var data []byte
	if p.Page >= 0 && int(p.Page) < b.group.NumPages() && p.Off >= 0 {
		if page := b.group.Page(int(p.Page)); int(p.Off) < len(page) {
			data = page[p.Off:]
		}
	}
	hd, w := binary.Uvarint(data)
	vl, fixed := min(hd>>1, uint64(len(data))), b.shape[1].fixed
	end := w + int(vl) + linkSize
	if w > 0 && hd&1 != 0 && end <= len(data) && (fixed < 0 || vl == uint64(fixed)) {
		if v, ok := vals.Exact(data[w : end-linkSize]); ok {
			return v, data[end-linkSize : end], nil
		}
	}
	return v, nil, fmt.Errorf("shuffle: DecaGroup chain reaches no well-formed value node at %v", p)
}

// Spill writes the pages as they lie — records, links and all: Deca's
// bytes are already in I/O form (Appendix C) — under the count of live key
// records, resets the pages and clears the index in place. The run is a
// frame without kind byte or spill section, and replaying it is folding it.
func (b *DecaGroup[K, V]) Spill() error {
	b.fills("Spill")
	if b.Len() == 0 {
		return nil
	}
	err := b.spillPages(func(w *spillWriter) error {
		if err := w.emitScratch(binary.AppendUvarint(w.stage(0), uint64(b.idx.n))); err != nil {
			return err
		}
		_, err := b.group.Snapshot(w)
		return err
	})
	if err == nil {
		b.idx.reset()
		b.count = 0
	}
	return err
}

// replayRun takes one spill run back in: its pages restore behind b's own
// and are absorbed like a fetched frame's, checks included — each key's
// spilled values follow the ones b holds.
func (b *DecaGroup[K, V]) replayRun(run []byte) error {
	r := bytes.NewReader(run)
	n, err := readCount(r, "DecaGroup spill run")
	if err != nil {
		return err
	}
	g, err := b.idx.mem.RestoreGroup(r)
	if err != nil {
		return err
	}
	defer g.Release() // b keeps the pages it adopts
	return b.absorbPages(b.group.AdoptPages(g), n)
}

// listChunk is the most values a drain's array of value lists holds,
// unless one list is longer.
const listChunk = 4096

// Drain merges any spilled runs — their values follow the in-memory ones
// of their key, run by run — and yields each key with its decoded value
// list, in record order. A chain is walked for as many nodes as its record
// counts and must end there. Keys and values decode into the drain's own
// chunk (decompose.Chunk), and each list is cut from an array of lists with
// its capacity at its end: appending to it cannot reach the next list.
func (b *DecaGroup[K, V]) Drain(yield func(K, []V) bool) error {
	b.flush()
	if err := b.replay(b.replayRun); err != nil {
		return err
	}
	chunk, lists := new(decompose.Chunk), []V(nil)
	keys, vals := decompose.NewDecoder(b.keyCodec, chunk), decompose.NewDecoder(b.valCodec, chunk)
	it := b.records(0)
	for it.next() {
		n := chainCount(it.val)
		if n == 0 {
			continue
		}
		if m := min(n, b.count); cap(lists)-len(lists) < m {
			lists = make([]V, 0, max(m, min(b.count, listChunk)))
		}
		start := len(lists)
		for link, from := it.val[:linkSize], int32(it.page); n > 0; n-- {
			at := getLink(link, from)
			v, next, err := b.node(at, vals)
			if err == nil && (binary.LittleEndian.Uint64(next) == 0) != (n == 1) {
				err = fmt.Errorf("shuffle: DecaGroup chain of the key at %v does not end with its count, %d nodes on", it.ptr, n-1)
			}
			if err != nil {
				return err
			}
			lists = append(lists, v)
			link, from = next, at.Page
		}
		if k, ok := drainKey(&it, keys); !ok || !yield(k, lists[start:len(lists):len(lists)]) {
			break
		}
	}
	return it.err
}

// EncodeWire writes the buffer's wire frame to w.
func (b *DecaGroup[K, V]) EncodeWire(w io.Writer) error { return writeSegments(w, b.EncodeSegments) }

// MergeFrom folds src into b zero-copy (keyedStore.mergeFrom). Same
// ownership contract as DecaAgg.MergeFrom: src is consumed and must only
// be Released afterwards.
func (b *DecaGroup[K, V]) MergeFrom(src *DecaGroup[K, V]) error { return b.mergeFrom(&src.keyedStore) }

// absorbPages indexes the records of the pages b just adopted at page base
// (keyedOps). A new key's slot points at its record where it lies,
// chain and all; a collision hangs the source chain on the end of b's — the
// source's values follow b's own — and leaves the source record dead: no
// link is rewritten but that one. The walk passes every adopted record, so
// it holds the pages to account as a whole: n live key records, their
// counts adding up to the nodes present, every link forward, every node
// named by exactly one head or next link and every chain end by exactly one
// tail — as sums of position hashes, which no link into the middle of a
// record, out of the pages or onto another chain's node balances. An error
// leaves b partially merged, for the caller to release.
func (b *DecaGroup[K, V]) absorbPages(base, n int) error {
	if b.idx.n == 0 {
		b.idx.reserve(min(n, stagePresize))
	}
	var live, nodes, values int
	var links, ends uint64 // Σ hash(node) − Σ hash(link to it); Σ hash(nil link field) − Σ hash(tail link)
	it := b.records(base)
	for it.step() {
		page, end := int32(it.page), int32(it.off)
		if it.hd&1 != 0 {
			nodes++
			links += mixPtr(it.ptr)
			if binary.LittleEndian.Uint64(it.val) == 0 {
				ends += mixPtr(memory.Ptr{Page: page, Off: end - linkSize})
			} else if next := getLink(it.val, page); after(next, page, end) {
				links -= mixPtr(next)
			} else {
				return fmt.Errorf("shuffle: DecaGroup value node at %v links back to %v", it.ptr, next)
			}
			continue
		}
		cnt := chainCount(it.val)
		if cnt == 0 {
			continue
		}
		live++
		values += cnt
		head, tail := getLink(it.val, page), getLink(it.val[linkSize:], page)
		if !after(head, page, end) {
			return fmt.Errorf("shuffle: DecaGroup key record at %v links back to %v", it.ptr, head)
		}
		links -= mixPtr(head)
		ends -= mixPtr(tail)
		tag := hashKey(it.key)
		dst, at, found := b.idx.find(b.group, tag, it.key, chainSize)
		if !found {
			b.idx.insert(at, tag, it.ptr)
			continue
		}
		dpage := b.idx.slot(at).ptr.Page
		dtail := getLink(dst[linkSize:], dpage)
		link, err := b.group.CheckedBytes(dtail, linkSize)
		if err != nil {
			return fmt.Errorf("shuffle: DecaGroup tail link: %w", err)
		}
		if !after(head, dtail.Page, dtail.Off+linkSize) {
			return fmt.Errorf("shuffle: DecaGroup key record at %v is not the first of its key in these pages", it.ptr)
		}
		putLink(link, dtail.Page, head)
		putLink(dst[linkSize:], dpage, tail)
		addCount(dst, cnt)
		clear(it.val[2*linkSize:])
	}
	switch {
	case it.err != nil:
		return it.err
	case live != n:
		return fmt.Errorf("shuffle: DecaGroup pages hold %d live keys, their header says %d", live, n)
	case values != nodes:
		return fmt.Errorf("shuffle: DecaGroup key records count %d values, their pages hold %d", values, nodes)
	case links != 0 || ends != 0:
		return fmt.Errorf("shuffle: DecaGroup links do not reach each of %d value nodes and chain ends exactly once", nodes)
	}
	b.count += nodes
	return nil
}
