package shuffle

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"deca/internal/memory"
)

// Stage → fold: how a fetched Deca frame joins the reduce-side buffer
// (DESIGN.md, "Reduce merge: stage → fold").
//
// Stage (StageDecaAgg/Group/Sort; the fetch-pipeline worker runs it as
// the frame streams off the transport) reads the key/pointer table into
// flat per-frame arenas and restores the page bodies straight into the
// destination manager. It builds no map, no per-key slice and no
// container: a staged frame is O(1) heap objects whatever its key count.
// Fold (DecaAgg/DecaGroup/DecaSort.Fold; the reduce task runs it, in map
// order) adopts the pages and walks the arenas — for DecaAgg, the pages'
// own records — once in wire order.
//
// One parser serves the tables:
//
//	DecaAgg    none: n counts the live records in the pages
//	DecaGroup  n × [uvarint klen | key | uvarint m | m × ptr]
//	DecaSort   n × ptr

// kindNames names the frame kinds in error text.
var kindNames = [...]string{
	wireDecaAgg: "DecaAgg", wireObjectAgg: "ObjectAgg",
	wireDecaGroup: "DecaGroup", wireObjectGroup: "ObjectGroup",
	wireDecaSort: "DecaSort", wireObjectSort: "ObjectSort",
}

// kindName names one of the frame kind constants.
func kindName(kind byte) string { return kindNames[kind] }

// Staged is one Deca frame staged for folding. Its page store owns the
// restored page group and spill runs until a Fold adopts them or Release
// ends them; Fold consumes the frame either way.
type Staged struct {
	pageStore
	kind byte // wireDecaAgg, wireDecaGroup or wireDecaSort
	n    int  // keys (agg, group) or records (sort)
	// table is DecaGroup's key table as it crossed the wire, minus the
	// pointer arrays: per entry uvarint klen | key | uvarint pointer
	// count. Empty for agg and sort.
	table []byte
	// ptrs holds DecaGroup's per-key pointer arrays back to back, in table
	// order, and DecaSort's records. They address group's pages as-is.
	ptrs []memory.Ptr
}

// stagePresize caps how many table entries a stage reserves arena room
// for on the strength of the count header alone; past it (and for totals
// the frame does not announce) the arenas grow as bytes actually arrive,
// so a corrupt count cannot turn into a huge allocation.
const stagePresize = 1 << 18

// StageDecaAgg stages a DecaAgg frame inside the destination executor:
// pages restore into mem, spill runs land in spillDir. The frame has no
// table, so the stage holds no per-key state; the records are checked
// when Fold walks them.
//
//deca:owns
func StageDecaAgg(r WireReader, mem *memory.Manager, spillDir string) (*Staged, error) {
	return stageFrame(r, mem, wireDecaAgg, -1, spillDir)
}

// StageDecaGroup stages a DecaGroup frame; see StageDecaAgg. keySize is
// the key codec's FixedSize (negative: variable).
//
//deca:owns
func StageDecaGroup(r WireReader, mem *memory.Manager, keySize int, spillDir string) (*Staged, error) {
	return stageFrame(r, mem, wireDecaGroup, keySize, spillDir)
}

// StageDecaSort stages a DecaSort frame; see StageDecaAgg.
//
//deca:owns
func StageDecaSort(r WireReader, mem *memory.Manager, spillDir string) (*Staged, error) {
	return stageFrame(r, mem, wireDecaSort, -1, spillDir)
}

func stageFrame(r WireReader, mem *memory.Manager, kind byte, keySize int, spillDir string) (*Staged, error) {
	name := kindName(kind)
	if err := readKind(r, kind); err != nil {
		return nil, err
	}
	n, err := readCount(r, name)
	if err != nil {
		return nil, err
	}
	st := &Staged{pageStore: pageStore{runSet: runSet{dir: spillDir}}, kind: kind, n: n}
	t := tableReader{r: r, name: name}
	switch kind {
	case wireDecaSort:
		st.ptrs, err = t.readPtrs(make([]memory.Ptr, 0, min(n, stagePresize)), n)
	case wireDecaGroup:
		err = t.groupTable(st, keySize)
	}
	if err != nil {
		return nil, err // nothing owned yet: the arenas are plain heap
	}
	g, err := mem.RestoreGroup(r)
	if err != nil {
		return nil, err
	}
	st.group = g
	if err := st.restore(r); err != nil {
		st.Release()
		return nil, err
	}
	return st, nil
}

// SizeBytes is the staged frame's in-memory footprint: restored pages
// plus the arenas (fetch budgeting).
func (st *Staged) SizeBytes() int64 {
	return st.group.Footprint() + int64(len(st.ptrs))*8 + int64(len(st.table))
}

// Release drops whatever the frame still owns: its reference on the
// restored group (pages a Fold adopted stay alive through the adopter)
// and any spill runs no Fold took over. Idempotent.
func (st *Staged) Release() {
	st.table, st.ptrs = nil, nil
	st.pageStore.Release()
}

// nextKey splits the next key's bytes off a staged table. The table is
// the stage's own validated output, so its lengths are trusted.
func nextKey(table []byte) (key, rest []byte) {
	kl, w := binary.Uvarint(table)
	return table[w : w+int(kl)], table[w+int(kl):]
}

func getPtr(b []byte) memory.Ptr {
	return memory.Ptr{
		Page: int32(binary.LittleEndian.Uint32(b)),
		Off:  int32(binary.LittleEndian.Uint32(b[4:])),
	}
}

// tableReader reads a frame's key/pointer table into the arenas. Pointer
// arrays decode through one scratch buffer reused for the whole frame: a
// stack array handed to the WireReader interface escapes, so a buffer per
// call is a heap allocation per key.
type tableReader struct {
	r       WireReader
	name    string // the frame's kind, for error text
	scratch []byte
}

// readPtrs appends n wire pointers to dst in chunked bulk reads.
func (t *tableReader) readPtrs(dst []memory.Ptr, n int) ([]memory.Ptr, error) {
	if t.scratch == nil && n > 0 {
		t.scratch = make([]byte, 8*ptrChunk)
	}
	for n > 0 {
		c := min(n, ptrChunk)
		buf := t.scratch[:8*c]
		if _, err := io.ReadFull(t.r, buf); err != nil {
			return dst, fmt.Errorf("shuffle: %s ptr array: %w", t.name, err)
		}
		dst = slices.Grow(dst, c)
		for ; len(buf) > 0; buf = buf[8:] {
			dst = append(dst, getPtr(buf))
		}
		n -= c
	}
	return dst, nil
}

// readBytes appends n stream bytes to dst, in bounded pieces so dst grows
// only as bytes arrive.
func (t *tableReader) readBytes(dst []byte, n int) ([]byte, error) {
	for n > 0 {
		c := min(n, 64<<10)
		dst = slices.Grow(dst, c)
		at := len(dst)
		dst = dst[:at+c]
		if _, err := io.ReadFull(t.r, dst[at:]); err != nil {
			return dst, fmt.Errorf("shuffle: %s key table: %w", t.name, err)
		}
		n -= c
	}
	return dst, nil
}

// groupTable stages a DecaGroup table entry by entry.
func (t *tableReader) groupTable(st *Staged, keySize int) error {
	// Arena bytes per entry: length prefix and key — a guess for
	// variable-size keys, the arena grows past it — then the pointer count.
	est := 16 + 2
	if keySize >= 0 {
		est = keySize + 1 + 2
	}
	st.table = make([]byte, 0, est*min(st.n, stagePresize))
	st.ptrs = make([]memory.Ptr, 0, min(st.n, stagePresize))
	for i := 0; i < st.n; i++ {
		kl, err := readCount(t.r, "DecaGroup key")
		if err != nil {
			return err
		}
		// A length prefix that contradicts a fixed-size key codec is a
		// corrupt table and must not reach codec.Decode, which assumes
		// well-formed input. (For variable-size keys only the prefix is the
		// parser's to check; the bytes inside it are the codec's input
		// contract, as frames originate from this system's own encoder.)
		if keySize >= 0 && kl != keySize {
			return fmt.Errorf("shuffle: DecaGroup key is %d bytes, codec wants %d", kl, keySize)
		}
		st.table = binary.AppendUvarint(st.table, uint64(kl))
		if st.table, err = t.readBytes(st.table, kl); err != nil {
			return err
		}
		m, err := readCount(t.r, "DecaGroup ptr")
		if err != nil {
			return err
		}
		st.table = binary.AppendUvarint(st.table, uint64(m))
		if st.ptrs, err = t.readPtrs(st.ptrs, m); err != nil {
			return err
		}
	}
	return nil
}
