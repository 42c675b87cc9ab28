package shuffle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

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
// order) adopts the pages and walks the arenas once in wire order.
//
// One parser serves the three tables:
//
//	DecaAgg    n × [uvarint klen | key | ptr]
//	DecaGroup  n × [uvarint klen | key | uvarint m | m × ptr]
//	DecaSort   n × ptr

// frameShape names one container's frame to the shared parser: its kind
// byte, and what its table's leading count counts.
type frameShape struct {
	kind        byte
	name, entry string
}

var (
	aggFrame   = frameShape{wireDecaAgg, "DecaAgg", "DecaAgg key"}
	groupFrame = frameShape{wireDecaGroup, "DecaGroup", "DecaGroup key"}
	sortFrame  = frameShape{wireDecaSort, "DecaSort", "DecaSort ptr"}
)

// Staged is one Deca frame staged for folding. It owns the restored page
// group and spill runs until a Fold takes them over or Release ends
// them; Fold consumes the frame either way.
type Staged struct {
	shape *frameShape
	n     int // table entries: keys (agg, group) or records (sort)
	// table is the key table as it crossed the wire, minus DecaGroup's
	// pointer arrays: per entry uvarint klen | key, then the 8-byte
	// pointer (agg) or the uvarint pointer count (group). Empty for sort.
	table []byte
	// ptrs holds DecaGroup's per-key pointer arrays back to back, in table
	// order, and DecaSort's records. They address group's pages as-is.
	ptrs []memory.Ptr

	group    *memory.Group //deca:owns (restored by stage; adopted by Fold, dropped by Release)
	spills   []spillFile
	spilled  int64
	released bool
}

// stagePresize caps how many table entries a stage reserves arena room
// for on the strength of the count header alone; past it (and for totals
// the frame does not announce) the arenas grow as bytes actually arrive,
// so a corrupt count cannot turn into a huge allocation.
const stagePresize = 1 << 18

// StageDecaAgg stages a DecaAgg frame inside the destination executor:
// pages restore into mem, spill runs land in spillDir. keySize is the key
// codec's FixedSize (negative: variable).
//
//deca:owns
func StageDecaAgg(r WireReader, mem *memory.Manager, keySize int, spillDir string) (*Staged, error) {
	return stageFrame(r, mem, &aggFrame, keySize, spillDir)
}

// StageDecaGroup stages a DecaGroup frame; see StageDecaAgg.
//
//deca:owns
func StageDecaGroup(r WireReader, mem *memory.Manager, keySize int, spillDir string) (*Staged, error) {
	return stageFrame(r, mem, &groupFrame, keySize, spillDir)
}

// StageDecaSort stages a DecaSort frame; see StageDecaAgg.
//
//deca:owns
func StageDecaSort(r WireReader, mem *memory.Manager, spillDir string) (*Staged, error) {
	return stageFrame(r, mem, &sortFrame, -1, spillDir)
}

func stageFrame(r WireReader, mem *memory.Manager, shape *frameShape, keySize int, spillDir string) (*Staged, error) {
	if err := readKind(r, shape.kind, shape.name); err != nil {
		return nil, err
	}
	n, err := readCount(r, shape.entry)
	if err != nil {
		return nil, err
	}
	st := &Staged{shape: shape, n: n}
	t := tableReader{r: r, shape: shape}
	switch {
	case shape == &sortFrame:
		st.ptrs, err = t.readPtrs(make([]memory.Ptr, 0, min(n, stagePresize)), n)
	case shape == &aggFrame && keySize >= 0:
		err = t.fixedAggTable(st, keySize)
	default:
		err = t.keyedTable(st, keySize)
	}
	if err != nil {
		return nil, err // nothing owned yet: the arenas are plain heap
	}
	g, err := mem.RestoreGroup(r)
	if err != nil {
		return nil, err
	}
	st.group = g
	if st.spills, st.spilled, err = decodeSpills(r, spillDir); err != nil {
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

// SpilledBytes is the volume of the spill runs the frame carried.
func (st *Staged) SpilledBytes() int64 { return st.spilled }

// Release drops whatever the frame still owns: its reference on the
// restored group (pages a Fold adopted stay alive through the adopter)
// and any spill runs no Fold took over. Idempotent.
func (st *Staged) Release() {
	if st.released {
		return
	}
	st.released = true
	st.table, st.ptrs = nil, nil
	st.group.Release()
	for _, run := range st.spills {
		run.remove()
	}
	st.spills = nil
}

// open is the shared head of every Fold: check the frame is the
// container's own kind and hand over its spill runs. It reports whether a
// table is left to walk.
func (st *Staged) open(shape *frameShape, spills *[]spillFile, spilled *int64) (bool, error) {
	if st.released || st.shape != shape {
		return false, fmt.Errorf("shuffle: %s cannot fold a staged %s frame (released=%v)", shape.name, st.shape.name, st.released)
	}
	*spills = append(*spills, st.spills...)
	*spilled += st.spilled
	st.spills = nil
	return st.n > 0, nil
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
	shape   *frameShape
	scratch []byte
}

// room returns s with capacity for n more elements, at least doubling
// when it has to grow (append's 1.25× would copy a large arena several
// times over).
func room[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := make([]E, len(s), max(2*cap(s), len(s)+n))
	copy(grown, s)
	return grown
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
			return dst, fmt.Errorf("shuffle: %s ptr array: %w", t.shape.name, err)
		}
		dst = room(dst, c)
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
		dst = room(dst, c)
		at := len(dst)
		dst = dst[:at+c]
		if _, err := io.ReadFull(t.r, dst[at:]); err != nil {
			return dst, fmt.Errorf("shuffle: %s key table: %w", t.shape.name, err)
		}
		n -= c
	}
	return dst, nil
}

// keyLenErr: a length prefix that contradicts a fixed-size key codec is a
// corrupt table and must not reach codec.Decode, which assumes
// well-formed input. (For variable-size keys only the prefix is the
// parser's to check; the bytes inside it are the codec's input contract,
// as frames originate from this system's own encoder.)
func (t *tableReader) keyLenErr(got uint64, want int) error {
	return fmt.Errorf("shuffle: %s key is %d bytes, codec wants %d", t.shape.name, got, want)
}

// fixedAggTable stages a DecaAgg table whose key codec is fixed-size:
// every entry is the same stride, so the whole table is bulk-read
// straight into the arena and then checked entry by entry.
func (t *tableReader) fixedAggTable(st *Staged, keySize int) (err error) {
	var pre [binary.MaxVarintLen64]byte
	pl := binary.PutUvarint(pre[:], uint64(keySize))
	stride := pl + keySize + 8
	st.table = make([]byte, 0, stride*min(st.n, stagePresize))
	if st.table, err = t.readBytes(st.table, stride*st.n); err != nil {
		return err
	}
	for e := st.table; len(e) > 0; e = e[stride:] {
		if !bytes.Equal(e[:pl], pre[:pl]) {
			got, _ := binary.Uvarint(e)
			return t.keyLenErr(got, keySize)
		}
	}
	return nil
}

// keyedTable stages a table entry by entry: variable-size keys, and every
// DecaGroup table (its entries vary with their pointer counts).
func (t *tableReader) keyedTable(st *Staged, keySize int) error {
	grouped := st.shape == &groupFrame
	est := 24 // arena bytes per variable-size-key entry: a guess, room doubles past it
	if keySize >= 0 {
		est = keySize + 4
	}
	st.table = make([]byte, 0, est*min(st.n, stagePresize))
	if grouped {
		st.ptrs = make([]memory.Ptr, 0, min(st.n, stagePresize))
	}
	for i := 0; i < st.n; i++ {
		kl, err := readCount(t.r, t.shape.entry)
		if err != nil {
			return err
		}
		if keySize >= 0 && kl != keySize {
			return t.keyLenErr(uint64(kl), keySize)
		}
		st.table = binary.AppendUvarint(room(st.table, binary.MaxVarintLen64), uint64(kl))
		if !grouped { // the entry's pointer rides along with its key bytes
			kl += 8
		}
		if st.table, err = t.readBytes(st.table, kl); err != nil {
			return err
		}
		if !grouped {
			continue
		}
		m, err := readCount(t.r, "DecaGroup ptr")
		if err != nil {
			return err
		}
		st.table = binary.AppendUvarint(room(st.table, binary.MaxVarintLen64), uint64(m))
		if st.ptrs, err = t.readPtrs(st.ptrs, m); err != nil {
			return err
		}
	}
	return nil
}
