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
// Stage (the fetch-pipeline worker runs it as the frame streams off the
// transport) restores the page bodies straight into the destination manager
// — and, for DecaSort, reads the record pointers into one flat array. It
// builds no map, no per-key slice and no container: a staged frame is O(1)
// heap objects whatever its key count. Fold (the reduce task runs it, in
// map order) adopts the pages and walks, once in wire order, their own
// records (DecaAgg, DecaGroup) or the pointer array (DecaSort).

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
	n    int  // live key records (agg, group) or records (sort)
	// ptrs holds DecaSort's records. They address group's pages as-is.
	ptrs []memory.Ptr
}

// stagePresize caps how many entries a stage or a fold reserves room for
// on the strength of the count header alone; past it the pointer array and
// the index grow as records actually arrive, so a corrupt count cannot
// turn into a huge allocation.
const stagePresize = 1 << 18

// Stage stages a Deca frame inside the destination executor: pages restore
// into mem, spill runs land in spillDir. The frame says which container's
// it is (its kind byte leads) and only that container's Fold takes it. No
// frame has a key table, so the stage holds no per-key state; the records
// are checked when Fold walks them.
//
//deca:owns
func Stage(r WireReader, mem *memory.Manager, spillDir string) (*Staged, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("shuffle: frame kind: %w", err)
	}
	if kind != wireDecaAgg && kind != wireDecaGroup && kind != wireDecaSort {
		return nil, fmt.Errorf("shuffle: frame of kind %d is no Deca container's", kind)
	}
	n, err := readCount(r, kindName(kind))
	if err != nil {
		return nil, err
	}
	st := &Staged{pageStore: pageStore{runSet: runSet{dir: spillDir}}, kind: kind, n: n}
	if kind == wireDecaSort {
		if st.ptrs, err = readPtrs(r, n); err != nil {
			return nil, err // nothing owned yet: the array is plain heap
		}
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
// plus the pointer array (fetch budgeting).
func (st *Staged) SizeBytes() int64 {
	return st.group.Footprint() + int64(len(st.ptrs))*8
}

// Release drops whatever the frame still owns: its reference on the
// restored group (pages a Fold adopted stay alive through the adopter)
// and any spill runs no Fold took over. Idempotent.
func (st *Staged) Release() {
	st.ptrs = nil
	st.pageStore.Release()
}

func getPtr(b []byte) memory.Ptr {
	return memory.Ptr{
		Page: int32(binary.LittleEndian.Uint32(b)),
		Off:  int32(binary.LittleEndian.Uint32(b[4:])),
	}
}

// readPtrs reads a DecaSort frame's n wire pointers in chunked bulk reads
// through one scratch buffer, the array growing as they arrive.
func readPtrs(r WireReader, n int) ([]memory.Ptr, error) {
	dst := make([]memory.Ptr, 0, min(n, stagePresize))
	scratch := make([]byte, 8*min(n, ptrChunk))
	for n > 0 {
		c := min(n, ptrChunk)
		buf := scratch[:8*c]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("shuffle: DecaSort ptr array: %w", err)
		}
		dst = slices.Grow(dst, c)
		for ; len(buf) > 0; buf = buf[8:] {
			dst = append(dst, getPtr(buf))
		}
		n -= c
	}
	return dst, nil
}
