package shuffle

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"deca/internal/memory"
)

// Stage → fold: how a fetched frame joins the reduce-side buffer (DESIGN.md,
// "Reduce merge: stage → fold"), for all four containers.
//
// Stage (the fetch-pipeline worker runs it as the frame streams off the
// transport) restores a Deca frame's page bodies straight into the
// destination manager and reads an Object frame's records, still
// serialized, into one byte slice; either frame's spill runs land in the
// spill directory. It builds no map, no per-key slice and no container: a
// staged frame is O(1) heap objects whatever its key count. Fold (the
// reduce task runs it, in map order) takes the runs over and walks the
// records once, in wire order: a Deca container adopts the pages and indexes their own
// records; an Object container deserializes each record into its table
// through Put.

// kindNames names the frame kinds in error text.
var kindNames = [...]string{
	wireDecaAgg: "DecaAgg", wireObjectAgg: "ObjectAgg",
	wireDecaGroup: "DecaGroup", wireObjectGroup: "ObjectGroup",
}

// kindName names one of the frame kind constants.
func kindName(kind byte) string { return kindNames[kind] }

// Staged is one frame staged for folding. Its page store owns the spill
// runs and, for a Deca frame, the restored page group until a Fold adopts
// them or Release ends them; Fold consumes the frame either way.
type Staged struct {
	pageStore
	kind byte
	n    int // live key records (Deca) or records (Object); an uncombined frame's may repeat a key
	// recs holds an Object frame's n records as they stood on the wire:
	// uvarint length | Marshal(key) | Marshal(value), each.
	recs []byte
}

// stagePresize caps how many records a stage reserves room for on the
// strength of the count header alone; past it the record bytes grow as
// records actually arrive, so a corrupt count cannot turn into a huge
// allocation. (A fold's index is capped at inlineKeys.)
const stagePresize = 1 << 18

// Stage stages a frame inside the destination executor: pages restore into
// mem, spill runs land in spillDir. The frame says which container's it is
// (its kind byte leads) and only that container's Fold takes it. No frame
// has a key table, so the stage holds no per-key state; the records are
// checked when Fold walks them.
//
//deca:owns
func Stage(r WireReader, mem *memory.Manager, spillDir string) (*Staged, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("shuffle: frame kind: %w", err)
	}
	if kind < wireDecaAgg || kind > wireObjectGroup {
		return nil, fmt.Errorf("shuffle: frame of kind %d is no container's", kind)
	}
	n, err := readCount(r, kindName(kind))
	if err != nil {
		return nil, err
	}
	st := &Staged{pageStore: pageStore{runSet: runSet{dir: spillDir}}, kind: kind, n: n}
	if objectKind(kind) {
		if st.recs, err = readRecords(r, n); err != nil {
			return nil, err // nothing owned yet: the records are plain heap
		}
	} else {
		g, err := mem.RestoreGroup(r)
		if err != nil {
			return nil, err
		}
		st.group = g
	}
	if err := st.restore(r); err != nil {
		st.Release()
		return nil, err
	}
	return st, nil
}

// SizeBytes is the staged frame's in-memory footprint: restored pages and
// the record bytes (fetch budgeting).
func (st *Staged) SizeBytes() int64 {
	size := int64(len(st.recs))
	if st.group != nil {
		size += st.group.Footprint()
	}
	return size
}

// check is the head of every Fold: st must still hold its frame, and the
// frame must be of the folding container's kind.
func (st *Staged) check(kind byte) error {
	if st.released || st.kind != kind {
		return fmt.Errorf("shuffle: %s cannot fold a staged %s frame (released=%v)", kindName(kind), kindName(st.kind), st.released)
	}
	return nil
}

// Release drops whatever the frame still owns: its reference on the
// restored group (pages a Fold adopted stay alive through the adopter)
// and any spill runs no Fold took over. Idempotent.
func (st *Staged) Release() {
	st.recs = nil
	st.pageStore.Release()
}

// readChunk is the most a stage reads of one record before its bytes have
// arrived: the slice grows as they do, not as a length prefix claims.
const readChunk = 64 << 10

// readRecords reads an Object frame's n length-prefixed records verbatim
// into one slice, reserved at 8 bytes a record (capped at stagePresize
// records) and doubled as the bytes arrive.
func readRecords(r WireReader, n int) ([]byte, error) {
	recs := make([]byte, 0, 8*min(n, stagePresize))
	for i := 0; i < n; i++ {
		size, err := readCount(r, "record")
		if err != nil {
			return nil, err
		}
		recs = binary.AppendUvarint(grow(recs, binary.MaxVarintLen64), uint64(size))
		for size > 0 {
			c, at := min(size, readChunk), len(recs)
			recs = grow(recs, c)[:at+c]
			if _, err := io.ReadFull(r, recs[at:]); err != nil {
				return nil, fmt.Errorf("shuffle: record %d bytes: %w", i, err)
			}
			size -= c
		}
	}
	return recs, nil
}

// grow makes room for n more bytes in b, at least doubling it when it has
// to move (slices.Grow alone grows a long slice a quarter at a time).
func grow(b []byte, n int) []byte {
	if n <= cap(b)-len(b) {
		return b
	}
	return slices.Grow(b, max(n, len(b)))
}
