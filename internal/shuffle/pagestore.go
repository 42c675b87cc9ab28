package shuffle

import (
	"io"

	"deca/internal/memory"
	"deca/internal/transport"
)

// pageStore is the page storage layer under DecaAgg, DecaGroup and a
// staged frame: the page group the records live in and the spill runs that
// die with it. A container embeds one by value and keeps only its index
// over the pages (a hash table of key-record pointers, manager memory too)
// plus the Put/Drain/absorb that read it; spilling, adopting another store,
// the wire frame and the end of the lifetime are written here, once.
//
// Every Deca frame (built by encodeSegments, parsed by Stage) is kind byte |
// uvarint n | memory.Group.Snapshot | spill section (runSet.restore): no
// table, so record bytes never leave their pages.
type pageStore struct {
	group *memory.Group //deca:owns (released by Release; adopt takes other stores' pages in as dependencies)
	runSet
}

func newPageStore(mem *memory.Manager, spillDir string) pageStore {
	return pageStore{group: mem.NewGroup(), runSet: runSet{dir: spillDir}}
}

// PageOccupancy reports the group's used bytes against its page
// footprint — the per-dataset occupancy signal the engine samples at
// spill time (low occupancy at spill means the page size is wrong for
// the dataset's record shape; the first input to adaptive page sizing).
func (ps *pageStore) PageOccupancy() (used, footprint int64) {
	return ps.group.Len(), ps.group.Footprint()
}

// spillPages writes the in-memory records as one run — fn streams them
// straight out of the pages, already in I/O form (Appendix C) — and resets
// the pages for reuse. The caller clears its index afterwards.
func (ps *pageStore) spillPages(fn func(w *spillWriter) error) error {
	if err := ps.write(fn); err != nil {
		return err
	}
	ps.group.Reset()
	return nil
}

// adopt is the shell MergeFrom and Fold share: src's spill runs transfer
// by file handle and, when src indexes n > 0 in-memory entries, ps adopts
// its page group wholesale (the pages are retained as a dependency, no
// bytes move — §4.3.3's depPages applied to the reduce merge). base
// rebases src's pointers into ps's address space; !ok means there is no
// index to walk.
func (ps *pageStore) adopt(src *pageStore, n int) (base int, ok bool) {
	ps.take(&src.runSet)
	if n == 0 {
		return 0, false
	}
	return ps.group.AdoptPages(src.group), true
}

// adoptStaged is the head of every Deca Fold: check the frame
// (Staged.check), then adopt it like any other store.
func (ps *pageStore) adoptStaged(st *Staged, kind byte) (base int, ok bool, err error) {
	if err := st.check(kind); err != nil {
		return 0, false, err
	}
	base, ok = ps.adopt(&st.pageStore, st.n)
	return base, ok, nil
}

// encodeSegments builds a container's wire frame as
// transport.FrameSegments: the header is staged into the frame's head,
// the page snapshot is referenced in place from the retained
// group, spill runs are referenced as opened files (runSet.endFrame) — the
// serve path ships them with writev/sendfile instead of staging the frame.
//
// Ownership: the frame retains the page group and holds the opened spill
// files until the caller invokes its Release, exactly once, after the last
// segment byte is consumed. The buffer must stay registered (unmutated)
// while any of its frames is in flight.
//
//deca:owns
func (ps *pageStore) encodeSegments(kind byte, n int) (*transport.FrameSegments, error) {
	fs := newFrame(kind, n)
	fs.Owner(ps.group.Retain())
	ps.group.SnapshotSegments(fs.Stage, fs.AppendPage)
	return ps.endFrame(fs)
}

// writeSegments is every Deca EncodeWire: build the frame, flush its
// segments through w, release it — one definition of the frame's bytes.
func writeSegments(w io.Writer, encode func() (*transport.FrameSegments, error)) error {
	fs, err := encode()
	if err != nil {
		return err
	}
	defer fs.Release()
	_, err = fs.WriteTo(w)
	return err
}

// Release frees the page group wholesale (a staged Object frame has none)
// and deletes the spill files: the container's lifetime ends, its space
// reclaims at once. Idempotent.
func (ps *pageStore) Release() {
	if ps.release() && ps.group != nil {
		ps.group.Release()
	}
}
