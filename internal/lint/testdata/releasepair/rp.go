// Package releasepair is golden-test input for the releasepair
// analyzer: each "want" comment pins an expected diagnostic, everything
// else must stay silent.
package releasepair

import (
	"errors"
	"io"

	"deca/internal/memory"
	"deca/internal/transport"
)

var errBoom = errors.New("boom")

// True positive: the classic acquire → error return without release.
func leakOnErrorPath(m *memory.Manager, fail bool) error {
	g := m.NewGroup()
	if fail {
		return errBoom // want "may not be released on this path"
	}
	g.Release()
	return nil
}

// True positive: falling off the end of the function still live.
func leakAtEnd(m *memory.Manager) {
	g := m.NewGroup()
	_, _ = g.Alloc(8)
} // want "may not be released on this path"

// True positive: the producer result is dropped on the floor.
func discards(m *memory.Manager) {
	_ = m.NewGroup() // want "discarded"
}

// Negative: released on every path.
func releasedBothBranches(m *memory.Manager, c bool) {
	g := m.NewGroup()
	if c {
		g.Release()
	} else {
		g.Release()
	}
}

// Negative: deferred release covers every exit.
func deferredRelease(m *memory.Manager, fail bool) error {
	g := m.NewGroup()
	defer g.Release()
	if fail {
		return errBoom
	}
	return nil
}

// Negative: deferred cleanup closure captures the group — a hand-off.
func deferredClosure(m *memory.Manager, fail bool) error {
	g := m.NewGroup()
	defer func() { g.Release() }()
	if fail {
		return errBoom
	}
	return nil
}

// Negative: an error return under the producer's own error guard is not
// a leak — RestoreGroup returns a nil group beside a non-nil error.
func producerErrGuard(m *memory.Manager, r memory.ByteReader) (*memory.Group, error) {
	g, err := m.RestoreGroup(r)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Negative: passing the resource to a call is a hand-off (AdoptPages is
// the documented ownership transfer).
func handedOff(m *memory.Manager, dst *memory.Group) {
	g := m.NewGroup()
	dst.AdoptPages(g)
}

type holder struct {
	g *memory.Group
}

type owner struct {
	g *memory.Group //deca:owns (fixture: sanctioned owner)
}

// True positive: stored into a field with no //deca:owns sanction.
func storeUnannotated(m *memory.Manager, h *holder) {
	g := m.NewGroup()
	h.g = g // want "not annotated //deca:owns"
}

// Negative: the annotated field is a sanctioned owner.
func storeAnnotated(m *memory.Manager, o *owner) {
	g := m.NewGroup()
	o.g = g
}

// index models the shuffle hash index: its table is a slab of manager
// memory, an owned resource like the page group beside it.
type index struct {
	slab memory.Slab //deca:owns (fixture: returned by resize and by the embedder's Release)
}

// True positive: a slab taken and dropped on the error path.
func slabLeak(m *memory.Manager, fail bool) error {
	s := m.NewSlab(64)
	if fail {
		return errBoom // want "may not be released on this path"
	}
	s.Release()
	return nil
}

// Negative: the doubling step — the new slab goes to the owning field, the
// old one back to the manager.
func (ix *index) resize(m *memory.Manager, n int) {
	old := ix.slab
	ix.slab = m.NewSlab(n)
	old.Release()
}

// True positive: the same step into a field nobody owns.
type looseIndex struct{ slab memory.Slab }

func (ix *looseIndex) resize(m *memory.Manager, n int) {
	ix.slab = m.NewSlab(n) // want "not annotated //deca:owns"
}

// segIndex models the index past one slab: a directory of segments, their
// slabs owned as a collection.
type segment struct {
	slab memory.Slab //deca:owns (fixture: returned by split and by release)
}

type segIndex struct {
	dir []segment //deca:owns (fixture: every segment's slab is returned by release, a split one's by split)
}

// Negative: a split — the two new slabs go into the owned directory inside
// their segments, the old one back to the manager.
func (ix *segIndex) split(m *memory.Manager, n int) {
	for s := len(ix.dir)/2 - 1; s >= 0; s-- {
		old := ix.dir[s]
		for i := 2 * s; i < 2*s+2; i++ {
			slab := m.NewSlab(n)
			ix.dir[i] = segment{slab: slab}
		}
		old.slab.Release()
	}
}

// Negative: the collection released in a loop.
func (ix *segIndex) release() {
	for i := range ix.dir {
		ix.dir[i].slab.Release()
	}
	clear(ix.dir)
}

// True positive: a segment's slab taken and dropped when the split bails out.
func (ix *segIndex) splitLeak(m *memory.Manager, n int, fail bool) error {
	for i := range ix.dir {
		slab := m.NewSlab(n)
		if fail {
			return errBoom // want "may not be released on this path"
		}
		ix.dir[i] = segment{slab: slab}
	}
	return nil
}

// store models the shuffle page store: the one owner of a page group,
// embedded by every container and by a staged frame.
type store struct {
	g *memory.Group //deca:owns (fixture: released by the embedder's Release)
}

func (s *store) Release() { s.g.Release() }

// staged models shuffle.Staged: a parsed wire frame whose store owns a
// restored page group until a container folds it in or it is released.
type staged struct{ store }

//deca:owns
func stage(m *memory.Manager, r memory.ByteReader) (*staged, error) {
	g, err := m.RestoreGroup(r)
	if err != nil {
		return nil, err
	}
	st := &staged{}
	st.g = g
	return st, nil
}

// Negative: the consumer releases the staged frame on every path.
//
//deca:transfers
func (o *owner) fold(st *staged, corrupt bool) error {
	defer st.Release()
	if corrupt {
		return errBoom
	}
	o.g.AdoptPages(st.g)
	return nil
}

// True positive: the consumer promised to take the frame over, but its
// error path returns with the restored group still referenced.
//
//deca:transfers
func (o *owner) foldLeaksOnError(st *staged, corrupt bool) error {
	if corrupt {
		return errBoom // want "transferred parameter"
	}
	o.g.AdoptPages(st.g)
	st.Release()
	return nil
}

// True positive: staged, then abandoned before any fold took it over.
func stagedThenAbandoned(m *memory.Manager, r memory.ByteReader, o *owner, skip bool) error {
	st, err := stage(m, r)
	if err != nil {
		return err
	}
	if skip {
		return errBoom // want "may not be released on this path"
	}
	return o.fold(st, false)
}

// mappedBlock models a swapped-out cache block: the group its field owns
// becomes a mapping of the block's swap file, which the group's one last
// Release unmaps.
type mappedBlock struct {
	path  string
	group *memory.Group //deca:owns (fixture: manager pages, then the file's mapping; released by drop)
}

// Negative: the swap — the pages go back to the manager, the mapping into
// the owning field; a file that does not map leaves the block as it was.
func (b *mappedBlock) swapOut(m *memory.Manager) error {
	mapped, err := memory.MapGroup(m, b.path)
	if err != nil {
		return err
	}
	b.group.Release()
	b.group = mapped
	return nil
}

// Negative: the mapping is released exactly once, with its owner.
func (b *mappedBlock) drop() {
	b.group.Release()
	b.group = nil
}

// True positive: a mapping made and left mapped on the error path.
func mapLeak(m *memory.Manager, path string, fail bool) error {
	g, err := memory.MapGroup(m, path)
	if err != nil {
		return err
	}
	if fail {
		return errBoom // want "may not be released on this path"
	}
	g.Release()
	return nil
}

// True positive: Register's displaced payload is dropped.
func dropsDisplaced(tr transport.Transport, id transport.MapOutputID, p transport.Payload) {
	tr.Register(id, p) // want "Register result discarded"
}

// True positive: displaced payload bound to blanks.
func blankDisplaced(tr transport.Transport, id transport.MapOutputID, p transport.Payload) {
	_, _, _ = tr.Register(id, p) // want "assigned to _"
}

// Negative: the replace-release idiom.
func handlesDisplaced(tr transport.Transport, id transport.MapOutputID, p transport.Payload) {
	prev, replaced, _ := tr.Register(id, p)
	if replaced {
		if c, ok := prev.Data.(io.Closer); ok {
			_ = c.Close()
		}
	}
}

// Negative via suppression: a justified //deca:allow covers the line.
func suppressed(m *memory.Manager, fail bool) error {
	g := m.NewGroup()
	if fail {
		//deca:allow releasepair -- fixture: leak is the point of this test
		return errBoom
	}
	g.Release()
	return nil
}

// A reasonless suppression is itself a finding.
func reasonless(m *memory.Manager) {
	g := m.NewGroup()
	//deca:allow releasepair // want "suppression without a reason"
	g.Release()
}
