// Package ptrescape is golden-test input for the ptrescape analyzer.
package ptrescape

import (
	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/obs"
)

// True positive: a global outlives every Group.
var globalPtr memory.Ptr // want "package-level"

// True positive: Ptr containment is transitive.
var globalSlice []memory.Ptr // want "package-level"

// Negative: plain globals are fine.
var globalCount int

// True positive: a Ptr field with no Group guardian beside it.
type unguarded struct {
	p memory.Ptr // want "guardian"
	n int
}

// Negative: the container carries its Group, the DecaBlock pattern.
type guarded struct {
	g *memory.Group
	p memory.Ptr
}

// store models the shuffle page store: it owns the Group on behalf of
// whatever embeds it.
type store struct{ g *memory.Group }

// Negative: the guardian sits in an embedded store, whose Release is the
// container's own.
type viaStore struct {
	store
	idx []memory.Ptr
}

// True positive: a store held by name is somebody else's to release.
type besideStore struct {
	s   store
	idx []memory.Ptr // want "guardian"
}

// Negative: the field is a sanctioned owner.
type sanctioned struct {
	p memory.Ptr //deca:owns (fixture: lifetime managed by an external group)
}

// True positive: channel element contains a Ptr.
type pipeline struct {
	ch chan memory.Ptr // want "channel of Ptr-bearing"
}

// True positive: straight-line use after Release.
func useAfterRelease(m *memory.Manager) int {
	g := m.NewGroup()
	g.Release()
	return g.NumPages() // want "after Release"
}

// True positive: page bytes read after their group died.
func bytesAfterRelease(m *memory.Manager) byte {
	g := m.NewGroup()
	b, _ := g.Alloc(4)
	g.Release()
	return b[0] // want "bytes of group"
}

// True positive: an index table read after its slab went back to the pool.
func slabBytesAfterRelease(m *memory.Manager) byte {
	s := m.NewSlab(64)
	table := s.Bytes()
	s.Release()
	return table[0] // want "bytes of slab"
}

// Negative: the doubling step — the old slab is released after the last
// read of its table, and releasing it again is a no-op, not a use.
func slabResize(m *memory.Manager) byte {
	old := m.NewSlab(64)
	table := old.Bytes()
	next := m.NewSlab(128)
	copy(next.Bytes(), table)
	old.Release()
	old.Release()
	b := next.Bytes()[0]
	next.Release()
	return b
}

// True positive: a typed view of a record is bytes of the group by another
// name, through the re-slice and through the view.
func viewAfterRelease(m *memory.Manager) float64 {
	g := m.NewGroup()
	g.Alloc(16)
	page := g.Page(0)
	rec := decompose.Float64s(nil, page[8:16])
	x := rec[1:]
	g.Release()
	return x[0] // want "bytes of group"
}

// Negative: the view is read while the group lives; what leaves is a value.
func viewBeforeRelease(m *memory.Manager) int64 {
	g := m.NewGroup()
	g.Alloc(16)
	page := g.Page(0)
	rec := decompose.Int64s(nil, page[8:16])
	v := rec[0]
	g.Release()
	return v
}

// True positive: a typed view of a mapped page is bytes of the mapping; after
// the Release that unmaps the file, reading it is a fault, not stale data.
func mappedViewAfterRelease(m *memory.Manager, path string) (float64, error) {
	g, err := memory.MapGroup(m, path)
	if err != nil {
		return 0, err
	}
	rec := decompose.Float64s(nil, g.Page(0))
	g.Release()
	return rec[0], nil // want "bytes of group"
}

// Negative: rebinding the bytes first is fine.
func rebindBytes(m *memory.Manager) byte {
	g := m.NewGroup()
	b, _ := g.Alloc(4)
	g.Release()
	b = []byte{1}
	return b[0]
}

// Negative: a release inside one branch does not poison the join.
func branchRelease(m *memory.Manager, c bool) int {
	g := m.NewGroup()
	if c {
		g.Release()
		return 0
	}
	n := g.NumPages()
	g.Release()
	return n
}

// Negative: Reset is reuse, not death (the spill-restart pattern).
func resetReuse(m *memory.Manager) int {
	g := m.NewGroup()
	g.Reset()
	n := g.NumPages()
	g.Release()
	return n
}

//
// Observability payloads: structs carrying obs types may hold page/group
// identifiers, never the page-backed objects.
//

// True positive: an event batch hauling its source group around would
// extend the pages' lifetime to the event stream's.
type groupedEvents struct {
	evs []obs.Event
	g   *memory.Group // want "observability payload groupedEvents carries *memory.Group"
}

// True positive: a Ptr beside an obs type trips both the payload rule
// and the ordinary no-guardian field rule.
type ptrEvent struct {
	kind obs.Kind
	p    memory.Ptr // want "guardian" want "observability payload ptrEvent carries memory.Ptr"
}

// True positive: the Group-guardian exemption does not apply inside an
// observability payload — here the Group field is the leak, not the
// owner, so both it and the Ptr are flagged.
type sneakyPayload struct {
	evs []obs.Event
	g   *memory.Group // want "observability payload sneakyPayload carries *memory.Group"
	p   memory.Ptr    // want "observability payload sneakyPayload carries memory.Ptr"
}

// Negative: identifiers and counts are exactly what events are for.
type cleanPayload struct {
	evs   []obs.Event
	exec  int32
	pages int64
	bytes int64
}

// Negative: a struct with no obs types keeps the guardian exemption
// (the DecaBlock pattern, unchanged).
type stillGuarded struct {
	g *memory.Group
	p memory.Ptr
}
