//go:build decapoison && (linux || darwin)

package memory

import (
	"runtime/debug"
	"testing"
)

var sink byte

// TestReleasedPageFaults is the decapoison build's positive control: a page
// read through a slice kept past its group's release faults, where without
// the tag it would return whatever the reserve's next taker wrote there.
func TestReleasedPageFaults(t *testing.T) {
	m := NewManager(4096, 0)
	defer m.Close()
	g := m.NewGroup()
	seg, _ := g.Alloc(8)
	g.Release()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if recover() == nil {
			t.Error("a read of a released page did not fault")
		}
	}()
	sink = seg[0]
}
