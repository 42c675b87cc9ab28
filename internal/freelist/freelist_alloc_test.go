//go:build !race

package freelist

import "testing"

// TestWarmListAllocatesNothing: a Get and a Put on a list holding a value,
// and a Totals read, allocate nothing.
func TestWarmListAllocatesNothing(t *testing.T) {
	l := New(1, 64, func() *[64]byte { return new([64]byte) })
	l.Put(l.Get())
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Errorf("Get then Put on a warm list: %.1f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { Totals() }); n != 0 {
		t.Errorf("Totals: %.1f allocations, want 0", n)
	}
}
