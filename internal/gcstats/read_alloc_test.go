//go:build !race

package gcstats

import "testing"

// TestReadAllocatesNothing: Read runs before and after every measured job,
// so what it allocates would be counted in every job's heap figures.
func TestReadAllocatesNothing(t *testing.T) {
	Read()
	if n := testing.AllocsPerRun(100, func() { Read() }); n != 0 {
		t.Errorf("Read allocates %.1f objects, want 0", n)
	}
}
