//go:build unix

package gcstats

import "testing"

var touchedSink []byte

// TestDeltaCarriesFaults: a region that touches 32 MiB of memory the
// process never had pays for it in minor faults, and the delta says so.
func TestDeltaCarriesFaults(t *testing.T) {
	before := Read()
	touchedSink = make([]byte, 32<<20)
	for i := 0; i < len(touchedSink); i += 4096 {
		touchedSink[i] = 1
	}
	d := Read().Sub(before)
	touchedSink = nil
	if d.MinorFaults == 0 || d.SysCPU < 0 {
		t.Errorf("delta over touching 32 MiB: %d minor faults, %v system CPU", d.MinorFaults, d.SysCPU)
	}
}
