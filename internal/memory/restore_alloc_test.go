//go:build !race

package memory

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// TestRestoreDoesNotTrustAnnouncedPageLength: a frame announcing one 1 GiB
// page and delivering sixteen bytes fails on the body having allocated next
// to nothing — the page is only believed as far as its bytes arrive. (The
// same frame used to cost a 1 GiB allocation before the first byte was
// read.) Allocation is measured, so the race detector's own bookkeeping
// must stay out of it.
func TestRestoreDoesNotTrustAnnouncedPageLength(t *testing.T) {
	m := NewManager(4096, 0)
	frame := binary.AppendUvarint([]byte{1}, 1<<30) // one page, 1 GiB long
	frame = append(frame, bytes.Repeat([]byte{7}, 16)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := m.RestoreGroup(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "page 0 body") {
		t.Fatalf("err = %v, want the page body error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("a 1 GiB page header cost %d bytes of allocation, want < 1 MiB", grew)
	}
	if st := m.Stats(); st.BytesInUse != 0 || st.LiveGroups != 0 {
		t.Errorf("manager not settled after the failed restore: %+v", st)
	}
}
