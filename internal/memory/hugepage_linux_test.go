package memory

import (
	"bytes"
	"os"
	"strconv"
	"testing"
)

// anonHugePages is the process's anonymous memory backed by huge pages,
// from /proc/self/smaps_rollup.
func anonHugePages(t *testing.T) int64 {
	t.Helper()
	rollup, err := os.ReadFile("/proc/self/smaps_rollup")
	if err != nil {
		t.Skipf("no smaps_rollup: %v", err)
	}
	for _, line := range bytes.Split(rollup, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("AnonHugePages:")); ok {
			kb, err := strconv.ParseInt(string(bytes.TrimSpace(bytes.TrimSuffix(rest, []byte("kB")))), 10, 64)
			if err != nil {
				t.Fatalf("AnonHugePages line %q: %v", line, err)
			}
			return kb << 10
		}
	}
	t.Skip("no AnonHugePages in smaps_rollup")
	return 0
}

// TestChunksAreHugePages: fresh pages cut from the reserve's chunks, once
// touched, are backed by transparent huge pages — the advice on our own
// mapping took — unless the system's THP mode is "never".
func TestChunksAreHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || bytes.Contains(mode, []byte("[never]")) {
		t.Skipf("transparent huge pages off or unknown (%q)", mode)
	}
	r := &reserve{cap: 64 << 20}
	defer r.trim()
	m := newManager(1<<20, 0, r)
	defer m.Close()
	before := anonHugePages(t)
	g := m.NewGroup()
	defer g.Release()
	for range 8 {
		seg, _ := g.Alloc(1 << 20)
		for i := 0; i < len(seg); i += 4096 {
			seg[i] = 1
		}
	}
	if after := anonHugePages(t); after < before+hugePage {
		t.Errorf("AnonHugePages %d kB after touching 8 MiB of fresh pages, %d kB before: no huge page backs the chunks", after>>10, before>>10)
	}
}
