//go:build !race

package transport

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// retainedSlack bounds the Go heap 16 released Deca frames may leave live
// beyond what the free lists already held: a frame that staged its header
// into a 64 KiB chunk leaves the chunk in stageChunks, 1 MiB for 16.
const retainedSlack = 16 << 10

// TestServedFrameLeavesNoChunk: a Deca frame stages only its header —
// kind, count, page and run lengths — so it stages into its head, takes no
// scratch chunk, and once released leaves nothing live that the free lists
// did not already hold. 16 frames are held open together, as many as the
// free lists keep. (The race detector changes allocation counts, so plain
// builds only.)
func TestServedFrameLeavesNoChunk(t *testing.T) {
	const frames, pagesPer = 16, 64
	pages := makePages(pagesPer, 4096)
	dir := t.TempDir()
	runs := []string{filepath.Join(dir, "run0"), filepath.Join(dir, "run1")}
	for i, path := range runs {
		if err := os.WriteFile(path, make([]byte, 3000+i*70_000), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	stageUvarint := func(fs *FrameSegments, v uint64) {
		var hdr [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(hdr[:], v)
		copy(fs.Stage(k), hdr[:k])
	}
	// A frame in the shape a Deca container writes: kind | count | page
	// count | (page length, page)... | run count | (run length, run)...
	decaFrame := func() *FrameSegments {
		fs := NewFrameSegments()
		fs.Stage(1)[0] = 3
		stageUvarint(fs, 30_000)
		stageUvarint(fs, pagesPer)
		for _, p := range pages {
			stageUvarint(fs, uint64(len(p)))
			fs.AppendPage(p)
		}
		stageUvarint(fs, uint64(len(runs)))
		for _, path := range runs {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			st, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			stageUvarint(fs, uint64(st.Size()))
			fs.AppendFile(f, st.Size())
		}
		return fs
	}
	hold := func(build func() *FrameSegments) []*FrameSegments {
		held := make([]*FrameSegments, frames)
		for i := range held {
			held[i] = build()
		}
		return held
	}
	// The free lists first hold 16 segment lists grown to this frame's
	// length, as a job's first serves leave them, from frames that stage
	// nothing: what the Deca frames leave beyond them is their staging's.
	for _, fs := range hold(func() *FrameSegments {
		fs := NewFrameSegments()
		for range 2*pagesPer + 2*len(runs) + 2 {
			fs.AppendPage(pages[0])
		}
		return fs
	}) {
		fs.Release()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := hold(decaFrame)
	for i, fs := range held {
		if len(fs.pooled) != 0 {
			t.Errorf("frame %d staged a %d B header into %d scratch chunks, want its head", i, fs.Staged(), len(fs.pooled))
		}
		fs.Release()
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pages)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d released Deca frames left %d B live", frames, grew)
	if grew > retainedSlack {
		t.Errorf("%d released Deca frames left %d B live, want at most %d", frames, grew, retainedSlack)
	}
}
