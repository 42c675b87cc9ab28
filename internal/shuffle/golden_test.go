package shuffle

import (
	"bytes"
	"encoding/hex"
	"testing"

	"deca/internal/memory"
)

// goldenFrames pins the Deca wire format byte for byte. The agg frame was
// re-captured when DecaAgg's keys moved into its pages (the frame lost its
// table): kind | 3 live records | 3 pages, each one record 0x10 (an 8-byte
// key, live) | key | value — keys 7, 9, 3 in insertion order | one 34-byte
// spill run of two such records (keys 7, 8). The group frame was
// re-captured when DecaGroup's key and value lists followed: kind | 1 live
// key record | 6 pages | one 68-byte spill run. Page 0 (29 bytes) is the
// key record 0x10 (an 8-byte key) | key 7 | head link (+1 page, offset 0:
// the first node) | tail link (+5 pages, offset 9: the last node's link
// field) | count 5. Pages 1-5 (17 bytes each, two nodes do not fit 32) are
// the value nodes 0x11 (an 8-byte value, the node flag) | value 0..4 | next
// link (+1 page, offset 0; none on the last). The run is the same again,
// as the pages lay when the buffer spilled: 1 live key record | 3 pages —
// the key record of 7 (tail +2 pages, count 2) and the nodes of 100 and 101.
// Kind bytes never move: renumbering one changes its frame here.
var goldenFrames = map[string]string{
	"agg": "010303" +
		"1110070000000000000002000000000000001110090000000000000006000000000000001110030000000000000006000000000000000" +
		"12210070000000000000028000000000000001008000000000000000100000000000000",
	"group": "030106" +
		"1d1007000000000000000100000000000000050000000900000005000000" +
		"11110000000000000000010000000000000011110100000000000000010000000000000011110200000000000000010000000000000" +
		"0111103000000000000000100000000000000111104000000000000000000000000000000" +
		"01440103" +
		"1d1007000000000000000100000000000000020000000900000002000000" +
		"111164000000000000000100000000000000111165000000000000000000000000000000",
}

func TestGoldenDecaFrames(t *testing.T) {
	dir := t.TempDir()
	build := map[string]func(mem *memory.Manager) frameBuffer{
		"agg": func(mem *memory.Manager) frameBuffer {
			b, err := NewDecaAgg[int64, int64](mem, addI, i64, i64, dir)
			if err != nil {
				t.Fatal(err)
			}
			b.Put(7, 40)
			b.Put(8, 1)
			if err := b.Spill(); err != nil {
				t.Fatal(err)
			}
			for _, kv := range [][2]int64{{7, 2}, {9, 5}, {3, 6}, {9, 1}} { // 3 keys × 17 bytes: three 32-byte pages
				b.Put(kv[0], kv[1])
			}
			return b
		},
		"group": func(mem *memory.Manager) frameBuffer {
			b := NewDecaGroup[int64, int64](mem, i64, i64, dir)
			b.Put(7, 100)
			b.Put(7, 101)
			if err := b.Spill(); err != nil {
				t.Fatal(err)
			}
			for v := int64(0); v < 5; v++ { // a 29-byte key record and five 17-byte nodes: six 32-byte pages
				b.Put(7, v)
			}
			return b
		},
	}
	for name, want := range goldenFrames {
		mem := memory.NewManager(32, 0)
		b := build[name](mem)
		var frame bytes.Buffer
		if err := writeSegments(&frame, b.EncodeSegments); err != nil {
			t.Fatal(err)
		}
		b.Release()
		if got := hex.EncodeToString(frame.Bytes()); got != want {
			t.Errorf("%s frame changed:\n got %s\nwant %s", name, got, want)
		}
		assertClean(t, mem, dir, name)
	}
}
