package shuffle

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/obs"
	"deca/internal/serial"
	"deca/internal/transport"
)

// frameCase is one frame shape the stage parser serves, a Deca or an Object
// container's, as the tests drive it: build a frame of the given key count,
// and stage + fold a frame (well-formed or not) into a fresh buffer that is
// released again.
type frameCase struct {
	name string
	kind byte
	// keySize is the key codec's FixedSize (-1 for the Object kinds). A
	// variable-size key's record length is the parser's to validate, the
	// length inside its encoding the drain's (decodeAll).
	keySize int
	build   func(tb testing.TB, keys int, dir string, spill bool) []byte
	// fold is the reduce task's half (the fetch worker's is stage, below),
	// into a fresh buffer that is released again.
	fold func(st *Staged, mem *memory.Manager, dir string) error
	// foldDrain, where set, is fold plus a drain of the buffer: what a
	// DecaGroup fold's sums cannot see — a count that is some other key's —
	// the chain walk of its drain refuses.
	foldDrain func(st *Staged, mem *memory.Manager, dir string) error
}

func addF(a, b float64) float64 { return a + b }
func addI(a, b int64) int64     { return a + b }

var (
	i64 = decompose.Int64Codec{}
	f64 = decompose.Float64Codec{}
	str = decompose.StringCodec{}
)

// frameBuffer is a container as the frame tests build it, whatever its kind.
type frameBuffer interface {
	Spill() error
	EncodeSegments() (*transport.FrameSegments, error)
	Release()
}

// encodeFrame writes b's frame as a serve ships it and releases b.
func encodeFrame(tb testing.TB, b frameBuffer) []byte {
	tb.Helper()
	var frame bytes.Buffer
	if err := writeSegments(&frame, b.EncodeSegments); err != nil {
		tb.Fatal(err)
	}
	b.Release()
	return frame.Bytes()
}

// fillFrame puts keys 0..keys-1 into b through put, spilling at the
// halfway key if asked, and returns b's frame.
func fillFrame(tb testing.TB, b frameBuffer, keys int, spill bool, put func(i int)) []byte {
	tb.Helper()
	for i := 0; i < keys; i++ {
		put(i)
		if spill && i == keys/2 {
			if err := b.Spill(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return encodeFrame(tb, b)
}

// f64Cfg is the Object configuration of the int64 → float64 cases.
func f64Cfg(dir string) ObjectConfig[int64, float64] {
	return ObjectConfig[int64, float64]{KeySer: serial.Int64{}, ValSer: serial.F64{}, SpillDir: dir}
}

// foldFresh folds st into a just-built buffer and releases it: whatever
// the fold adopted must be gone afterwards.
func foldFresh[B interface {
	Fold(*Staged) error
	Release()
}](b B, st *Staged) error {
	defer b.Release()
	return b.Fold(st)
}

var frameCases = []frameCase{
	{
		name: "agg-int64-float64", kind: wireDecaAgg, keySize: 8, // fixed-size keys: length prefixes checked against the codec
		build: func(tb testing.TB, keys int, dir string, spill bool) []byte {
			b, err := NewDecaAgg[int64, float64](memory.NewManager(4096, 0), addF, i64, f64, dir)
			if err != nil {
				tb.Fatal(err)
			}
			return fillFrame(tb, b, keys, spill, func(i int) { b.Put(int64(i), float64(i)) })
		},
		fold: func(st *Staged, mem *memory.Manager, dir string) error {
			b, err := NewDecaAgg[int64, float64](mem, addF, i64, f64, dir)
			if err != nil {
				return err
			}
			return foldFresh(b, st)
		},
	},
	{
		name: "agg-string-int64", kind: wireDecaAgg, keySize: -1,
		build: func(tb testing.TB, keys int, dir string, spill bool) []byte {
			b, err := NewDecaAgg[string, int64](memory.NewManager(4096, 0), addI, str, i64, dir)
			if err != nil {
				tb.Fatal(err)
			}
			return fillFrame(tb, b, keys, spill, func(i int) {
				b.Put(string(rune('a'+i%26))+string(binary.AppendUvarint(nil, uint64(i))), int64(i))
			})
		},
		fold: func(st *Staged, mem *memory.Manager, dir string) error {
			b, err := NewDecaAgg[string, int64](mem, addI, str, i64, dir)
			if err != nil {
				return err
			}
			return foldFresh(b, st)
		},
		foldDrain: func(st *Staged, mem *memory.Manager, dir string) error {
			b, err := NewDecaAgg[string, int64](mem, addI, str, i64, dir)
			if err != nil {
				return err
			}
			defer b.Release()
			if err := b.Fold(st); err != nil {
				return err
			}
			return b.Drain(func(string, int64) bool { return true })
		},
	},
	{
		name: "group-int64-int64", kind: wireDecaGroup, keySize: 8,
		build: func(tb testing.TB, keys int, dir string, spill bool) []byte {
			b := NewDecaGroup[int64, int64](memory.NewManager(4096, 0), i64, i64, dir)
			return fillFrame(tb, b, keys, spill, func(i int) {
				for j := 0; j <= i%3; j++ {
					b.Put(int64(i), int64(j))
				}
			})
		},
		fold: func(st *Staged, mem *memory.Manager, dir string) error {
			return foldFresh(NewDecaGroup[int64, int64](mem, i64, i64, dir), st)
		},
		foldDrain: func(st *Staged, mem *memory.Manager, dir string) error {
			b := NewDecaGroup[int64, int64](mem, i64, i64, dir)
			defer b.Release()
			if err := b.Fold(st); err != nil {
				return err
			}
			return b.Drain(func(int64, []int64) bool { return true })
		},
	},
	{
		name: "object-agg-int64-float64", kind: wireObjectAgg, keySize: -1,
		build: func(tb testing.TB, keys int, dir string, spill bool) []byte {
			b := NewObjectAgg(addF, f64Cfg(dir))
			return fillFrame(tb, b, keys, spill, func(i int) { b.Put(int64(i), float64(i)) })
		},
		fold: func(st *Staged, _ *memory.Manager, dir string) error {
			return foldFresh(NewObjectAgg(addF, f64Cfg(dir)), st)
		},
	},
	{
		name: "object-group-int64-int64", kind: wireObjectGroup, keySize: -1,
		build: func(tb testing.TB, keys int, dir string, spill bool) []byte {
			b := NewObjectGroup(objCfg(dir))
			return fillFrame(tb, b, keys, spill, func(i int) {
				for j := 0; j <= i%3; j++ {
					b.Put(int64(i), int64(j))
				}
			})
		},
		fold: func(st *Staged, _ *memory.Manager, dir string) error {
			return foldFresh(NewObjectGroup(objCfg(dir)), st)
		},
	},
}

// stage is the fetch worker's half, whatever the frame's kind.
func (frameCase) stage(frame []byte, mem *memory.Manager, dir string) (*Staged, error) {
	return Stage(bytes.NewReader(frame), mem, dir)
}

// stageFold runs a frame through both halves, and a drain where the case
// has one.
func (c frameCase) stageFold(frame []byte, mem *memory.Manager, dir string) error {
	st, err := c.stage(frame, mem, dir)
	if err != nil {
		return err
	}
	if c.foldDrain != nil {
		return c.foldDrain(st, mem, dir)
	}
	return c.fold(st, mem, dir)
}

// assertClean: every page and every group — merged buffers, adopted
// sources, restored frames — is back with the manager, no spill file
// outlived its buffer, and no mapping of one outlived its replay.
func assertClean(tb testing.TB, mem *memory.Manager, dir, what string) {
	tb.Helper()
	if in := mem.Counters()[obs.PageBytesInUse]; in != 0 {
		tb.Fatalf("%s: %d bytes still in use", what, in)
	}
	if st := mem.Counters(); st[obs.PageGroupsLive] != 0 {
		tb.Fatalf("%s: %d groups still live", what, st[obs.PageGroupsLive])
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		tb.Fatalf("%s: %d spill files left in %s", what, len(entries), dir)
	}
	if mapped := mappedUnder(dir); len(mapped) != 0 {
		tb.Fatalf("%s: %d mappings of files in %s left: %q", what, len(mapped), dir, mapped)
	}
}

// mappedUnder lists the process's mappings of files under dir, deleted
// ones included, as /proc/self/maps names them; nothing where there is no
// /proc (the check is Linux's).
func mappedUnder(dir string) []string {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return nil
	}
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real // the kernel names a mapping by its resolved path
	}
	var mapped []string
	for line := range strings.Lines(string(maps)) {
		if _, path, ok := strings.Cut(line, " "+dir+"/"); ok {
			mapped = append(mapped, strings.TrimSpace(path))
		}
	}
	return mapped
}

// TestStageKindMismatch: a frame stages as what its kind byte says it is
// — one of the four containers' or not at all — and refuses to fold into a
// container of another kind.
func TestStageKindMismatch(t *testing.T) {
	mem := memory.NewManager(4096, 0)
	for _, src := range frameCases {
		frame := src.build(t, 50, t.TempDir(), false)
		dir := t.TempDir()
		for _, dst := range frameCases {
			if src.kind == dst.kind {
				continue
			}
			st, err := src.stage(frame, mem, dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.fold(st, mem, dir); err == nil {
				t.Errorf("staged %s frame folded into %s without error", src.name, dst.name)
			}
			assertClean(t, mem, dir, src.name+" as "+dst.name)
		}
	}
	// 5 and 6 were the sort containers' kinds: no container's any more.
	for _, kind := range []byte{0, 5, 6, 7, 0xff} {
		if _, err := Stage(bytes.NewReader([]byte{kind, 0, 0, 0}), mem, t.TempDir()); err == nil {
			t.Errorf("a frame of kind %d staged as a container's", kind)
		}
	}
	for _, retired := range retiredFrames {
		frame, err := hex.DecodeString(retired)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := Stage(bytes.NewReader(frame), mem, dir); err == nil {
			t.Errorf("a retired frame of kind %d staged as a container's", frame[0])
		}
		assertClean(t, mem, dir, "retired frame")
	}
}

// retiredFrames are frames of the retired kinds 5 (DecaSort: a pointer
// table ahead of the page snapshot) and 6 (ObjectSort: sorted records),
// byte for byte as the deleted sort containers wrote them. No container
// takes either kind, so Stage refuses them, whole or cut short.
var retiredFrames = []string{
	"0503000000000000000000000000100000000100000000000000" +
		"022007000000000000000000000000000000070000000000000001000000000000001007000000000000000200000000000000" +
		"01200700000000000000090000000000000007000000000000000900000000000000",
	"0602020a06020108010406041202",
}

// TestStageTruncation: a frame cut anywhere — inside the count, inside a
// record, inside a page body, inside a spill run — errors and leaves no
// page, group or spill file behind.
func TestStageTruncation(t *testing.T) {
	for _, c := range frameCases {
		t.Run(c.name, func(t *testing.T) {
			mem := memory.NewManager(4096, 0)
			full := c.build(t, 2000, t.TempDir(), true) // 1000 keys in memory: several pages
			dir := t.TempDir()
			if err := c.stageFold(full, mem, dir); err != nil {
				t.Fatalf("whole frame: %v", err)
			}
			assertClean(t, mem, dir, "whole frame")
			for cut := 0; cut < len(full); cut += 13 {
				if err := c.stageFold(full[:cut], mem, dir); err == nil {
					t.Fatalf("truncation at %d/%d staged without error", cut, len(full))
				}
			}
			assertClean(t, mem, dir, "truncated frames")
		})
	}
}

// hostileFrames derives the corruptions the stage parser must reject from
// a well-formed frame of c. Each is named for the error report.
func hostileFrames(tb testing.TB, c frameCase) map[string][]byte {
	good := c.build(tb, 40, tb.TempDir(), false)
	n, cw := binary.Uvarint(good[1:]) // the count and its width
	body := 1 + cw
	patch := func(at int, b ...byte) []byte {
		f := bytes.Clone(good)
		copy(f[at:], b)
		return f
	}
	count := func(n uint64) []byte {
		return append(binary.AppendUvarint([]byte{good[0]}, n), good[body:]...)
	}
	out := map[string][]byte{
		"count over maxWireCount":    count(maxWireCount + 1),
		"count far beyond the bytes": count(1 << 30),
		"count one too many":         count(n + 1),
	}
	far := []byte{0xff, 0xff, 0xff, 0x7f} // page 2^31-1
	neg := []byte{0xff, 0xff, 0xff, 0xff} // page -1
	// No Deca frame has a table: the records fill one page, which follows
	// the page count and its own length.
	plen, pw := binary.Uvarint(good[body+1:])
	page := body + 1 + pw
	switch c.kind {
	case wireDecaGroup:
		// Key i has 1 + i%3 values and each of its nodes follows it: key
		// record 0 at offset 0 (0x10 | key | head | tail | count: 29
		// bytes), its node at 29 (0x11 | value | next: 17 bytes), key
		// record 1 at 46, its nodes at 75 and 92, key record 2 at 109.
		const key0, node0, key1, node1a, node1b, key2 = 0, 29, 46, 75, 92, 109
		const head, tail, cnt, next = 9, 17, 25, 9 // fields of a key record and of a node
		at := func(off int) int { return page + off }
		link := func(off int32) []byte { return binary.LittleEndian.AppendUint32(make([]byte, 4), uint32(off)) }
		out["count one too few"] = count(39)
		out["key record counted dead"] = patch(at(key0+cnt), 0)
		out["count disagrees with the nodes"] = patch(at(key0+cnt), 2)
		out["link past the restored group"] = patch(at(key0+head), far...)
		out["link to a negative page"] = patch(at(key0+head), neg...)
		out["link past the page"] = patch(at(key0+head+4), far...)
		out["link into the middle of a record"] = patch(at(node1a+next), link(node1b+1)...)
		out["tail into the middle of a record"] = patch(at(key1+tail), link(node1b+next+1)...)
		out["cycle of two nodes"] = patch(at(node1b+next), link(node1a)...)
		out["node linked to itself"] = patch(at(node1b+next), link(node1b)...)
		out["head links back to its own record"] = patch(at(key1+head), link(key1)...)
		out["two chains share a node"] = patch(at(key0+head), link(node1a)...)
		out["tail is not the chain's end"] = patch(at(key1+tail), link(node1a+next)...)
		out["counts swapped between keys"] = patch(at(key2+cnt), 2) // and key 1 takes key 2's 3:
		out["counts swapped between keys"][at(key1+cnt)] = 3
		out["key shorter than its codec"] = patch(at(key0), good[at(key0)]-2)
		out["value longer than its codec"] = patch(at(node0), good[at(node0)]+2)
		out["header never ends"] = patch(at(key2), bytes.Repeat([]byte{0x80}, int(plen)-key2)...)
		out["page announces a gigabyte"] = slices.Concat(
			binary.AppendUvarint(bytes.Clone(good[:body+1]), 1<<30), good[page:page+16])
	case wireObjectAgg, wireObjectGroup:
		// The records follow the count, each uvarint length | key | value;
		// the first has a one-byte length and a one-byte key.
		out["key runs into its value"] = patch(body+1, good[body+1]|0x80)
		rec := body + 1 + int(good[body])
		out["record longer than its key and value"] = slices.Concat(good[:body], []byte{good[body] + 1}, good[body+1:rec], []byte{0}, good[rec:])
		// Stage must not believe a length before the bytes either.
		out["record announces a gigabyte"] = slices.Concat(good[:body], binary.AppendUvarint(nil, 1<<30), good[body+1:])
	case wireDecaAgg:
		// 40 records, one-byte headers, 8-byte values.
		last := page
		for next := page; next < page+int(plen); next += 1 + int(good[next]>>1) + 8 {
			last = next
		}
		out["count one too few"] = count(39)
		out["dead record counted live"] = patch(page, good[page]|1)
		out["key overruns the page"] = patch(last, 0x7e)
		out["header never ends"] = patch(last, bytes.Repeat([]byte{0x80}, page+int(plen)-last)...)
		out["value tail past the page"] = slices.Concat(
			binary.AppendUvarint(bytes.Clone(good[:body+1]), plen-1), good[page:page+int(plen)-1], good[page+int(plen):])
		// memory.RestoreGroup must not believe the length before the bytes.
		out["page announces a gigabyte"] = slices.Concat(
			binary.AppendUvarint(bytes.Clone(good[:body+1]), 1<<30), good[page:page+16])
		if c.keySize >= 0 {
			out["key shorter than its codec"] = patch(page, good[page]-2)
			out["key longer than its codec"] = patch(page, good[page]+2)
		} else {
			// The first key's string length follows its one-byte header.
			out["string longer than its record"] = patch(page+1, good[page+1]+1)
			out["string shorter than its record"] = patch(page+1, good[page+1]-1)
			out["string past the page"] = patch(page+1, 0xff, 0xff, 0, 0)
		}
	}
	return out
}

// TestStageEmptyPageHeaders: a frame whose page section is nothing but
// empty-page headers — one byte each on the wire — stages without taking
// a page apiece (memory.RestoreGroup), and its truncation errors
// like any other.
func TestStageEmptyPageHeaders(t *testing.T) {
	const pages = 100_000
	frame := []byte{wireDecaGroup, 0}               // no records
	frame = binary.AppendUvarint(frame, pages)      // page count
	frame = append(frame, make([]byte, pages+1)...) // pages × length 0, then 0 spill runs
	mem := memory.NewManager(4096, 0)
	dir := t.TempDir()
	st, err := Stage(bytes.NewReader(frame), mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	if in := mem.Counters()[obs.PageBytesInUse]; in != 0 {
		t.Errorf("%d empty page headers hold %d manager bytes while staged, want 0", pages, in)
	}
	if err := foldFresh(NewDecaGroup[int64, int64](mem, i64, i64, dir), st); err != nil {
		t.Error(err)
	}
	if _, err := Stage(bytes.NewReader(frame[:len(frame)/2]), mem, dir); err == nil {
		t.Error("truncated page section staged without error")
	}
	assertClean(t, mem, dir, "empty page headers")
}

// TestStageHostileFrames: a corrupt table is an error at stage or at fold,
// never a panic, an out-of-bounds page access later, or a leak.
func TestStageHostileFrames(t *testing.T) {
	for _, c := range frameCases {
		mem := memory.NewManager(4096, 0)
		dir := t.TempDir()
		for what, frame := range hostileFrames(t, c) {
			if err := c.stageFold(frame, mem, dir); err == nil {
				t.Errorf("%s: %s: accepted", c.name, what)
			}
			assertClean(t, mem, dir, c.name+": "+what)
		}
	}
}

// TestDrainDistrustsKeyLength: a string key whose length prefix disagrees
// with its record — reaching into the value and the records after it, or
// past the end of the page — folds (a fold compares key bytes, it decodes
// none) and then fails the drain with an error naming page and offset,
// where the drain once read its neighbours' bytes or panicked.
func TestDrainDistrustsKeyLength(t *testing.T) {
	i := slices.IndexFunc(frameCases, func(c frameCase) bool { return c.name == "agg-string-int64" })
	c := frameCases[i]
	mem := memory.NewManager(4096, 0)
	dir := t.TempDir()
	hostile := hostileFrames(t, c)
	for _, what := range []string{"string longer than its record", "string shorter than its record", "string past the page"} {
		st, err := c.stage(hostile[what], mem, dir)
		if err != nil {
			t.Fatalf("%s: stage: %v", what, err)
		}
		b, err := NewDecaAgg[string, int64](mem, addI, str, i64, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Fold(st); err != nil {
			t.Fatalf("%s: fold: %v", what, err)
		}
		yielded := 0
		err = b.Drain(func(string, int64) bool { yielded++; return true })
		if err == nil || !strings.Contains(err.Error(), "key at page 0 offset 0 ") || yielded != 0 {
			t.Errorf("%s: drain yielded %d keys, then %v; want the first key refused by page and offset", what, yielded, err)
		}
		b.Release()
		assertClean(t, mem, dir, what)
	}
}

// FuzzStageDecaFrames feeds arbitrary bytes to the stager and folds what
// stages into every container, Deca and Object, draining where the case
// does: whatever happens, no panic and nothing left behind — no manager
// byte in use, no spill file. The string-key drain decodes every key it
// meets, checked against its record. The seeds are every case's frames and
// corruptions, then the golden Object frames and the retired frames, each
// with every truncation.
func FuzzStageDecaFrames(f *testing.F) {
	for _, c := range frameCases {
		f.Add(c.build(f, 0, f.TempDir(), false))
		f.Add(c.build(f, 300, f.TempDir(), true))
		for _, frame := range hostileFrames(f, c) {
			f.Add(frame)
		}
	}
	cuts := func(golden string) {
		frame, err := hex.DecodeString(golden)
		if err != nil {
			f.Fatal(err)
		}
		for cut := len(frame); cut >= 0; cut-- {
			f.Add(frame[:cut])
		}
	}
	for _, golden := range goldenObjectFrames {
		cuts(golden)
	}
	for _, retired := range retiredFrames {
		cuts(retired)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		// RestoreGroup takes one page per non-empty page header,
		// however short the page (an empty one takes none): small pages
		// keep a mutated page count from amplifying an input beyond 32×.
		mem := memory.NewManager(64, 0)
		dir := t.TempDir()
		for _, c := range frameCases {
			_ = c.stageFold(frame, mem, dir) // errors are the expected outcome
			assertClean(t, mem, dir, c.name)
		}
	})
}
