package shuffle

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/obs"
	"deca/internal/serial"
)

// readOnlyDir returns a directory spills cannot be created in.
func readOnlyDir(t *testing.T) string {
	t.Helper()
	if runtime.GOOS == "windows" || os.Geteuid() == 0 {
		// Root bypasses permission bits; use a non-existent subdirectory
		// instead, which CreateTemp cannot use either.
		return filepath.Join(t.TempDir(), "missing", "sub")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Skip("cannot make read-only dir")
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	return dir
}

func TestObjectAggSpillIOError(t *testing.T) {
	dir := readOnlyDir(t)
	b := NewObjectAgg[string, int64](func(a, c int64) int64 { return a + c },
		ObjectConfig[string, int64]{KeySer: serial.Str{}, ValSer: serial.Int64{}, SpillDir: dir})
	defer b.Release()
	b.Put("k", 1)
	if err := b.Spill(); err == nil {
		t.Error("spill into unwritable dir must fail")
	}
	// The buffer must remain usable: data still drains.
	got := map[string]int64{}
	if err := b.Drain(func(k string, v int64) bool { got[k] = v; return true }); err != nil {
		t.Fatal(err)
	}
	if got["k"] != 1 {
		t.Errorf("data lost after failed spill: %v", got)
	}
}

func TestDecaAggSpillIOError(t *testing.T) {
	dir := readOnlyDir(t)
	m := memory.NewManager(1024, 0)
	b, err := NewDecaAgg[string, int64](m, func(a, c int64) int64 { return a + c },
		decompose.StringCodec{}, decompose.Int64Codec{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	b.Put("k", 7)
	if err := b.Spill(); err == nil {
		t.Error("spill into unwritable dir must fail")
	}
	got := map[string]int64{}
	if err := b.Drain(func(k string, v int64) bool { got[k] = v; return true }); err != nil {
		t.Fatal(err)
	}
	if got["k"] != 7 {
		t.Errorf("data lost after failed spill: %v", got)
	}
}

// TestDecaRequiresKeyCodec: keys live in the pages in the codec's
// encoding, so a buffer without one cannot exist.
func TestDecaRequiresKeyCodec(t *testing.T) {
	m := memory.NewManager(1024, 0)
	if b, err := NewDecaAgg[string, int64](m, addI, nil, decompose.Int64Codec{}, ""); err == nil {
		b.Release()
		t.Error("DecaAgg built without a key codec")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DecaGroup built without a key codec")
			}
		}()
		NewDecaGroup[string, int64](m, nil, decompose.Int64Codec{}, "").Release()
	}()
	assertClean(t, m, t.TempDir(), "rejected constructors")
}

// TestDecaAggFoldRejectsMalformedRecords: the fold walk trusts no record.
// Each corruption is an error that names the page and offset (or the
// count), and the destination — which held keys of its own — is left
// holding exactly those: still readable, still combinable, drained or
// refused without a panic, released without a leak.
func TestDecaAggFoldRejectsMalformedRecords(t *testing.T) {
	wantErr := map[string]string{
		"count one too many":         "41",
		"count one too few":          "39",
		"dead record counted live":   "39 live records",
		"key overruns the page":      "page 0 offset",
		"header never ends":          "page 0 offset",
		"value tail past the page":   "page 0 offset",
		"key shorter than its codec": "page 0 offset 0 (header 0xe, codec size 8)",
		"key longer than its codec":  "page 0 offset 0 (header 0x12, codec size 8)",
	}
	for _, c := range frameCases[:2] { // int64 and string keys
		mem := memory.NewManager(4096, 0)
		dir := t.TempDir()
		for what, frame := range hostileFrames(t, c) {
			want, ok := wantErr[what]
			if !ok {
				continue // the header corruptions every kind shares: TestStageHostileFrames
			}
			if err := c.stageFold(frame, mem, dir); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %s: fold returned %v, want an error naming %q", c.name, what, err, want)
			}
			if c.keySize < 0 {
				continue
			}
			b, err := NewDecaAgg[int64, float64](mem, addF, i64, f64, dir)
			if err != nil {
				t.Fatal(err)
			}
			b.Put(-1, 0.5)
			st, err := c.stage(frame, mem, dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Fold(st); err == nil {
				t.Errorf("%s: %s: accepted by a buffer holding keys", c.name, what)
			}
			b.Put(-1, 0.25)
			if seg, ok := valueBytes(b, -1); !ok {
				t.Errorf("%s: %s: the destination's own key is gone after the failed fold", c.name, what)
			} else if v, _ := f64.Decode(seg); v != 0.75 {
				t.Errorf("%s: %s: the destination's own key holds %v, want 0.75", c.name, what, v)
			}
			_ = b.Drain(func(int64, float64) bool { return true }) // may refuse the bad page; must not panic
			b.Release()
			assertClean(t, mem, dir, c.name+": "+what)
		}
	}
}

// TestDecaGroupFoldRejectsMalformedChains: the group fold holds the pages
// it adopts to account as a whole. Each corruption of a key record, a node
// or a link is an error that says what is wrong — at the fold, or for the
// one the fold's sums cannot see, at the drain — and a destination that
// held a key of its own can still be drained (or refuse to be) without a
// panic or a walk that never ends, and released without a leak.
func TestDecaGroupFoldRejectsMalformedChains(t *testing.T) {
	wantErr := map[string]string{
		"count one too many":                "40 live keys, their header says 41",
		"count one too few":                 "40 live keys, their header says 39",
		"key record counted dead":           "39 live keys",
		"count disagrees with the nodes":    "count 80 values, their pages hold 79",
		"link past the restored group":      "links do not reach",
		"link past the page":                "links do not reach",
		"link to a negative page":           "page 0 off 0 links back to page -1",
		"link into the middle of a record":  "links do not reach",
		"tail into the middle of a record":  "links do not reach",
		"cycle of two nodes":                "page 0 off 92 links back to page 0 off 75",
		"node linked to itself":             "page 0 off 92 links back to page 0 off 92",
		"head links back to its own record": "page 0 off 46 links back to page 0 off 46",
		"two chains share a node":           "links do not reach",
		"tail is not the chain's end":       "links do not reach",
		"counts swapped between keys":       "chain of the key at page 0 off 46 does not end",
		"key shorter than its codec":        "page 0 offset 0 (header 0xe, codec size 8)",
		"value longer than its codec":       "page 0 offset 29 (header 0x13, codec size 8)",
		"header never ends":                 "page 0 offset 109",
	}
	c := frameCases[2]
	mem := memory.NewManager(4096, 0)
	dir := t.TempDir()
	frames := hostileFrames(t, c)
	for what, want := range wantErr {
		frame, ok := frames[what]
		if !ok {
			t.Fatalf("no hostile frame %q", what)
		}
		if err := c.stageFold(frame, mem, dir); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: fold and drain returned %v, want an error naming %q", what, err, want)
		}
		b := NewDecaGroup[int64, int64](mem, i64, i64, dir)
		b.Put(-1, 5)
		st, err := c.stage(frame, mem, dir)
		if err != nil {
			t.Fatal(err)
		}
		failed := b.Fold(st) != nil
		own := 0
		err = b.Drain(func(k int64, vs []int64) bool {
			if k == -1 && len(vs) == 1 && vs[0] == 5 {
				own++
			}
			return true
		})
		if !failed && err == nil {
			t.Errorf("%s: folded and drained by a buffer holding a key", what)
		}
		if err == nil && own != 1 {
			t.Errorf("%s: the drain went through but the destination's own key came out %d times", what, own)
		}
		b.Release()
		assertClean(t, mem, dir, what)
	}
}

func TestObjectGroupSpillWithoutSerializers(t *testing.T) {
	b := NewObjectGroup(ObjectConfig[int64, int64]{})
	defer b.Release()
	b.Put(1, 1)
	if err := b.Spill(); err == nil {
		t.Error("spill without serializers must fail")
	}
}

func TestEmptyBufferSpillIsNoOp(t *testing.T) {
	m := memory.NewManager(1024, 0)
	dec, _ := NewDecaAgg[int64, int64](m, func(a, c int64) int64 { return a + c },
		decompose.Int64Codec{}, decompose.Int64Codec{}, t.TempDir())
	defer dec.Release()
	if err := dec.Spill(); err != nil {
		t.Errorf("empty spill errored: %v", err)
	}
	if dec.SpilledBytes() != 0 {
		t.Error("empty spill wrote bytes")
	}

	grp := NewDecaGroup[int64, int64](m, decompose.Int64Codec{}, decompose.Int64Codec{}, t.TempDir())
	defer grp.Release()
	if err := grp.Spill(); err != nil {
		t.Errorf("empty group spill errored: %v", err)
	}
}

func TestSpillFilesDeletedOnRelease(t *testing.T) {
	dir := t.TempDir()
	m := memory.NewManager(1024, 0)
	b, _ := NewDecaAgg[int64, int64](m, func(a, c int64) int64 { return a + c },
		decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
	for i := int64(0); i < 100; i++ {
		b.Put(i, i)
	}
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) == 0 {
		t.Fatal("no spill file created")
	}
	b.Release()
	entries, _ = os.ReadDir(dir)
	if len(entries) != 0 {
		t.Errorf("%d spill files survived Release", len(entries))
	}
}

func TestDrainEarlyStopKeepsBufferUsable(t *testing.T) {
	m := memory.NewManager(1024, 0)
	b, _ := NewDecaAgg[int64, int64](m, func(a, c int64) int64 { return a + c },
		decompose.Int64Codec{}, decompose.Int64Codec{}, "")
	defer b.Release()
	for i := int64(0); i < 10; i++ {
		b.Put(i, i)
	}
	n := 0
	b.Drain(func(int64, int64) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
	// Full drain afterwards still sees all keys.
	n = 0
	b.Drain(func(int64, int64) bool { n++; return true })
	if n != 10 {
		t.Errorf("re-drain visited %d, want 10", n)
	}
}

// TestWriteListsFailsAsDrainDoes: a chain the drain refuses fails the
// hand-off to a cache block with the drain's own error, never a panic, and
// the block's half-written group gives every page back: InUse is what it
// was before the build. The chains are the hostile group frames a fold lets
// through (counts swapped between keys, which the fold's sums cannot see)
// and corruptions of a buffer's own pages, which no fold checked.
func TestWriteListsFailsAsDrainDoes(t *testing.T) {
	codec := decompose.PairCodec[int64, []int64]{KeyCodec: i64, ValueCodec: decompose.Int64SliceCodec{}}
	c := frameCases[2]
	mem := memory.NewManager(4096, 0)
	dir := t.TempDir()
	// Each case builds its buffer twice, one to drain and one to hand off;
	// nil is a frame the fold refused.
	twins := map[string]func() *DecaGroup[int64, int64]{}
	for what, frame := range hostileFrames(t, c) {
		twins["frame: "+what] = func() *DecaGroup[int64, int64] {
			b := NewDecaGroup[int64, int64](mem, i64, i64, dir)
			st, err := c.stage(frame, mem, dir)
			if err != nil || b.Fold(st) != nil {
				b.Release()
				return nil
			}
			return b
		}
	}
	// own corrupts key 1's record (two values) on a buffer of keys 0-39,
	// 1 + key%3 values each, the first 21 keys spilled and replayed.
	own := func(corrupt func(b *DecaGroup[int64, int64], it *recordIter)) func() *DecaGroup[int64, int64] {
		return func() *DecaGroup[int64, int64] {
			b := NewDecaGroup[int64, int64](mem, i64, i64, dir)
			for i := range 40 {
				for j := range 1 + i%3 {
					b.Put(int64(i), int64(j))
				}
				if i == 20 {
					if err := b.Spill(); err != nil {
						t.Fatal(err)
					}
				}
			}
			b.flush()
			if err := b.replay(b.replayRun); err != nil {
				t.Fatal(err)
			}
			it := b.records(0)
			for it.next() && decompose.I64(it.key, 0) != 1 {
			}
			corrupt(b, &it)
			return b
		}
	}
	twins["count past its chain"] = own(func(_ *DecaGroup[int64, int64], it *recordIter) { addCount(it.val, 1) })
	twins["count short of its chain"] = own(func(_ *DecaGroup[int64, int64], it *recordIter) { addCount(it.val, -1) })
	twins["count past every node"] = own(func(_ *DecaGroup[int64, int64], it *recordIter) {
		binary.LittleEndian.PutUint32(it.val[2*linkSize:], math.MaxUint32) // 32 GiB of values, were it believed
	})
	twins["head at a key record"] = own(func(_ *DecaGroup[int64, int64], it *recordIter) {
		putLink(it.val, int32(it.page), it.ptr)
	})
	twins["head past the pages"] = own(func(_ *DecaGroup[int64, int64], it *recordIter) {
		putLink(it.val, int32(it.page), memory.Ptr{Page: 1 << 20})
	})

	refused := 0
	for what, build := range twins {
		drained, handed := build(), build()
		if drained == nil {
			continue
		}
		errD := drained.Drain(func(int64, []int64) bool { return true })
		drained.Release()
		if errD == nil {
			if !strings.HasPrefix(what, "frame: ") {
				t.Errorf("%s: drained without error", what)
			}
			handed.Release()
			continue
		}
		refused++
		before := mem.Counters()[obs.PageBytesInUse]
		g, n, errW := handed.WriteLists(mem, codec)
		if in := mem.Counters()[obs.PageBytesInUse]; in != before || g != nil {
			t.Errorf("%s: %d bytes in use after the failed build, %d before it; group %v", what, in, before, g)
		}
		if errW == nil || errW.Error() != errD.Error() {
			t.Errorf("%s: the hand-off wrote %d records, then %v; the drain returned %v", what, n, errW, errD)
		}
		handed.Release()
		assertClean(t, mem, dir, what)
	}
	if refused < 6 {
		t.Errorf("%d chains refused by the drain, want the 5 corruptions and a swapped count", refused)
	}
}

// otherI64 is Int64Codec under another type: the same bytes, but not the
// buffer's codec.
type otherI64 struct{ decompose.Int64Codec }

// funcI64 is Int64Codec in a type whose values cannot be compared.
type funcI64 struct {
	decompose.Int64Codec
	f func()
}

// pairCodec is a PairCodec under another type.
type pairCodec struct {
	decompose.PairCodec[int64, []int64]
}

// TestWriteListsRefusesOtherCodecs: a block codec whose records are not the
// buffer's key bytes, a list header and its value bytes, each under the
// buffer's own fixed-size codecs, is a *CodecError before anything is
// replayed or written, and the buffer still drains whole.
func TestWriteListsRefusesOtherCodecs(t *testing.T) {
	mem := memory.NewManager(4096, 0)
	dir := t.TempDir()
	ints := NewDecaGroup[int64, int64](mem, i64, i64, dir)
	strs := NewDecaGroup[string, int64](mem, str, i64, dir)
	for i := range 30 {
		ints.Put(int64(i%7), int64(i))
		strs.Put(string(rune('a'+i%7)), int64(i))
		if i == 15 {
			if err := errors.Join(ints.Spill(), strs.Spill()); err != nil {
				t.Fatal(err)
			}
		}
	}
	list := decompose.Int64SliceCodec{}
	for what, write := range map[string]func(*memory.Manager) (*memory.Group, int, error){
		"not a PairCodec": func(mem *memory.Manager) (*memory.Group, int, error) {
			return ints.WriteLists(mem, pairCodec{decompose.PairCodec[int64, []int64]{KeyCodec: i64, ValueCodec: list}})
		},
		"a value codec that is no list codec": func(mem *memory.Manager) (*memory.Group, int, error) {
			return ints.WriteLists(mem, decompose.PairCodec[int64, []int64]{KeyCodec: i64, ValueCodec: decompose.Int64VecCodec{Dim: 2}})
		},
		"another key codec": func(mem *memory.Manager) (*memory.Group, int, error) {
			return ints.WriteLists(mem, decompose.PairCodec[int64, []int64]{KeyCodec: otherI64{}, ValueCodec: list})
		},
		"a key codec that cannot be compared": func(mem *memory.Manager) (*memory.Group, int, error) {
			b := NewDecaGroup[int64, int64](mem, funcI64{}, i64, dir)
			defer b.Release()
			b.Put(1, 1)
			return b.WriteLists(mem, decompose.PairCodec[int64, []int64]{KeyCodec: funcI64{}, ValueCodec: list})
		},
		"a variable-size key": func(mem *memory.Manager) (*memory.Group, int, error) {
			return strs.WriteLists(mem, decompose.PairCodec[string, []int64]{KeyCodec: str, ValueCodec: list})
		},
	} {
		before := mem.Counters()[obs.PageBytesInUse]
		g, _, err := write(mem)
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Errorf("%s: %v, want a *CodecError", what, err)
		}
		if in := mem.Counters()[obs.PageBytesInUse]; in != before || g != nil {
			t.Errorf("%s: %d bytes in use after the refusal, %d before it; group %v", what, in, before, g)
		}
	}
	keys, values := 0, 0
	count := func(vs []int64) bool { keys, values = keys+1, values+len(vs); return true }
	err := errors.Join(ints.Drain(func(_ int64, vs []int64) bool { return count(vs) }),
		strs.Drain(func(_ string, vs []int64) bool { return count(vs) }))
	if err != nil || keys != 14 || values != 60 {
		t.Errorf("the refused buffers drain %d keys, %d values, %v; want 14, 60", keys, values, err)
	}
	ints.Release()
	strs.Release()
	assertClean(t, mem, dir, "refused codecs")
}
