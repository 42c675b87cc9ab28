package shuffle

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"deca/internal/decompose"
	"deca/internal/memory"
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

func TestObjectSortSpillWithoutSerializers(t *testing.T) {
	b := NewObjectSort[int64, int64](func(a, c int64) bool { return a < c },
		ObjectConfig[int64, int64]{})
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

	srt := NewDecaSort[int64, int64](m, func(a, c int64) bool { return a < c },
		decompose.Int64Codec{}, decompose.Int64Codec{}, t.TempDir())
	defer srt.Release()
	if err := srt.Spill(); err != nil {
		t.Errorf("empty sort spill errored: %v", err)
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

// TestDrainSortedStopsAtACorruptRun: a sorted spill run whose record does
// not decode — a string length past the end of the run — ends DrainSorted
// with an error, instead of yielding that record again and again.
func TestDrainSortedStopsAtACorruptRun(t *testing.T) {
	b := NewDecaSort[string, int64](memory.NewManager(4096, 0), func(a, c string) bool { return a < c },
		decompose.StringCodec{}, decompose.Int64Codec{}, t.TempDir())
	defer b.Release()
	b.Put("b", 2)
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	b.Put("a", 1)
	if err := os.WriteFile(b.spills[0].path, []byte{0xff, 0xff, 0xff, 0x7f, 'b'}, 0o644); err != nil {
		t.Fatal(err)
	}
	b.spills[0].size = 5
	var got []string
	err := b.DrainSorted(func(k string, _ int64) bool {
		got = append(got, k)
		return len(got) < 10
	})
	if err == nil || len(got) != 0 {
		t.Errorf("drained %q, then %v; want an error", got, err)
	}
}
