package shuffle

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"deca/internal/memory"
	"deca/internal/serial"
	"deca/internal/transport"
)

// sealable is a hash container as the seal contract drives it, whatever its
// kind; what is typed by the kind rides in sealCase.
type sealable interface {
	Len() int
	SizeBytes() int64
	SpilledBytes() int64
	Release()
	Seal()
	Spill() error
	Fold(*Staged) error
	PageOccupancy() (used, footprint int64)
	EncodeWire(io.Writer) error
	EncodeSegments() (*transport.FrameSegments, error)
}

type sealCase struct {
	name  string
	new   func(mem *memory.Manager, dir string) sealable
	put   func(b sealable, i int)
	drain func(b sealable) (map[int64][]int64, error)
	merge func(dst, src sealable) error
}

var sealCases = []sealCase{
	{
		name: "DecaAgg",
		new: func(mem *memory.Manager, dir string) sealable {
			b, err := NewDecaAgg[int64, int64](mem, addI, i64, i64, dir)
			if err != nil {
				panic(err)
			}
			return b
		},
		put: func(b sealable, i int) { b.(*DecaAgg[int64, int64]).Put(int64(i*7919%500), int64(i)) },
		drain: func(b sealable) (map[int64][]int64, error) {
			got := map[int64][]int64{}
			return got, b.(*DecaAgg[int64, int64]).Drain(func(k, v int64) bool { got[k] = []int64{v}; return true })
		},
		merge: func(dst, src sealable) error {
			return dst.(*DecaAgg[int64, int64]).MergeFrom(src.(*DecaAgg[int64, int64]))
		},
	},
	{
		name: "DecaGroup",
		new: func(mem *memory.Manager, dir string) sealable {
			return NewDecaGroup[int64, int64](mem, i64, i64, dir)
		},
		put: func(b sealable, i int) { b.(*DecaGroup[int64, int64]).Put(int64(i*7919%500), int64(i)) },
		drain: func(b sealable) (map[int64][]int64, error) {
			got := map[int64][]int64{}
			return got, b.(*DecaGroup[int64, int64]).Drain(func(k int64, vs []int64) bool { got[k] = vs; return true })
		},
		merge: func(dst, src sealable) error {
			return dst.(*DecaGroup[int64, int64]).MergeFrom(src.(*DecaGroup[int64, int64]))
		},
	},
}

// panicsNaming runs fn, which must panic with a message that says the
// container is sealed and names method.
func panicsNaming(t *testing.T, method string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, method+" ") || !strings.Contains(msg, "sealed") {
			t.Errorf("%s on a sealed container: recovered %q, want a panic naming the method", method, msg)
		}
	}()
	fn()
}

// TestSealedContainer is the seal contract (DESIGN.md "Hash index"): a
// sealed container is its pages without its index. Against an unsealed twin
// filled alike: it counts, sizes (the table gone from SizeBytes and from
// the manager), reports occupancy and spill volume, encodes both ways byte
// for byte, drains and is merged from as the twin; what would probe the
// index panics by name; and its Release leaves the ledger at zero.
func TestSealedContainer(t *testing.T) {
	for _, c := range sealCases {
		for _, spilled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/spilled=%v", c.name, spilled), func(t *testing.T) {
				mem, dir := memory.NewManager(256, 0), t.TempDir()
				fill := func() sealable {
					b := c.new(mem, dir)
					for i := 0; i < 3000; i++ {
						c.put(b, i)
						if spilled && i == 1234 {
							if err := b.Spill(); err != nil {
								t.Fatal(err)
							}
						}
					}
					return b
				}
				frames := func(b sealable) (wire, segments []byte) {
					var w, s bytes.Buffer
					if err := b.EncodeWire(&w); err != nil {
						t.Fatal(err)
					}
					fs, err := b.EncodeSegments()
					if err != nil {
						t.Fatal(err)
					}
					defer fs.Release()
					if _, err := fs.WriteTo(&s); err != nil {
						t.Fatal(err)
					}
					return w.Bytes(), s.Bytes()
				}
				twin, b := fill(), fill()
				used, pages := b.PageOccupancy() // flushes: the ledger below is final
				before, table := mem.InUse(), b.SizeBytes()-pages
				b.Seal()
				b.Seal()
				if got := mem.InUse(); table <= 0 || got != before-table {
					t.Errorf("the seal took the manager from %d to %d bytes in use, want the table's %d returned", before, got, table)
				}
				if b.Len() != twin.Len() || b.SpilledBytes() != twin.SpilledBytes() || b.SizeBytes() != pages {
					t.Errorf("sealed: %d keys, %d spilled, %d bytes; want %d, %d and the pages' %d",
						b.Len(), b.SpilledBytes(), b.SizeBytes(), twin.Len(), twin.SpilledBytes(), pages)
				}
				if u, f := b.PageOccupancy(); u != used || f != pages {
					t.Errorf("sealed occupancy %d/%d, was %d/%d", u, f, used, pages)
				}
				wire, segments := frames(b)
				if wantWire, wantSegments := frames(twin); !bytes.Equal(wire, wantWire) || !bytes.Equal(segments, wantSegments) || !bytes.Equal(wire, segments) {
					t.Errorf("sealed frames (%d and %d bytes) differ from the unsealed twin's (%d and %d)", len(wire), len(segments), len(wantWire), len(wantSegments))
				}

				panicsNaming(t, "Put", func() { c.put(b, 1) })
				panicsNaming(t, "Spill", func() { b.Spill() })
				panicsNaming(t, "MergeFrom", func() { c.merge(b, twin) })
				panicsNaming(t, "Fold", func() {
					st, err := Stage(bytes.NewReader(wire), mem, dir)
					if err != nil {
						t.Fatal(err)
					}
					b.Fold(st) // consumes st, panic or not
				})
				if spilled {
					panicsNaming(t, "Drain", func() { c.drain(b) })
				} else {
					got, err := c.drain(b)
					want, werr := c.drain(twin)
					if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("sealed drain: %d keys (%v), the twin's %d (%v)", len(got), err, len(want), werr)
					}
				}
				// A sealed container is a MergeFrom source like any other.
				dst, twinDst := c.new(mem, dir), c.new(mem, dir)
				if err := c.merge(dst, b); err != nil {
					t.Fatal(err)
				}
				if err := c.merge(twinDst, twin); err != nil {
					t.Fatal(err)
				}
				got, err := c.drain(dst)
				want, werr := c.drain(twinDst)
				if err != nil || werr != nil || len(want) != 500 || !reflect.DeepEqual(got, want) {
					t.Errorf("merged from a sealed source: %d keys (%v), from the twin %d (%v)", len(got), err, len(want), werr)
				}
				for _, x := range []sealable{b, twin, dst, twinDst} {
					x.Release()
					x.Release()
				}
				assertClean(t, mem, dir, "after the releases")
			})
		}
	}
}

// TestReplayReadsIntoOneBuffer: a replay reads its runs one after the other
// into one buffer, grown to the largest — sound because every fold copies
// what it keeps of a run. Pinned for the four containers that replay
// (string keys and values: an alias into the buffer would read as the next
// run's bytes), Object path included.
func TestReplayReadsIntoOneBuffer(t *testing.T) {
	rs := runSet{dir: t.TempDir()}
	sizes := []int{4096, 100, 2000}
	for _, n := range sizes {
		if err := rs.write(func(w *spillWriter) error { return w.emit(bytes.Repeat([]byte{byte(n)}, n)) }); err != nil {
			t.Fatal(err)
		}
	}
	var at []*byte
	err := rs.replay(func(run []byte) error {
		if want := sizes[len(at)]; len(run) != want || run[0] != byte(want) || run[want-1] != byte(want) {
			t.Errorf("run %d read back as %d bytes of %#x", len(at), len(run), run[0])
		}
		at = append(at, unsafe.SliceData(run))
		return nil
	})
	if err != nil || len(at) != 3 || at[1] != at[0] || at[2] != at[0] || len(rs.spills) != 0 {
		t.Errorf("3 runs, the first the largest, replayed at %v (%v), want one buffer", at, err)
	}
	rs.release()

	mem, dir := memory.NewManager(256, 0), t.TempDir()
	objCfg := ObjectConfig[string, string]{KeySer: serial.Str{}, ValSer: serial.Str{}, SpillDir: dir}
	concat := func(a, b string) string { return a + b }
	objAgg := NewObjectAgg(concat, objCfg)
	objGroup := NewObjectGroup(objCfg)
	decaGroup := NewDecaGroup[string, string](mem, str, str, dir)
	decaAgg, err := NewDecaAgg[string, int64](mem, addI, str, i64, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Three runs, long records first: the later runs overwrite the head of
	// what the earlier ones were decoded from.
	want, sums := map[string][]string{}, map[string]int64{}
	for run, n := range []int{300, 40, 120} {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("run-%d-key-%04d-%s", run, i%(n/2), strings.Repeat("k", 40-12*run))
			v := fmt.Sprintf("value-%d-%d-%s", run, i, strings.Repeat("v", 30-10*run))
			want[k], sums[k] = append(want[k], v), sums[k]+int64(i)
			objAgg.Put(k, v)
			objGroup.Put(k, v)
			decaGroup.Put(k, v)
			decaAgg.Put(k, int64(i))
		}
		for _, b := range []interface{ Spill() error }{objAgg, objGroup, decaGroup, decaAgg} {
			if err := b.Spill(); err != nil {
				t.Fatal(err)
			}
		}
	}
	joined, lists := map[string]string{}, map[string][]string{}
	for k, vs := range want {
		joined[k] = strings.Join(vs, "")
	}
	if got := drainAggToMap[string, string](t, objAgg); !reflect.DeepEqual(got, joined) {
		t.Errorf("ObjectAgg drained %d keys off 3 runs, want %d (or other values)", len(got), len(joined))
	}
	if got := drainAggToMap[string, int64](t, decaAgg); !reflect.DeepEqual(got, sums) {
		t.Errorf("DecaAgg drained %d keys off 3 runs, want %d (or other sums)", len(got), len(sums))
	}
	for name, drain := range map[string]func(func(string, []string) bool) error{"ObjectGroup": objGroup.Drain, "DecaGroup": decaGroup.Drain} {
		clear(lists)
		if err := drain(func(k string, vs []string) bool { lists[k] = vs; return true }); err != nil || !reflect.DeepEqual(lists, want) {
			t.Errorf("%s drained %d keys off 3 runs (%v), want %d (or other lists)", name, len(lists), err, len(want))
		}
	}
	for _, b := range []interface{ Release() }{objAgg, objGroup, decaGroup, decaAgg} {
		b.Release()
	}
	assertClean(t, mem, dir, "after the drains")
}
