package shuffle

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"io/fs"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"deca/internal/memory"
	"deca/internal/serial"
)

// container is one shuffle buffer of int64 keys and values as the
// lifecycle contract drives it, whatever its kind.
type container struct {
	put     func(k, v int64)
	spill   func() error
	encode  func(w io.Writer) error
	release func()
	runs    *runSet
	// drain yields every key with its values sorted (an aggregation buffer
	// has one value per key, the sum). inOrder reports whether keys arrived
	// in ascending order, which only the sort buffers promise.
	drain func() (got map[int64][]int64, inOrder bool, err error)
	// merge takes over src, a container of the same kind, the way the
	// reduce side merges it: MergeFrom for the Deca kinds, drain and re-Put
	// for the Object ones. The caller releases src afterwards.
	merge func(src container) error
	self  any // the concrete buffer, for merge's type assertion
}

// containerCase is one of the six kinds: how to build an empty buffer and
// how a frame of it is received on the far side — decoded record by record
// (Object), or staged and folded into a fresh buffer (Deca: that is what
// DecodeDeca* are).
type containerCase struct {
	name    string
	hash    bool // spill runs are folded back in (and consumed) by the drain
	agg     bool // one combined value per key
	new     func(mem *memory.Manager, dir string) container
	receive func(frame []byte, mem *memory.Manager, dir string) (container, error)
}

func objCfg(dir string) ObjectConfig[int64, int64] {
	return ObjectConfig[int64, int64]{KeySer: serial.Int64{}, ValSer: serial.Int64{}, SpillDir: dir}
}

// collect adapts the three drain shapes to container.drain.
func collect(each func(yield func(k int64, vs []int64) bool) error) func() (map[int64][]int64, bool, error) {
	return func() (map[int64][]int64, bool, error) {
		got, inOrder, last := map[int64][]int64{}, true, int64(-1<<63)
		err := each(func(k int64, vs []int64) bool {
			inOrder = inOrder && k >= last
			last = k
			got[k] = append(got[k], vs...)
			return true
		})
		for _, vs := range got {
			slices.Sort(vs)
		}
		return got, inOrder, err
	}
}

func pairs(drain func(func(k, v int64) bool) error) func() (map[int64][]int64, bool, error) {
	return collect(func(yield func(int64, []int64) bool) error {
		return drain(func(k, v int64) bool { return yield(k, []int64{v}) })
	})
}

func wrapObjectAgg(b *ObjectAgg[int64, int64]) container {
	return container{put: b.Put, spill: b.Spill, encode: b.EncodeWire, release: b.Release, runs: &b.runSet, self: b,
		drain: pairs(b.Drain),
		merge: func(src container) error {
			return src.self.(*ObjectAgg[int64, int64]).Drain(func(k, v int64) bool { b.Put(k, v); return true })
		}}
}

func wrapDecaAgg(b *DecaAgg[int64, int64]) container {
	return container{put: b.Put, spill: b.Spill, encode: b.EncodeWire, release: b.Release, runs: &b.runSet, self: b,
		drain: pairs(b.Drain),
		merge: func(src container) error { return b.MergeFrom(src.self.(*DecaAgg[int64, int64])) }}
}

func wrapObjectGroup(b *ObjectGroup[int64, int64]) container {
	return container{put: b.Put, spill: b.Spill, encode: b.EncodeWire, release: b.Release, runs: &b.runSet, self: b,
		drain: collect(b.Drain),
		merge: func(src container) error {
			return src.self.(*ObjectGroup[int64, int64]).Drain(func(k int64, vs []int64) bool {
				for _, v := range vs {
					b.Put(k, v)
				}
				return true
			})
		}}
}

func wrapDecaGroup(b *DecaGroup[int64, int64]) container {
	return container{put: b.Put, spill: b.Spill, encode: b.EncodeWire, release: b.Release, runs: &b.runSet, self: b,
		drain: collect(b.Drain),
		merge: func(src container) error { return b.MergeFrom(src.self.(*DecaGroup[int64, int64])) }}
}

func wrapObjectSort(b *ObjectSort[int64, int64]) container {
	return container{put: b.Put, spill: b.Spill, encode: b.EncodeWire, release: b.Release, runs: &b.runSet, self: b,
		drain: pairs(b.DrainSorted),
		merge: func(src container) error {
			return src.self.(*ObjectSort[int64, int64]).DrainSorted(func(k, v int64) bool { b.Put(k, v); return true })
		}}
}

func wrapDecaSort(b *DecaSort[int64, int64]) container {
	return container{put: b.Put, spill: b.Spill, encode: b.EncodeWire, release: b.Release, runs: &b.runSet, self: b,
		drain: pairs(b.DrainSorted),
		merge: func(src container) error { return b.MergeFrom(src.self.(*DecaSort[int64, int64])) }}
}

// wrapped adapts a decoder's result to container.
func wrapped[B any](wrap func(B) container) func(b B, err error) (container, error) {
	return func(b B, err error) (container, error) {
		if err != nil {
			return container{}, err
		}
		return wrap(b), nil
	}
}

// containerCases is the six-kind sibling of frameCases (which stays
// Deca-only: the stage parser and its allocation budget range over it).
var containerCases = []containerCase{
	{name: "ObjectAgg", hash: true, agg: true,
		new: func(_ *memory.Manager, dir string) container { return wrapObjectAgg(NewObjectAgg(addI, objCfg(dir))) },
		receive: func(frame []byte, _ *memory.Manager, dir string) (container, error) {
			return wrapped(wrapObjectAgg)(DecodeObjectAgg(bytes.NewReader(frame), addI, objCfg(dir)))
		}},
	{name: "DecaAgg", hash: true, agg: true,
		new: func(mem *memory.Manager, dir string) container {
			b, err := NewDecaAgg[int64, int64](mem, addI, i64, i64, dir)
			if err != nil {
				panic(err)
			}
			return wrapDecaAgg(b)
		},
		receive: func(frame []byte, mem *memory.Manager, dir string) (container, error) {
			return wrapped(wrapDecaAgg)(DecodeDecaAgg[int64, int64](bytes.NewReader(frame), mem, addI, i64, i64, dir))
		}},
	{name: "ObjectGroup", hash: true,
		new: func(_ *memory.Manager, dir string) container { return wrapObjectGroup(NewObjectGroup(objCfg(dir))) },
		receive: func(frame []byte, _ *memory.Manager, dir string) (container, error) {
			return wrapped(wrapObjectGroup)(DecodeObjectGroup(bytes.NewReader(frame), objCfg(dir)))
		}},
	{name: "DecaGroup", hash: true,
		new: func(mem *memory.Manager, dir string) container {
			return wrapDecaGroup(NewDecaGroup[int64, int64](mem, i64, i64, dir))
		},
		receive: func(frame []byte, mem *memory.Manager, dir string) (container, error) {
			return wrapped(wrapDecaGroup)(DecodeDecaGroup[int64, int64](bytes.NewReader(frame), mem, i64, i64, dir))
		}},
	{name: "ObjectSort",
		new: func(_ *memory.Manager, dir string) container {
			return wrapObjectSort(NewObjectSort(lessI, objCfg(dir)))
		},
		receive: func(frame []byte, _ *memory.Manager, dir string) (container, error) {
			return wrapped(wrapObjectSort)(DecodeObjectSort(bytes.NewReader(frame), lessI, objCfg(dir)))
		}},
	{name: "DecaSort",
		new: func(mem *memory.Manager, dir string) container {
			return wrapDecaSort(NewDecaSort[int64, int64](mem, lessI, i64, i64, dir))
		},
		receive: func(frame []byte, mem *memory.Manager, dir string) (container, error) {
			return wrapped(wrapDecaSort)(DecodeDecaSort[int64, int64](bytes.NewReader(frame), mem, lessI, i64, i64, dir))
		}},
}

// reference is the plain-map model of a container: every value put under
// each key.
type reference map[int64][]int64

// fill puts records lo..hi-1 (key i*7919 mod 61, value i) into b and ref.
func (ref reference) fill(b container, lo, hi int64) {
	for i := lo; i < hi; i++ {
		k := i * 7919 % 61
		b.put(k, i)
		ref[k] = append(ref[k], i)
	}
}

// want is what a drain of kind c must yield for ref.
func (ref reference) want(c containerCase) map[int64][]int64 {
	out := make(map[int64][]int64, len(ref))
	for k, vs := range ref {
		vs = slices.Clone(vs)
		slices.Sort(vs)
		if c.agg {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			vs = []int64{sum}
		}
		out[k] = vs
	}
	return out
}

func (c containerCase) checkDrain(t *testing.T, b container, ref reference, what string) {
	t.Helper()
	got, inOrder, err := b.drain()
	if err != nil {
		t.Fatalf("%s: drain: %v", what, err)
	}
	if !reflect.DeepEqual(got, ref.want(c)) {
		t.Fatalf("%s: drained %d keys that differ from the reference's %d", what, len(got), len(ref))
	}
	if !c.hash && !inOrder {
		t.Fatalf("%s: sorted drain yielded keys out of order", what)
	}
}

// TestContainerLifecycle is the contract all six kinds share: fill, spill
// twice, encode, receive on another manager, merge a second buffer, drain
// twice, release — the answers match a plain map at every step and nothing
// (page, group, spill file) outlives the buffers.
func TestContainerLifecycle(t *testing.T) {
	for _, c := range containerCases {
		t.Run(c.name, func(t *testing.T) {
			srcMem, dstMem := memory.NewManager(256, 0), memory.NewManager(4096, 0)
			dir := t.TempDir()
			ref := reference{}

			a := c.new(srcMem, dir)
			ref.fill(a, 0, 300)
			if err := a.spill(); err != nil {
				t.Fatal(err)
			}
			ref.fill(a, 300, 500)
			if err := a.spill(); err != nil {
				t.Fatal(err)
			}
			ref.fill(a, 500, 600)
			if len(a.runs.spills) != 2 || a.runs.SpilledBytes() == 0 {
				t.Fatalf("two spills left %d runs, %d bytes", len(a.runs.spills), a.runs.SpilledBytes())
			}

			var frame bytes.Buffer
			if err := a.encode(&frame); err != nil {
				t.Fatal(err)
			}
			got, err := c.receive(frame.Bytes(), dstMem, dir)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(c.name, "Deca") && dstMem.InUse() == 0 {
				t.Error("received buffer holds no pages in the destination manager")
			}
			if got.runs.SpilledBytes() != a.runs.SpilledBytes() {
				t.Errorf("received %d spilled bytes, source wrote %d", got.runs.SpilledBytes(), a.runs.SpilledBytes())
			}
			c.checkDrain(t, got, ref, "received")
			c.checkDrain(t, a, ref, "source after encode")

			b := c.new(dstMem, dir)
			ref.fill(b, 600, 800)
			if err := b.spill(); err != nil {
				t.Fatal(err)
			}
			ref.fill(b, 800, 850)
			if err := got.merge(b); err != nil {
				t.Fatal(err)
			}
			b.release()
			c.checkDrain(t, got, ref, "merged")
			c.checkDrain(t, got, ref, "merged, second drain")

			got.release()
			a.release()
			a.release() // idempotent
			assertClean(t, srcMem, dir, c.name+" source manager")
			assertClean(t, dstMem, dir, c.name+" destination manager")
		})
	}
}

// TestDrainSurvivesFailedReplay: a run that cannot be read fails the drain
// with that error and leaves the buffer intact — the runs replayed before
// it are gone from the set as well as from disk, so once the file is back
// the buffer encodes and drains its full contents exactly once.
func TestDrainSurvivesFailedReplay(t *testing.T) {
	for _, c := range containerCases {
		if !c.hash {
			continue // sort buffers merge their runs without consuming them
		}
		t.Run(c.name, func(t *testing.T) {
			mem := memory.NewManager(256, 0)
			dir := t.TempDir()
			ref := reference{}
			b := c.new(mem, dir)
			for lo := int64(0); lo < 300; lo += 100 {
				ref.fill(b, lo, lo+100)
				if err := b.spill(); err != nil {
					t.Fatal(err)
				}
			}
			ref.fill(b, 300, 350)
			if len(b.runs.spills) != 3 {
				t.Fatalf("%d runs, want 3", len(b.runs.spills))
			}

			// Rename, not chmod: tests may run as root, where modes block nothing.
			mid := b.runs.spills[1].path
			if err := os.Rename(mid, mid+".away"); err != nil {
				t.Fatal(err)
			}
			_, _, err := b.drain()
			if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), mid) {
				t.Fatalf("drain with run %s missing returned %v", mid, err)
			}
			if err := os.Rename(mid+".away", mid); err != nil {
				t.Fatal(err)
			}

			if err := b.encode(io.Discard); err != nil {
				t.Errorf("encode after the failed drain: %v", err)
			}
			c.checkDrain(t, b, ref, "retried drain")
			b.release()
			assertClean(t, mem, dir, c.name)
		})
	}
}

// goldenObjectFrames pins the Object wire format and, inside it, the
// serialized spill-run format: frames written by the tree before the
// storage layers were factored out (PR 13), one per kind. Each hash
// container holds a single key, so map iteration cannot reorder it, and
// every frame carries one spill run.
var goldenObjectFrames = map[string]string{
	"agg":   "02010705736576656e04010705736576656e50",
	"group": "0402050e03636363020e0001070e01610e026262",
	"sort":  "0602020a06020108010406041202",
}

func TestGoldenObjectFrames(t *testing.T) {
	dir := t.TempDir()
	aggCfg := ObjectConfig[string, int64]{KeySer: serial.Str{}, ValSer: serial.Int64{}, SpillDir: dir}
	groupCfg := ObjectConfig[int64, string]{KeySer: serial.Int64{}, ValSer: serial.Str{}, SpillDir: dir}
	mustSpill := func(spill func() error) {
		t.Helper()
		if err := spill(); err != nil {
			t.Fatal(err)
		}
	}
	build := map[string]func() wireBuffer{
		"agg": func() wireBuffer {
			b := NewObjectAgg(addI, aggCfg)
			b.Put("seven", 40)
			mustSpill(b.Spill)
			b.Put("seven", 2)
			return b
		},
		"group": func() wireBuffer {
			b := NewObjectGroup(groupCfg)
			b.Put(7, "a")
			b.Put(7, "bb")
			mustSpill(b.Spill)
			b.Put(7, "ccc")
			b.Put(7, "")
			return b
		},
		"sort": func() wireBuffer {
			b := NewObjectSort(lessI, objCfg(dir))
			b.Put(9, 1)
			b.Put(3, 2)
			mustSpill(b.Spill)
			b.Put(5, 3)
			b.Put(-1, 4)
			return b
		},
	}
	// What each golden frame holds, as its decoder must drain it.
	decode := map[string]func(frame []byte) (got, want any, err error){
		"agg": func(frame []byte) (any, any, error) {
			b, err := DecodeObjectAgg(bytes.NewReader(frame), addI, aggCfg)
			if err != nil {
				return nil, nil, err
			}
			defer b.Release()
			got := map[string]int64{}
			err = b.Drain(func(k string, v int64) bool { got[k] = v; return true })
			return got, map[string]int64{"seven": 42}, err
		},
		"group": func(frame []byte) (any, any, error) {
			b, err := DecodeObjectGroup(bytes.NewReader(frame), groupCfg)
			if err != nil {
				return nil, nil, err
			}
			defer b.Release()
			got := map[int64][]string{}
			err = b.Drain(func(k int64, vs []string) bool { got[k] = vs; return true })
			return got, map[int64][]string{7: {"ccc", "", "a", "bb"}}, err
		},
		"sort": func(frame []byte) (any, any, error) {
			b, err := DecodeObjectSort(bytes.NewReader(frame), lessI, objCfg(dir))
			if err != nil {
				return nil, nil, err
			}
			defer b.Release()
			var got [][2]int64
			err = b.DrainSorted(func(k, v int64) bool { got = append(got, [2]int64{k, v}); return true })
			return got, [][2]int64{{-1, 4}, {3, 2}, {5, 3}, {9, 1}}, err
		},
	}
	for name, want := range goldenObjectFrames {
		b := build[name]()
		var frame bytes.Buffer
		if err := b.EncodeWire(&frame); err != nil {
			t.Fatal(err)
		}
		b.Release()
		if got := hex.EncodeToString(frame.Bytes()); got != want {
			t.Errorf("%s frame changed:\n got %s\nwant %s", name, got, want)
		}
		golden, err := hex.DecodeString(want)
		if err != nil {
			t.Fatal(err)
		}
		got, wantRecs, err := decode[name](golden)
		if err != nil {
			t.Fatalf("%s: decoding the golden frame: %v", name, err)
		}
		if !reflect.DeepEqual(got, wantRecs) {
			t.Errorf("%s: golden frame drained %v, want %v", name, got, wantRecs)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("%d spill files left", len(entries))
	}
}
