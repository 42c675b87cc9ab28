package shuffle

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"deca/internal/cache"
	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/obs"
	"deca/internal/serial"
	"deca/internal/transport"
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
	// has one value per key, the sum).
	drain func() (got map[int64][]int64, err error)
	// merge takes over src, a container of the same kind: MergeFrom for
	// DecaAgg and DecaGroup, src's frame staged and folded — the reduce
	// side's one path — for the Object kinds. The caller releases src afterwards.
	merge func(src container) error
	self  any // the concrete buffer, for merge's type assertion
}

// containerCase is one of the four kinds: how to build an empty buffer and
// how a frame of it is received on the far side — staged and folded into a
// fresh buffer (for the Deca kinds, that is what DecodeDeca* are).
type containerCase struct {
	name    string
	agg     bool // one combined value per key
	new     func(mem *memory.Manager, dir string) container
	receive func(frame []byte, mem *memory.Manager, dir string) (container, error)
}

func objCfg(dir string) ObjectConfig[int64, int64] {
	return ObjectConfig[int64, int64]{KeySer: serial.Int64{}, ValSer: serial.Int64{}, SpillDir: dir}
}

// collect adapts the two drain shapes to container.drain.
func collect(each func(yield func(k int64, vs []int64) bool) error) func() (map[int64][]int64, error) {
	return func() (map[int64][]int64, error) {
		got := map[int64][]int64{}
		err := each(func(k int64, vs []int64) bool {
			got[k] = append(got[k], vs...)
			return true
		})
		for _, vs := range got {
			slices.Sort(vs)
		}
		return got, err
	}
}

func pairs(drain func(func(k, v int64) bool) error) func() (map[int64][]int64, error) {
	return collect(func(yield func(int64, []int64) bool) error {
		return drain(func(k, v int64) bool { return yield(k, []int64{v}) })
	})
}

// wire writes the frame encode builds, as a serve ships it.
func wire(encode func() (*transport.FrameSegments, error)) func(io.Writer) error {
	return func(w io.Writer) error { return writeSegments(w, encode) }
}

// foldFrame receives a frame into b as a reduce task does: staged into mem
// (nil for an Object frame, which has no pages), then folded.
func foldFrame(b interface{ Fold(*Staged) error }, frame []byte, mem *memory.Manager, dir string) error {
	st, err := Stage(bytes.NewReader(frame), mem, dir)
	if err != nil {
		return err
	}
	return b.Fold(st)
}

// refold merges src into b through src's frame, staged into mem (nil for
// an Object frame).
func refold(b interface{ Fold(*Staged) error }, src container, mem *memory.Manager) error {
	var frame bytes.Buffer
	if err := src.encode(&frame); err != nil {
		return err
	}
	return foldFrame(b, frame.Bytes(), mem, src.runs.dir)
}

func wrapObjectAgg(b *ObjectAgg[int64, int64]) container {
	return container{put: b.Put, spill: b.Spill, encode: wire(b.EncodeSegments), release: b.Release, runs: &b.runSet, self: b,
		drain: pairs(b.Drain),
		merge: func(src container) error { return refold(b, src, nil) }}
}

func wrapDecaAgg(b *DecaAgg[int64, int64]) container {
	return container{put: b.Put, spill: b.Spill, encode: wire(b.EncodeSegments), release: b.Release, runs: &b.runSet, self: b,
		drain: pairs(b.Drain),
		merge: func(src container) error { return b.MergeFrom(src.self.(*DecaAgg[int64, int64])) }}
}

func wrapObjectGroup(b *ObjectGroup[int64, int64]) container {
	return container{put: b.Put, spill: b.Spill, encode: wire(b.EncodeSegments), release: b.Release, runs: &b.runSet, self: b,
		drain: collect(b.Drain),
		merge: func(src container) error { return refold(b, src, nil) }}
}

func wrapDecaGroup(b *DecaGroup[int64, int64]) container {
	return container{put: b.Put, spill: b.Spill, encode: wire(b.EncodeSegments), release: b.Release, runs: &b.runSet, self: b,
		drain: collect(b.Drain),
		merge: func(src container) error { return b.MergeFrom(src.self.(*DecaGroup[int64, int64])) }}
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

// containerCases is the four-kind sibling of frameCases (which drives the
// stage parser and its allocation budget, not a lifecycle).
var containerCases = []containerCase{
	{name: "ObjectAgg", agg: true,
		new: func(_ *memory.Manager, dir string) container { return wrapObjectAgg(NewObjectAgg(addI, objCfg(dir))) },
		receive: func(frame []byte, _ *memory.Manager, dir string) (container, error) {
			b := NewObjectAgg(addI, objCfg(dir))
			return wrapObjectAgg(b), foldFrame(b, frame, nil, dir)
		}},
	{name: "DecaAgg", agg: true,
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
	{name: "ObjectGroup",
		new: func(_ *memory.Manager, dir string) container { return wrapObjectGroup(NewObjectGroup(objCfg(dir))) },
		receive: func(frame []byte, _ *memory.Manager, dir string) (container, error) {
			b := NewObjectGroup(objCfg(dir))
			return wrapObjectGroup(b), foldFrame(b, frame, nil, dir)
		}},
	{name: "DecaGroup",
		new: func(mem *memory.Manager, dir string) container {
			return wrapDecaGroup(NewDecaGroup[int64, int64](mem, i64, i64, dir))
		},
		receive: func(frame []byte, mem *memory.Manager, dir string) (container, error) {
			return wrapped(wrapDecaGroup)(DecodeDecaGroup[int64, int64](bytes.NewReader(frame), mem, i64, i64, dir))
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
	got, err := b.drain()
	if err != nil {
		t.Fatalf("%s: drain: %v", what, err)
	}
	if !reflect.DeepEqual(got, ref.want(c)) {
		t.Fatalf("%s: drained %d keys that differ from the reference's %d", what, len(got), len(ref))
	}
}

// TestContainerLifecycle is the contract all four kinds share: fill, spill
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
			if strings.HasPrefix(c.name, "Deca") && dstMem.Counters()[obs.PageBytesInUse] == 0 {
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
		t.Run(c.name, func(t *testing.T) {
			mem, dir := memory.NewManager(256, 0), t.TempDir()
			b, ref := spilledThrice(t, c, mem, dir)
			// Rename, not chmod: tests may run as root, where modes block nothing.
			mid := b.runs.spills[1].path
			if err := os.Rename(mid, mid+".away"); err != nil {
				t.Fatal(err)
			}
			_, err := b.drain()
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

// spilledThrice is a buffer of kind c holding three spill runs and 50
// records in memory, with its reference.
func spilledThrice(t *testing.T, c containerCase, mem *memory.Manager, dir string) (container, reference) {
	t.Helper()
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
	return b, ref
}

// assertRunsOnDisk: the set lists exactly the run files in dir.
func assertRunsOnDisk(t *testing.T, rs *runSet, dir string) {
	t.Helper()
	var listed, onDisk []string
	for _, run := range rs.spills {
		listed = append(listed, filepath.Base(run.path))
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		onDisk = append(onDisk, e.Name())
	}
	slices.Sort(listed)
	if !slices.Equal(listed, onDisk) {
		t.Errorf("the set lists runs %q, the disk holds %q", listed, onDisk)
	}
}

// TestReplayChecksRunSize: a run file shorter or longer than the run's
// record fails the drain with an error that names it, before anything is
// mapped (a mapped read past the end of a file is a SIGBUS, not an error);
// the set still lists exactly the runs left on disk, and the release
// leaves nothing behind.
func TestReplayChecksRunSize(t *testing.T) {
	resize := map[string]func(path string, size int64) error{
		"truncated": func(path string, size int64) error { return os.Truncate(path, size/2) },
		"extended":  func(path string, size int64) error { return os.Truncate(path, size+1) },
	}
	for _, c := range containerCases {
		for how, change := range resize {
			t.Run(c.name+"/"+how, func(t *testing.T) {
				mem, dir := memory.NewManager(256, 0), t.TempDir()
				b, _ := spilledThrice(t, c, mem, dir)
				mid := b.runs.spills[1]
				if err := change(mid.path, mid.size); err != nil {
					t.Fatal(err)
				}
				if _, err := b.drain(); err == nil || !strings.Contains(err.Error(), mid.path) {
					t.Fatalf("drain with run %s %s returned %v", mid.path, how, err)
				}
				if len(b.runs.spills) != 2 || b.runs.spills[0] != mid {
					t.Errorf("after the failed drain the set lists %v, want %s and the one after it", b.runs.spills, mid.path)
				}
				assertRunsOnDisk(t, b.runs, dir)
				b.release()
				assertClean(t, mem, dir, c.name+" "+how)
			})
		}
	}
}

// TestReplayOfAnEmptyRun: a spill section may announce a run of zero bytes;
// it restores as an empty file and replays as an empty run, which a DecaAgg
// folds as no records — no mmap of length 0 is attempted.
func TestReplayOfAnEmptyRun(t *testing.T) {
	dir := t.TempDir()
	rs := runSet{dir: dir}
	if err := rs.restore(bytes.NewReader([]byte{1, 0})); err != nil || len(rs.spills) != 1 || rs.spills[0].size != 0 {
		t.Fatalf("restoring one empty run: %v, %v", err, rs.spills)
	}
	folds := 0
	if err := rs.replay(func(run []byte) error { folds += 1 + len(run); return nil }); err != nil || folds != 1 {
		t.Errorf("replaying an empty run: %v after %d folds of %d bytes", err, folds, folds-1)
	}
	rs.release()

	mem := memory.NewManager(256, 0)
	b, err := NewDecaAgg[int64, int64](mem, addI, i64, i64, dir)
	if err != nil {
		t.Fatal(err)
	}
	b.Put(7, 35)
	var frame bytes.Buffer
	if err := writeSegments(&frame, b.EncodeSegments); err != nil {
		t.Fatal(err)
	}
	b.Release()
	// The frame ends with its spill section, a run count of 0: announce one
	// run of 0 bytes instead.
	wire := append(bytes.TrimSuffix(frame.Bytes(), []byte{0}), 1, 0)
	dst, err := NewDecaAgg[int64, int64](mem, addI, i64, i64, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := foldFrame(dst, wire, mem, dir); err != nil {
		t.Fatal(err)
	}
	sums := map[int64]int64{}
	if err := dst.Drain(func(k, v int64) bool { sums[k] = v; return true }); err != nil || len(sums) != 1 || sums[7] != 35 {
		t.Errorf("drained %v (%v) off a frame with an empty run, want 7:35", sums, err)
	}
	dst.Release()
	assertClean(t, mem, dir, "after the empty run")
}

// TestNoMappingOutlivesItsReplay: a replay unmaps each run when its fold
// returns — after a drain that succeeds, after a fold that fails on a
// corrupt run — and a release with runs pending maps none; assertClean
// reads /proc/self/maps (Linux) for mappings of the spill dir's files.
func TestNoMappingOutlivesItsReplay(t *testing.T) {
	for _, c := range containerCases {
		t.Run(c.name, func(t *testing.T) {
			mem, dir := memory.NewManager(256, 0), t.TempDir()
			b, ref := spilledThrice(t, c, mem, dir)
			c.checkDrain(t, b, ref, "drain")
			b.release()
			assertClean(t, mem, dir, "after a drain")

			b, _ = spilledThrice(t, c, mem, dir)
			mid := b.runs.spills[1]
			if err := os.WriteFile(mid.path, bytes.Repeat([]byte{0xff}, int(mid.size)), 0o600); err != nil {
				t.Fatal(err)
			}
			if _, err := b.drain(); err == nil {
				t.Fatalf("drain over a run of 0xff bytes succeeded")
			}
			b.release()
			assertClean(t, mem, dir, "after a failed fold")

			b, _ = spilledThrice(t, c, mem, dir)
			b.release()
			assertClean(t, mem, dir, "after a release with runs pending")
		})
	}
}

// goldenObjectFrames pins the Object wire format and, inside it, the
// serialized spill-run format: frames written by the tree before the
// storage layers were factored out, one per kind, which EncodeSegments
// writes byte for byte and Stage + Fold receive. Each container
// holds a single key, so map iteration cannot reorder it, and
// every frame carries one spill run.
var goldenObjectFrames = map[string]string{
	"agg":   "02010705736576656e04010705736576656e50",
	"group": "0402050e03636363020e0001070e01610e026262",
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
	build := map[string]func() frameBuffer{
		"agg": func() frameBuffer {
			b := NewObjectAgg(addI, aggCfg)
			b.Put("seven", 40)
			mustSpill(b.Spill)
			b.Put("seven", 2)
			return b
		},
		"group": func() frameBuffer {
			b := NewObjectGroup(groupCfg)
			b.Put(7, "a")
			b.Put(7, "bb")
			mustSpill(b.Spill)
			b.Put(7, "ccc")
			b.Put(7, "")
			return b
		},
	}
	// What each golden frame holds, as a fresh buffer that folds it must
	// drain it.
	decode := map[string]func(frame []byte) (got, want any, err error){
		"agg": func(frame []byte) (any, any, error) {
			b := NewObjectAgg(addI, aggCfg)
			defer b.Release()
			got := map[string]int64{}
			err := foldFrame(b, frame, nil, dir)
			if err == nil {
				err = b.Drain(func(k string, v int64) bool { got[k] = v; return true })
			}
			return got, map[string]int64{"seven": 42}, err
		},
		"group": func(frame []byte) (any, any, error) {
			b := NewObjectGroup(groupCfg)
			defer b.Release()
			got := map[int64][]string{}
			err := foldFrame(b, frame, nil, dir)
			if err == nil {
				err = b.Drain(func(k int64, vs []string) bool { got[k] = vs; return true })
			}
			return got, map[int64][]string{7: {"ccc", "", "a", "bb"}}, err
		},
	}
	for name, want := range goldenObjectFrames {
		b := build[name]()
		var frame bytes.Buffer
		if err := writeSegments(&frame, b.EncodeSegments); err != nil {
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

// TestFigure7bPartialDecomposition walks the exact §4.3.3 scenario: a
// groupByKey shuffle buffer whose value lists cannot be decomposed while
// growing hands them to a cache block where the data *is* decomposed —
// written from the buffer's pages (WriteLists), no list rebuilt on the way;
// the shuffle buffer then dies and its space reclaims, while the cache
// serves reads from pages.
func TestFigure7bPartialDecomposition(t *testing.T) {
	mem := memory.NewManager(4096, 0)

	// Phase 1: the grouped shuffle buffer (primary container).
	buf := NewDecaGroup[int64, int64](mem, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
	edges := []struct{ src, dst int64 }{
		{1, 2}, {1, 3}, {2, 3}, {1, 4}, {3, 1}, {2, 4},
	}
	for _, e := range edges {
		buf.Put(e.src, e.dst)
	}

	// Phase boundary: each key's complete (now size-frozen) adjacency is
	// written into the cache's page group — the phased refinement grades
	// the list RuntimeFixed from here on, so decomposition is safe.
	adjCodec := decompose.PairCodec[int64, []int64]{
		KeyCodec:   decompose.Int64Codec{},
		ValueCodec: decompose.Int64SliceCodec{},
	}
	cacheGroup, count, err := buf.WriteLists(mem, adjCodec)
	if err != nil {
		t.Fatal(err)
	}
	blk := cache.NewDecaBlockFromGroup(mem, adjCodec, cacheGroup, count)

	// The shuffle buffer's lifetime ends; its pages reclaim wholesale.
	inUseBefore := mem.Counters()[obs.PageBytesInUse]
	buf.Release()
	if mem.Counters()[obs.PageBytesInUse] >= inUseBefore {
		t.Error("releasing the shuffle buffer did not reclaim pages")
	}

	// Phase 2: read adjacency from the decomposed cache.
	got := map[int64][]int64{}
	blk.Each(func(kv decompose.Pair[int64, []int64]) bool {
		got[kv.Key] = slices.Sorted(slices.Values(kv.Value))
		return true
	})
	want := map[int64][]int64{1: {2, 3, 4}, 2: {3, 4}, 3: {1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("adjacency after hand-off = %v, want %v", got, want)
	}

	blk.Drop()
	if mem.Counters()[obs.PageBytesInUse] != 0 {
		t.Errorf("pages leaked after cache drop: %d", mem.Counters()[obs.PageBytesInUse])
	}
}
