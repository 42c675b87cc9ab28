package shuffle

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"deca/internal/cache"
	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/serial"
)

// groupModel is the slice-of-slices reference of a grouping buffer's
// ordering rule: per key, the in-memory values in arrival order — a folded
// or merged source's in-memory values arriving, in its own order, when it
// is folded — and after them the spill runs in the order the buffer wrote
// or took them over.
type groupModel[K comparable, V any] struct {
	keys []K // in first-arrival order, for a stable walk
	mem  map[K][]V
	runs []map[K][]V
}

func newGroupModel[K comparable, V any]() *groupModel[K, V] {
	return &groupModel[K, V]{mem: map[K][]V{}}
}

func (m *groupModel[K, V]) put(k K, v V) {
	if _, ok := m.mem[k]; !ok {
		m.keys = append(m.keys, k)
	}
	m.mem[k] = append(m.mem[k], v)
}

func (m *groupModel[K, V]) spill() {
	if len(m.mem) > 0 {
		m.runs, m.mem, m.keys = append(m.runs, m.mem), map[K][]V{}, nil
	}
}

func (m *groupModel[K, V]) merge(src *groupModel[K, V]) {
	for _, k := range src.keys {
		for _, v := range src.mem[k] {
			m.put(k, v)
		}
	}
	m.runs = append(m.runs, src.runs...)
}

func (m *groupModel[K, V]) drained() map[K][]V {
	out := map[K][]V{}
	for k, vs := range m.mem {
		out[k] = slices.Clone(vs)
	}
	for _, run := range m.runs {
		for k, vs := range run {
			out[k] = append(out[k], vs...)
		}
	}
	return out
}

// groupTriple is one buffer three ways: the DecaGroup under test, the
// ObjectGroup driven through the same calls, and the model.
type groupTriple[K comparable, V any] struct {
	deca  *DecaGroup[K, V]
	obj   *ObjectGroup[K, V]
	model *groupModel[K, V]
}

func (g groupTriple[K, V]) release() {
	g.deca.Release()
	g.obj.Release()
}

// TestDecaGroupMatchesOrderModel: over seeded random interleavings of Put
// (in runs that end on every edge of the probe batch), Spill, Len, Values,
// EncodeWire → Stage → Fold (in map order), MergeFrom and a Release with
// entries pending, a DecaGroup on 32-byte pages — chains cross pages at
// almost every link, and a flush rolls pages over in mid-batch — drains the
// same keys and, per key, the same value sequence as the model, and the
// same multiset as the ObjectGroup; and so does what a second buffer
// decodes from the drained buffer's frame (dead records and all). Where the
// values are int64s, the buffer's hand-off to a cache block (WriteLists,
// run first: it replays the runs a drain would) writes the pages
// cache.BuildDecaBlock writes from what the drain yields, byte for byte.
func TestDecaGroupMatchesOrderModel(t *testing.T) {
	strs := groupValues[string]{decompose.StringCodec{}, serial.Str{}, func(seq int, r *rand.Rand) string {
		return fmt.Sprintf("%d:%s", seq, "xxxxxxxxxxxxxxxxxxxxxxxx"[:r.Intn(24)]) // up to 30 bytes: some take an oversized page
	}, nil}
	t.Run("int64 keys", func(t *testing.T) {
		groupOrderProperty(t, decompose.Int64Codec{}, serial.Int64{}, func(i int) int64 { return int64(i) * 1_000_003 }, strs)
	})
	t.Run("string keys", func(t *testing.T) {
		groupOrderProperty(t, decompose.StringCodec{}, serial.Str{}, func(i int) string {
			return fmt.Sprintf("%0*d", 1+i%7*11, i) // 1 to 67 bytes: one- and two-byte record headers
		}, strs)
	})
	t.Run("int64 lists", func(t *testing.T) {
		groupOrderProperty(t, decompose.Int64Codec{}, serial.Int64{}, func(i int) int64 { return int64(i) * 1_000_003 },
			groupValues[int64]{decompose.Int64Codec{}, serial.Int64{}, func(seq int, _ *rand.Rand) int64 { return int64(seq) }, decompose.Int64SliceCodec{}})
	})
}

// groupValues is the value side of a property run: codec, serializer, the
// seq-th value, and the list codec of a block the buffer hands its lists
// to (nil: no hand-off).
type groupValues[V any] struct {
	codec decompose.Codec[V]
	ser   serial.Serializer[V]
	val   func(seq int, r *rand.Rand) V
	list  decompose.Codec[[]V]
}

func groupOrderProperty[K comparable, V cmp.Ordered](t *testing.T, keyCodec decompose.Codec[K], keySer serial.Serializer[K], key func(int) K, vals groupValues[V]) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		mem := memory.NewManager(32, 0)
		dir := t.TempDir()
		cfg := ObjectConfig[K, V]{KeySer: keySer, ValSer: vals.ser, SpillDir: dir}
		seq := 0
		fresh := func() groupTriple[K, V] {
			return groupTriple[K, V]{NewDecaGroup[K, V](mem, keyCodec, vals.codec, dir), NewObjectGroup(cfg), newGroupModel[K, V]()}
		}
		// fill drives n random Puts into g, a Spill now and then.
		fill := func(g groupTriple[K, V], n int) {
			for i := 0; i < n; i++ {
				k, v := key(r.Intn(12)), vals.val(seq, r)
				seq++
				g.deca.Put(k, v)
				g.obj.Put(k, v)
				g.model.put(k, v)
				if r.Intn(25) == 0 {
					if err := g.deca.Spill(); err != nil {
						t.Fatal(err)
					}
					if err := g.obj.Spill(); err != nil {
						t.Fatal(err)
					}
					g.model.spill()
				}
			}
		}
		size := func() int {
			if r.Intn(2) == 0 {
				return batchSizes[r.Intn(len(batchSizes))]
			}
			return r.Intn(40)
		}
		dst := fresh()
		for step := 0; step < 12; step++ {
			switch op := r.Intn(4); op {
			case 0:
				fill(dst, size())
			case 3: // a lifetime that ends with entries pending, and a look at one that has some
				gone, before := fresh(), seq
				fill(gone, size())
				gone.release()
				seq = before // seq is also the count of values that reach dst
				values := 0
				for _, vs := range dst.model.mem {
					values += len(vs)
				}
				if dst.deca.Len() != len(dst.model.mem) || dst.deca.Values() != values {
					t.Fatalf("seed %d step %d: %d keys, %d values in memory; the model holds %d, %d", seed, step, dst.deca.Len(), dst.deca.Values(), len(dst.model.mem), values)
				}
			default:
				src := fresh()
				fill(src, size())
				if op == 1 {
					if err := dst.deca.MergeFrom(src.deca); err != nil {
						t.Fatal(err)
					}
				} else {
					st := stageFrom(t, src.deca, func(rd WireReader) (*Staged, error) { return Stage(rd, mem, dir) })
					if err := dst.deca.Fold(st); err != nil {
						t.Fatal(err)
					}
				}
				// The object path's merge is drain and re-Put, run by run.
				if err := src.obj.Drain(func(k K, vs []V) bool {
					for _, v := range vs {
						dst.obj.Put(k, v)
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				dst.model.merge(src.model)
				src.release()
			}
		}

		codec := decompose.PairCodec[K, []V]{KeyCodec: keyCodec, ValueCodec: vals.list}
		var handed *cache.DecaBlock[decompose.Pair[K, []V]]
		if vals.list != nil {
			g, n, err := dst.deca.WriteLists(mem, codec)
			if err != nil {
				t.Fatalf("seed %d: WriteLists: %v", seed, err)
			}
			handed = cache.NewDecaBlockFromGroup(mem, codec, g, n)
		}
		want := dst.model.drained()
		drain := func(b interface {
			Drain(func(K, []V) bool) error
		}) map[K][]V {
			got := map[K][]V{}
			if err := b.Drain(func(k K, vs []V) bool {
				if _, dup := got[k]; dup {
					t.Errorf("seed %d: key %v drained twice", seed, k)
				}
				got[k] = vs
				return true
			}); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return got
		}
		got := drain(dst.deca)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: DecaGroup drained\n%v\nthe ordering rule says\n%v", seed, got, want)
		}
		if dst.deca.Len() != len(want) || dst.deca.Values() != seq {
			t.Errorf("seed %d: %d keys, %d values in memory after the drain; want %d, %d", seed, dst.deca.Len(), dst.deca.Values(), len(want), seq)
		}
		if handed != nil {
			drained := cache.BuildDecaBlock(mem, codec, func(yield func(decompose.Pair[K, []V]) bool) {
				if err := dst.deca.Drain(func(k K, vs []V) bool { return yield(decompose.Pair[K, []V]{Key: k, Value: vs}) }); err != nil {
					t.Fatal(err)
				}
			})
			if err := samePages(handed, drained); err != nil {
				t.Errorf("seed %d: the hand-off's block is not the drain's: %v", seed, err)
			}
			handed.Drop()
			drained.Drop()
		}
		sorted := func(m map[K][]V) map[K][]V {
			for _, vs := range m {
				slices.Sort(vs)
			}
			return m
		}
		var frame bytes.Buffer
		if err := dst.deca.EncodeWire(&frame); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeDecaGroup[K, V](bytes.NewReader(frame.Bytes()), mem, keyCodec, vals.codec, dir)
		if err != nil {
			t.Fatalf("seed %d: decoding the drained buffer's frame: %v", seed, err)
		}
		if got := drain(again); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: the drained buffer's frame decodes to\n%v\nwant\n%v", seed, got, want)
		}
		again.Release()
		if obj := sorted(drain(dst.obj)); !reflect.DeepEqual(obj, sorted(want)) {
			t.Errorf("seed %d: ObjectGroup holds another multiset than the model", seed)
		}
		dst.release()
		assertClean(t, mem, dir, fmt.Sprintf("seed %d", seed))
		if memory.ReserveBytes() == 0 {
			t.Errorf("seed %d: the reserve parks nothing after every container was released", seed)
		}
	}
}

// samePages reports how two Deca blocks differ: in count, in page count or
// in the bytes of a page.
func samePages[T any](a, b *cache.DecaBlock[T]) error {
	ga, gb := a.Group(), b.Group()
	if a.Count() != b.Count() || ga.NumPages() != gb.NumPages() {
		return fmt.Errorf("%d records in %d pages against %d in %d", a.Count(), ga.NumPages(), b.Count(), gb.NumPages())
	}
	for i := range ga.NumPages() {
		if !bytes.Equal(ga.Page(i), gb.Page(i)) {
			return fmt.Errorf("page %d differs: %x against %x", i, ga.Page(i), gb.Page(i))
		}
	}
	return nil
}
