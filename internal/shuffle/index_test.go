package shuffle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"deca/internal/memory"
)

// meanProbes is the average number of slots a lookup of a present key
// visits: 1 for a key in its home slot, more the further linear probing
// displaced it.
func (ix *aggIndex) meanProbes() float64 {
	total := 0
	for _, seg := range ix.dir {
		for i, s := range seg.slots {
			if s.tag != 0 { // its home and its slot share a segment: the distance is theirs inside it
				total += 1 + (i-int(s.tag>>ix.shift))&ix.mask
			}
		}
	}
	return float64(total) / float64(ix.n)
}

// TestAggIndexPointerFree: the collector skips the index only while its
// slot type holds no pointer of any kind.
func TestAggIndexPointerFree(t *testing.T) {
	var check func(ty reflect.Type, path string)
	check = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				check(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			check(ty.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: the index table would be scanned", path, ty.Kind())
		}
	}
	check(reflect.TypeOf(aggSlot{}), "aggSlot")
	if aggSlotSize > 16 {
		t.Errorf("aggSlot is %d bytes, want ≤ 16", aggSlotSize)
	}
}

// TestAggIndexDecorrelatedFromPartitioner: a reducer's buffer holds only
// keys that agree on Key.Hash(k) mod R. Were the table to probe from those
// same bits, its fill would cluster (measured: 2.8× slower than the Go map
// it replaced); with an independent hash the single-partition fill probes
// like a uniform one: at the load tested, 48 000 keys in 65 536 slots,
// linear probing predicts (1 + 1/(1-0.73))/2 = 2.4 slots per hit.
func TestAggIndexDecorrelatedFromPartitioner(t *testing.T) {
	const R, perPart, maxMeanProbes = 4, 48_000, 3.0
	for r := 0; r < R; r++ {
		mem := memory.NewManager(1<<16, 0)
		sb, err := NewDecaAgg[string, int64](mem, addI, str, i64, "")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; sb.Len() < perPart; i++ {
			if k := fmt.Sprintf("w%07d", i); Partition(StringKey().Hash(k), R) == r {
				sb.Put(k, 1)
			}
		}
		ib, err := NewDecaAgg[int64, int64](mem, addI, i64, i64, "")
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); ib.Len() < perPart; k++ {
			if Partition(Int64Key().Hash(k), R) == r {
				ib.Put(k, 1)
			}
		}
		for name, ix := range map[string]*aggIndex{"string": &sb.idx, "int64": &ib.idx} {
			if got := ix.meanProbes(); got > maxMeanProbes {
				t.Errorf("%s keys of partition %d/%d: mean probe length %.2f over %d slots, want ≤ %.1f",
					name, r, R, got, ix.size(), maxMeanProbes)
			}
		}
		sb.Release()
		ib.Release()
	}
}

// TestDecaAggFramesRepeat: records lie in the pages in insertion order and
// the frame is those pages, so two identical fills — spill included —
// encode byte-identical frames.
func TestDecaAggFramesRepeat(t *testing.T) {
	dir := t.TempDir()
	build := func() []byte {
		b, err := NewDecaAgg[string, int64](memory.NewManager(4096, 0), addI, str, i64, dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			b.Put(fmt.Sprintf("k%d", i*7919%1013), int64(i))
			if i == 2000 {
				if err := b.Spill(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return encodeFrame(t, b)
	}
	if a, b := build(), build(); !bytes.Equal(a, b) {
		t.Errorf("two identical fills encoded different frames (%d and %d bytes)", len(a), len(b))
	}
}

// indexModel drives an aggIndex the way keyedStore does — records in a page
// group, slots pointing at them — beside a Go map of what it must hold: for
// every key the tag it went in under and the sequence number in its record.
type indexModel struct {
	t    *testing.T
	mem  *memory.Manager
	g    *memory.Group
	ix   aggIndex
	want map[string][2]uint32 // tag, seq
	seq  uint32
}

func newIndexModel(t *testing.T) *indexModel {
	mem := memory.NewManager(64, 0)
	return &indexModel{t: t, mem: mem, g: mem.NewGroup(), ix: aggIndex{mem: mem}, want: map[string][2]uint32{}}
}

func modelKey(i int) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(i)) }

// put is an upsert of key under tag: found iff the model has it, and then
// with the model's record.
func (m *indexModel) put(tag uint32, key []byte) (at int) {
	m.t.Helper()
	val, at, found := m.ix.find(m.g, tag, key, 4)
	had, ok := m.want[string(key)]
	switch {
	case found != ok:
		m.t.Fatalf("find(%x): found=%v, the model says %v (%d keys, %d slots)", key, found, ok, m.ix.n, m.ix.size())
	case found && (binary.LittleEndian.Uint32(val) != had[1] || had[0] != tag):
		m.t.Fatalf("find(%x) stopped at record %d, want %d", key, binary.LittleEndian.Uint32(val), had[1])
	case found:
		return at
	}
	m.seq++
	rec, ptr := m.g.Alloc(1 + len(key) + 4)
	rec[0] = byte(len(key) << 1)
	copy(rec[1:], key)
	binary.LittleEndian.PutUint32(rec[1+len(key):], m.seq)
	m.ix.insert(at, tag, ptr)
	m.want[string(key)] = [2]uint32{tag, m.seq}
	_, at, _ = m.ix.find(m.g, tag, key, 4) // insert may have resized
	return at
}

// fill puts fresh hashed keys until the index holds n.
func (m *indexModel) fill(n int) {
	m.t.Helper()
	for i := int(m.seq); m.ix.n < n; i++ {
		m.put(hashKey(modelKey(i)), modelKey(i))
	}
}

// check finds every key of the model, misses a few it does not hold, and
// holds the manager's ledger to the pages plus the table.
func (m *indexModel) check(what string) {
	m.t.Helper()
	if m.ix.n != len(m.want) {
		m.t.Fatalf("%s: index counts %d keys, the model %d", what, m.ix.n, len(m.want))
	}
	for k, e := range m.want {
		if val, _, found := m.ix.find(m.g, e[0], []byte(k), 4); !found || binary.LittleEndian.Uint32(val) != e[1] {
			m.t.Fatalf("%s: key %x (tag %#x, record %d) found=%v", what, k, e[0], e[1], found)
		}
	}
	for i := -1; i > -50; i-- {
		if _, _, found := m.ix.find(m.g, hashKey(modelKey(i)), modelKey(i), 4); found {
			m.t.Fatalf("%s: found a key never inserted", what)
		}
	}
	if st := m.mem.Stats(); st.BytesInUse != m.g.Footprint()+int64(m.ix.size())*aggSlotSize || m.ix.footprint() != int64(m.ix.size())*aggSlotSize {
		m.t.Fatalf("%s: %d bytes in use, want %d of pages + a table of %d slots", what, st.BytesInUse, m.g.Footprint(), m.ix.size())
	}
}

// segments is where the table's slabs lie.
func (ix *aggIndex) segments() (at []*aggSlot) {
	for _, seg := range ix.dir {
		at = append(at, unsafe.SliceData(seg.slots))
	}
	return at
}

// end returns what the model took and holds the ledger to zero.
func (m *indexModel) end() {
	m.t.Helper()
	m.ix.release()
	m.ix.release()
	if st := m.mem.Stats(); st.BytesInUse != m.g.Footprint() || len(m.ix.dir) != 0 {
		m.t.Fatalf("after release: %+v beside %d bytes of pages, %d segments", st, m.g.Footprint(), len(m.ix.dir))
	}
	m.g.Release()
	if st := m.mem.Stats(); st.BytesInUse != 0 || st.LiveGroups != 0 {
		m.t.Fatalf("after release: %+v", st)
	}
}

// TestAggIndexSegmentBoundaries walks the index over the edges segSlots
// puts in it, against the model: a table of exactly one segment, the first
// split, a probe run that wraps a segment's end — and a split under it —,
// a reserve over several doublings (past the directory the index holds
// itself), and a reset refilled on the same segments.
func TestAggIndexSegmentBoundaries(t *testing.T) {
	m := newIndexModel(t)
	if _, _, found := m.ix.find(m.g, 1, nil, 0); found || m.ix.size() != 0 {
		t.Fatal("an empty index found a key")
	}
	m.ix.touch(m.g, []uint32{1, 3})
	m.fill(segSlots * 3 / 4)
	if len(m.ix.dir) != 1 || m.ix.size() != segSlots {
		t.Fatalf("%d keys in %d segments of %d slots, want one full segment", m.ix.n, len(m.ix.dir), m.ix.size())
	}
	m.check("one segment")
	fresh := m.mem.Stats().PagesAllocated
	m.fill(m.ix.n + 1)
	if len(m.ix.dir) != 2 || m.ix.size() != 2*segSlots {
		t.Fatalf("%d keys in %d segments of %d slots, want the first split", m.ix.n, len(m.ix.dir), m.ix.size())
	}
	if got := m.mem.Stats().PagesAllocated - fresh; got > 3 { // two segments and the record's page
		t.Errorf("the first split took %d blocks", got)
	}
	m.check("first split")

	// Eight keys homed in the last slot of segment 0 (their tags' top 16
	// bits say slot 0x7fff of the table): the run wraps to the segment's
	// first slots, not into segment 1.
	wrapped := 0
	for i := 0; i < 8; i++ {
		at := m.put(0x7fff_0000|uint32(2*i+1), modelKey(-1000-i))
		if at>>segBits != 0 {
			t.Fatalf("a key homed in segment 0 lies in slot %d of segment %d", at&m.ix.mask, at>>segBits)
		}
		if at&m.ix.mask < segSlots/2 {
			wrapped++
		}
	}
	if wrapped == 0 {
		t.Fatal("no probe run wrapped the segment's end")
	}
	m.check("wrapped run")
	m.ix.reserve(m.ix.size()) // one doubling: every segment splits, the wrapped run's too
	if len(m.ix.dir) != 4 {
		t.Fatalf("%d segments after a doubling of 2", len(m.ix.dir))
	}
	m.check("split under a wrapped run")
	m.ix.touch(m.g, []uint32{0x7fff_0001, 0xffff_ffff, 1})

	m.ix.reserve(16 * segSlots * 3 / 4) // 4 → 16 segments: each splits in four, the directory leaves the struct
	if len(m.ix.dir) != 16 || len(m.ix.dir) <= inlineSegs {
		t.Fatalf("%d segments after reserving for %d keys, want 16", len(m.ix.dir), 16*segSlots*3/4)
	}
	m.check("reserve over two doublings")

	table, n := m.ix.segments(), m.ix.n
	m.ix.reset()
	m.g.Reset()
	clear(m.want)
	m.check("reset")
	m.fill(n)
	if !slices.Equal(m.ix.segments(), table) {
		t.Error("the refill after a reset runs on other segments")
	}
	m.check("refill")
	m.end()

	// From 16 slots straight to four segments.
	m = newIndexModel(t)
	m.fill(10)
	m.ix.reserve(4 * segSlots * 3 / 4)
	if len(m.ix.dir) != 4 || m.ix.size() != 4*segSlots {
		t.Fatalf("%d segments, %d slots after reserving from a 16-slot table", len(m.ix.dir), m.ix.size())
	}
	m.check("reserve from a small table")
	m.end()
}

// TestAggIndexMatchesMapModel: random finds, inserts, reserves, resets and
// releases against the model, on tags that keep only a few of their bits
// random so that runs are long and segments uneven.
func TestAggIndexMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newIndexModel(t)
		keys := 0
		for step := 0; step < 150_000; step++ {
			switch op := rng.Intn(100_000); {
			case op < 70_000: // a new key, now and then one of the last few again
				k := max(keys-max(rng.Intn(32)-28, 0), 0)
				if k == keys {
					keys++
				}
				tag := hashKey(modelKey(k))
				if seed%2 == 0 {
					tag |= 0x00ff_ff00 // homes crowd into 256 slots of the table
				}
				m.put(tag, modelKey(k))
			case op < 99_927:
				if k := rng.Intn(keys + 1); k < keys {
					m.put(m.want[string(modelKey(k))][0], modelKey(k))
				}
			case op < 99_997:
				m.ix.reserve(rng.Intn(3*m.ix.n + 64)) // up to two doublings ahead
			case op < 99_999:
				m.ix.reset()
				m.g.Reset()
				clear(m.want)
				keys = 0
			default:
				m.ix.release()
				m.g.Reset()
				clear(m.want)
				keys = 0
			}
			if step%25_000 == 0 {
				m.check(fmt.Sprintf("seed %d step %d", seed, step))
			}
		}
		m.check(fmt.Sprintf("seed %d", seed))
		t.Logf("seed %d: ended on %d keys in %d segments", seed, m.ix.n, len(m.ix.dir))
		m.end()
	}
}
