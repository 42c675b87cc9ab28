package shuffle

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"deca/internal/memory"
)

// meanProbes is the average number of slots a lookup of a present key
// visits: 1 for a key in its home slot, more the further linear probing
// displaced it.
func (ix *aggIndex) meanProbes() float64 {
	mask := len(ix.slots) - 1
	total := 0
	for i, s := range ix.slots {
		if s.tag != 0 {
			total += 1 + (i-int(s.tag>>ix.shift))&mask
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
					name, r, R, got, len(ix.slots), maxMeanProbes)
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
