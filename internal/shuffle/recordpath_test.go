package shuffle

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"deca/internal/memory"
)

// TestPartitionIsHashModN: the mask a power-of-two partition count takes
// is the same number as the division every other count takes.
func TestPartitionIsHashModN(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for range 20000 {
		hash, n := r.Uint32(), 1+r.Intn(70)
		if r.Intn(2) == 0 {
			n = 1 << r.Intn(31)
		}
		if got, want := Partition(hash, n), int(hash%uint32(n)); got != want {
			t.Fatalf("Partition(%#x, %d) = %d, want %d", hash, n, got, want)
		}
	}
}

// TestSameKeyIsBytesEqual: keys of every length from 0 to 40, equal and
// differing in one byte anywhere, compare as bytes.Equal compares them.
func TestSameKeyIsBytesEqual(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for n := range 41 {
		for range 200 {
			a := make([]byte, n)
			r.Read(a)
			b := bytes.Clone(a)
			if n > 0 && r.Intn(4) != 0 {
				b[r.Intn(n)] ^= byte(1 + r.Intn(255))
			}
			if got, want := sameKey(a, b), bytes.Equal(a, b); got != want {
				t.Fatalf("sameKey(%x, %x) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestRecordHeadersOfLongKeys: a key under 64 bytes has a one-byte record
// header, read inline; one of 64 or more a longer varint. Both walk, find
// and drain back to the keys put.
func TestRecordHeadersOfLongKeys(t *testing.T) {
	mem := memory.NewManager(4096, 0)
	defer mem.Close()
	b, err := NewDecaAgg[string, int64](mem, addI, str, i64, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	want := map[string]int64{}
	for i, n := range []int{62, 63, 64, 65, 127, 128, 300} {
		k := strings.Repeat(string(rune('a'+i)), n)
		b.Put(k, int64(n))
		b.Put(k, 1)
		want[k] = int64(n) + 1
	}
	b.flush()
	it := b.records(0)
	walked := 0
	for it.next() {
		if k, _ := str.Decode(it.key); want[k] == 0 {
			t.Fatalf("walk read a key of %d bytes that was never put", len(k))
		}
		walked++
	}
	if it.err != nil || walked != len(want) {
		t.Fatalf("walk read %d records (err %v), want %d", walked, it.err, len(want))
	}
	for k, v := range want {
		if got, ok := b.Lookup(k); !ok || got != v {
			t.Errorf("Lookup of a %d-byte key = %d, %v; want %d", len(k), got, ok, v)
		}
	}
	got := map[string]int64{}
	if err := b.Drain(func(k string, v int64) bool { got[k] = v; return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("drained %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("drained %d for a %d-byte key, want %d", got[k], len(k), v)
		}
	}
}
