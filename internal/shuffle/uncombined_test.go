package shuffle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"deca/internal/memory"
	"deca/internal/serial"
	"deca/internal/transport"
)

// stoppable is an aggregation buffer as the combine-stop tests drive it,
// whatever its mode.
type stoppable[K comparable, V any] interface {
	Put(K, V)
	Len() int
	Spill() error
	Seal()
	StopCombining()
	EncodeSegments() (*transport.FrameSegments, error)
	Fold(*Staged) error
	FoldRuns() error
	Lookup(K) (V, bool)
	Drain(func(K, V) bool) error
	Release()
}

// stopCase builds one aggregation buffer kind over one key and value type.
type stopCase[K comparable, V any] struct {
	name string
	new  func(mem *memory.Manager, dir string) stoppable[K, V]
	key  func(i int) K
	val  func(i int) V
	same func(a, b V) bool
}

func decaAggOf[K comparable, V any](b *DecaAgg[K, V], err error) stoppable[K, V] {
	if err != nil {
		panic(err)
	}
	return b
}

func stopCases() (f64s []stopCase[int64, float64], strs []stopCase[string, int64]) {
	fkey := func(i int) int64 { return int64(i) }
	fval := func(i int) float64 { return float64(i%13) + 0.1 }
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	skey := func(i int) string { return fmt.Sprintf("word-%d", i) }
	sval := func(i int) int64 { return int64(i % 7) }
	same := func(a, b int64) bool { return a == b }
	f64s = []stopCase[int64, float64]{
		{"DecaAgg/int64-float64", func(mem *memory.Manager, dir string) stoppable[int64, float64] {
			return decaAggOf(NewDecaAgg[int64, float64](mem, addF, i64, f64, dir))
		}, fkey, fval, near},
		{"ObjectAgg/int64-float64", func(_ *memory.Manager, dir string) stoppable[int64, float64] {
			return NewObjectAgg(addF, f64Cfg(dir))
		}, fkey, fval, near},
	}
	strs = []stopCase[string, int64]{
		{"DecaAgg/string-int64", func(mem *memory.Manager, dir string) stoppable[string, int64] {
			return decaAggOf(NewDecaAgg[string, int64](mem, addI, str, i64, dir))
		}, skey, sval, same},
		{"ObjectAgg/string-int64", func(_ *memory.Manager, dir string) stoppable[string, int64] {
			return NewObjectAgg(addI, ObjectConfig[string, int64]{KeySer: serial.Str{}, ValSer: serial.Int64{}, SpillDir: dir})
		}, skey, sval, same},
	}
	return f64s, strs
}

// TestStoppedBufferFrameFolds: a buffer that stopped combining is read
// through its frame, and that frame is the proof. Over random key streams
// of low and high cardinality, stopped after 0, 1, 16 and 1,000 Puts, with
// and without a spill midway: the frame's count is the stopped buffer's
// live records, and Seal → EncodeSegments → Stage → Fold into a fresh
// buffer drains what the same route drains for a buffer that never
// stopped.
func TestStoppedBufferFrameFolds(t *testing.T) {
	f64s, strs := stopCases()
	for _, c := range f64s {
		stopFrameProperty(t, c)
	}
	for _, c := range strs {
		stopFrameProperty(t, c)
	}
}

func stopFrameProperty[K comparable, V any](t *testing.T, c stopCase[K, V]) {
	const puts = 3000
	for _, card := range []int{40, 1 << 20} {
		for _, stopAt := range []int{0, 1, 16, 1000} {
			for _, spill := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/keys=%d/stop=%d/spill=%v", c.name, card, stopAt, spill), func(t *testing.T) {
					mem, dir := memory.NewManager(4096, 0), t.TempDir()
					rng := rand.New(rand.NewSource(int64(card + stopAt)))
					stream := make([]int, puts)
					for i := range stream {
						stream[i] = rng.Intn(card)
					}
					// fill also returns the records the buffer must hold in
					// memory: the distinct keys Put before the stop, and every
					// Put after it, counting from the spill.
					fill := func(stop bool) (stoppable[K, V], int) {
						b := c.new(mem, dir)
						seen, appended, stopped := map[int]bool{}, 0, false
						for i, k := range stream {
							if stop && i == stopAt {
								b.StopCombining()
								stopped = true
							}
							b.Put(c.key(k), c.val(i))
							if stopped {
								appended++
							} else {
								seen[k] = true
							}
							if spill && i == puts/2 {
								if err := b.Spill(); err != nil {
									t.Fatal(err)
								}
								clear(seen)
								appended = 0
							}
						}
						b.Seal()
						return b, len(seen) + appended
					}
					want := foldDrained(t, c, mem, dir)(fill(false))
					got := foldDrained(t, c, mem, dir)(fill(true))
					if len(got) != len(want) {
						t.Fatalf("the stopped buffer's frame drains %d keys, the combining one's %d", len(got), len(want))
					}
					for k, w := range want {
						if g, ok := got[k]; !ok || !c.same(g, w) {
							t.Fatalf("key %v: the stopped buffer's frame drains %v (present %v), the combining one's %v", k, g, ok, w)
						}
					}
					assertClean(t, mem, dir, c.name)
				})
			}
		}
	}
}

// foldDrained ships b across the wire into a fresh buffer of its kind and
// drains that, after checking that b and its frame count the n records b
// must hold in memory.
func foldDrained[K comparable, V any](t *testing.T, c stopCase[K, V], mem *memory.Manager, dir string) func(b stoppable[K, V], n int) map[K]V {
	return func(b stoppable[K, V], n int) map[K]V {
		t.Helper()
		if got := b.Len(); got != n {
			t.Fatalf("the buffer counts %d records in memory, want %d", got, n)
		}
		st, err := Stage(bytes.NewReader(encodeFrame(t, b)), mem, dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.n != n {
			t.Fatalf("the frame counts %d records, want %d", st.n, n)
		}
		dst := c.new(mem, dir)
		defer dst.Release()
		if err := dst.Fold(st); err != nil {
			t.Fatal(err)
		}
		out := map[K]V{}
		if err := dst.Drain(func(k K, v V) bool {
			if _, dup := out[k]; dup {
				t.Fatalf("the fold drained key %v twice", k)
			}
			out[k] = v
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
}

// TestStoppedBufferRefusesReads: what reads through the index or folds into
// it panics on a buffer that stopped combining, naming the method; what
// fills, counts and frames it does not.
func TestStoppedBufferRefusesReads(t *testing.T) {
	_, strs := stopCases()
	for _, c := range strs {
		t.Run(c.name, func(t *testing.T) {
			mem, dir := memory.NewManager(4096, 0), t.TempDir()
			b := c.new(mem, dir)
			defer b.Release()
			b.Put("a", 1)
			b.StopCombining()
			b.StopCombining() // idempotent
			b.Put("a", 2)
			if err := b.Spill(); err != nil {
				t.Fatal(err)
			}
			b.Put("a", 3)
			if b.Len() != 1 {
				t.Fatalf("Len = %d after a spill and one Put, want 1", b.Len())
			}
			frame := func() *Staged {
				src := c.new(mem, dir)
				src.Put("b", 1)
				st, err := Stage(bytes.NewReader(encodeFrame(t, src)), mem, dir)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			reads := map[string]func(){
				"Drain":    func() { _ = b.Drain(func(string, int64) bool { return true }) },
				"Lookup":   func() { b.Lookup("a") },
				"FoldRuns": func() { _ = b.FoldRuns() },
				"Fold":     func() { _ = b.Fold(frame()) },
			}
			if d, ok := b.(*DecaAgg[string, int64]); ok {
				reads["MergeFrom"] = func() {
					src, _ := NewDecaAgg[string, int64](mem, addI, str, i64, dir)
					defer src.Release()
					_ = d.MergeFrom(src)
				}
			}
			for method, read := range reads {
				func() {
					defer func() {
						msg := fmt.Sprint(recover())
						if !strings.Contains(msg, method+" ") || !strings.Contains(msg, "stopped combining") {
							t.Errorf("%s on a stopped buffer: recovered %q, want a panic naming the method", method, msg)
						}
					}()
					read()
				}()
			}
		})
	}
}

// TestStoppedFrameCountIsChecked: an uncombined frame repeats keys, and its
// header counts its live records; a header that disagrees with them still
// fails absorbPages' check, one record over or under.
func TestStoppedFrameCountIsChecked(t *testing.T) {
	mem, dir := memory.NewManager(4096, 0), t.TempDir()
	b := decaAggOf(NewDecaAgg[string, int64](mem, addI, str, i64, dir))
	b.StopCombining()
	for i := 0; i < 200; i++ {
		b.Put(fmt.Sprintf("k%d", i%10), 1)
	}
	b.Seal()
	frame := encodeFrame(t, b)
	n, w := binary.Uvarint(frame[1:])
	if n != 200 {
		t.Fatalf("the frame counts %d records, want 200", n)
	}
	for _, hd := range []uint64{n - 1, n, n + 1} {
		f := append(binary.AppendUvarint([]byte{frame[0]}, hd), frame[1+w:]...)
		st, err := Stage(bytes.NewReader(f), mem, dir)
		if err != nil {
			t.Fatal(err)
		}
		dst := decaAggOf(NewDecaAgg[string, int64](mem, addI, str, i64, dir))
		err = dst.Fold(st)
		sums := map[string]int64{}
		if err == nil {
			err = dst.Drain(func(k string, v int64) bool { sums[k] = v; return true })
		}
		dst.Release()
		switch {
		case hd == n && (err != nil || len(sums) != 10 || sums["k3"] != 20):
			t.Errorf("the true header: fold err %v, %d keys, k3 = %d; want 10 keys of 20", err, len(sums), sums["k3"])
		case hd != n && (err == nil || !strings.Contains(err.Error(), "header says")):
			t.Errorf("a header of %d over 200 live records: fold err %v, want the count check's", hd, err)
		}
	}
	assertClean(t, mem, dir, "DecaAgg")
}
