package shuffle

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"deca/internal/memory"
	"deca/internal/obs"
)

// The probe pipeline (DESIGN.md, "Probe pipeline") must be invisible: a
// container answers every call as if each Put had probed on the spot, and
// what it writes — pages, frames, spill runs — is the same bytes.

// batchSizes are the fills that leave the pending batch at its edges:
// empty, one entry, one short of full, full, and one past a flush.
var batchSizes = []int{0, 1, probeBatch - 1, probeBatch, probeBatch + 1}

// aggModel is the Go-map reference of a DecaAgg summing int64s: the keys in
// memory, and what the spill runs hold (in one map: addition commutes).
type aggModel struct{ mem, runs map[string]int64 }

func newAggModel() *aggModel { return &aggModel{map[string]int64{}, map[string]int64{}} }

func (m *aggModel) add(into map[string]int64, from map[string]int64) {
	for k, v := range from {
		into[k] += v
	}
}

func (m *aggModel) spill() {
	m.add(m.runs, m.mem)
	m.mem = map[string]int64{}
}

func (m *aggModel) drain() map[string]int64 {
	m.add(m.mem, m.runs)
	m.runs = map[string]int64{}
	return m.mem
}

func (m *aggModel) merge(src *aggModel) {
	m.add(m.mem, src.mem)
	m.add(m.runs, src.runs)
}

// TestDecaAggMatchesMapModel: over seeded random interleavings of Put (in
// runs that end on every edge of the batch), Len, Spill, Drain, EncodeWire,
// MergeFrom, Stage → Fold and Release, a DecaAgg on 64-byte pages — a flush
// rolls over a page, and resizes the table, in mid-batch — holds what the
// model holds, and the manager's ledger is zero once all are released.
func TestDecaAggMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		mem, dir := memory.NewManager(64, 0), t.TempDir()
		type pair struct {
			deca  *DecaAgg[string, int64]
			model *aggModel
		}
		fresh := func() pair {
			b, err := NewDecaAgg[string, int64](mem, addI, str, i64, dir)
			if err != nil {
				t.Fatal(err)
			}
			return pair{b, newAggModel()}
		}
		fill := func(p pair) {
			n := r.Intn(3 * probeBatch)
			if r.Intn(2) == 0 {
				n = batchSizes[r.Intn(len(batchSizes))]
			}
			for i := 0; i < n; i++ {
				k, v := fmt.Sprintf("%0*d", 1+r.Intn(3)*30, r.Intn(60)), int64(r.Intn(100)) // 1 to 61 bytes
				p.deca.Put(k, v)
				p.model.mem[k] += v
			}
		}
		check := func(p pair, what string) {
			t.Helper()
			if got := drainAggToMap[string, int64](t, p.deca); !maps.Equal(got, p.model.drain()) {
				t.Fatalf("seed %d: %s drains\n%v\nthe model\n%v", seed, what, got, p.model.mem)
			}
		}
		dst := fresh()
		for step := 0; step < 30; step++ {
			fill(dst)
			switch r.Intn(7) {
			case 0:
				if got, want := dst.deca.Len(), len(dst.model.mem); got != want {
					t.Fatalf("seed %d step %d: Len %d, the model holds %d keys in memory", seed, step, got, want)
				}
			case 1:
				if err := dst.deca.Spill(); err != nil {
					t.Fatal(err)
				}
				dst.model.spill()
			case 2:
				check(dst, "the buffer")
			case 3: // a frame taken with entries pending holds them
				var frame bytes.Buffer
				if err := dst.deca.EncodeWire(&frame); err != nil {
					t.Fatal(err)
				}
				again, err := DecodeDecaAgg[string, int64](bytes.NewReader(frame.Bytes()), mem, addI, str, i64, dir)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				copied := &aggModel{maps.Clone(dst.model.mem), maps.Clone(dst.model.runs)}
				check(pair{again, copied}, "the buffer's frame")
				again.Release()
			case 4, 5: // both sides of a merge may have entries pending
				src := fresh()
				fill(src)
				if r.Intn(2) == 0 {
					if err := src.deca.Spill(); err != nil {
						t.Fatal(err)
					}
					src.model.spill()
					fill(src)
				}
				var err error
				if r.Intn(2) == 0 {
					err = dst.deca.MergeFrom(src.deca)
				} else {
					err = dst.deca.Fold(stageFrom(t, src.deca, func(rd WireReader) (*Staged, error) { return Stage(rd, mem, dir) }))
				}
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				dst.model.merge(src.model)
				src.deca.Release()
			case 6: // a lifetime that ends with entries pending
				gone := fresh()
				fill(gone)
				gone.deca.Release()
			}
		}
		check(dst, "the buffer at the end")
		dst.deca.Release()
		assertClean(t, mem, dir, fmt.Sprintf("seed %d", seed))
	}
}

// TestFlushEdges: what a flush must get right inside one batch — a new key
// put twice before either Put has reached the index, the table's first
// slab and its resizes, page roll-overs — and the two ways a batch ends
// without one: a Spill takes pending entries along, a Release drops them
// and leaves the manager's ledger at zero.
func TestFlushEdges(t *testing.T) {
	mem, dir := memory.NewManager(64, 0), t.TempDir()
	for _, n := range batchSizes {
		agg, err := NewDecaAgg[string, int64](mem, addI, str, i64, dir)
		if err != nil {
			t.Fatal(err)
		}
		group := NewDecaGroup[string, int64](mem, str, i64, dir)
		want := map[string][]int64{} // per key, the values in the order a drain lists them
		put := func(k string, v int64) {
			agg.Put(k, v)
			group.Put(k, v)
			want[k] = append(want[k], v)
		}
		for i := 0; i < n; i++ {
			put(fmt.Sprintf("key-%d", i/2), int64(i)) // every key twice, back to back: both Puts in one batch
		}
		if pending := n - (n-1)/probeBatch*probeBatch; agg.staged != pending || group.staged != pending {
			t.Fatalf("%d Puts left %d and %d entries pending, want %d", n, agg.staged, group.staged, pending)
		}
		// Each of these is the first to look since the last Put.
		if used, _ := agg.PageOccupancy(); (used > 0) != (n > 0) || (group.SizeBytes() > 0) != (n > 0) {
			t.Errorf("%d Puts: %d bytes of records in one buffer, %d bytes held by the other", n, used, group.SizeBytes())
		}
		put("key-0", -1)
		if got := group.Values(); got != n+1 {
			t.Errorf("%d Puts and one: %d values", n, got)
		}
		put("key-0", -2)
		if agg.Len() != len(want) || group.Len() != len(want) {
			t.Errorf("%d Puts: %d and %d keys, want %d", n, agg.Len(), group.Len(), len(want))
		}
		put("late", 7)
		if err := agg.Spill(); err != nil {
			t.Fatal(err)
		}
		if err := group.Spill(); err != nil {
			t.Fatal(err)
		}
		if left := agg.Len() + group.Len() + group.Values(); left != 0 {
			t.Errorf("%d Puts: %d keys and values in memory after a spill with an entry pending", n, left)
		}
		put("late", 8)
		want["late"] = []int64{8, 7} // what is in memory comes before the runs
		sums := drainAggToMap[string, int64](t, agg)
		lists := map[string][]int64{}
		if err := group.Drain(func(k string, vs []int64) bool { lists[k] = vs; return true }); err != nil {
			t.Fatal(err)
		}
		if len(sums) != len(want) || len(lists) != len(want) {
			t.Errorf("%d Puts: drained %d and %d keys, want %d", n, len(sums), len(lists), len(want))
		}
		for k, vs := range want {
			sum := int64(0)
			for _, v := range vs {
				sum += v
			}
			if sums[k] != sum || !slices.Equal(lists[k], vs) {
				t.Errorf("%d Puts: %s holds %d and %v, want %d and %v", n, k, sums[k], lists[k], sum, vs)
			}
		}
		for i := 0; i < n; i++ { // the lifetime ends with these pending
			put("dropped", 1)
		}
		agg.Release()
		group.Release()
		if agg.Len() != 0 || group.Len() != 0 { // and no flush into released pages
			t.Errorf("%d Puts pending at Release: %d and %d keys afterwards", n, agg.Len(), group.Len())
		}
		assertClean(t, mem, dir, fmt.Sprintf("%d Puts pending at Release", n))
	}
}

// TestBatchedFillWritesTheSameBytes: a container filled through the batch
// and one whose every Put is flushed on the spot — a batch of one — write
// the same spill runs and encode the same frame, byte for byte: the touch
// passes change no answer and no layout.
func TestBatchedFillWritesTheSameBytes(t *testing.T) {
	mem := memory.NewManager(256, 0)
	type sink struct {
		put   func(i int)
		flush func()
		spill func() error
		frame func() []byte
	}
	cases := map[string]func(dir string) sink{
		"DecaAgg": func(dir string) sink {
			b, err := NewDecaAgg[string, int64](mem, addI, str, i64, dir)
			if err != nil {
				t.Fatal(err)
			}
			return sink{func(i int) { b.Put(fmt.Sprintf("w%05x", i*7919%700), int64(i)) }, b.flush, b.Spill, func() []byte { return encodeFrame(t, b) }}
		},
		"DecaGroup": func(dir string) sink {
			b := NewDecaGroup[int64, string](mem, i64, str, dir)
			return sink{func(i int) { b.Put(int64(i*7919%300), fmt.Sprint(i)) }, b.flush, b.Spill, func() []byte { return encodeFrame(t, b) }}
		},
	}
	for name, build := range cases {
		batched, serial := build(t.TempDir()), build(t.TempDir())
		for i := 0; i < 5000; i++ {
			batched.put(i)
			serial.put(i)
			serial.flush()
			if i%1777 == 1776 { // not on a batch edge
				if err := batched.spill(); err != nil {
					t.Fatal(err)
				}
				if err := serial.spill(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got, want := batched.frame(), serial.frame(); !bytes.Equal(got, want) {
			t.Errorf("%s: the batched fill's frame (%d bytes, spill runs included) differs from the serial fill's (%d bytes)", name, len(got), len(want))
		}
	}
	if in := mem.Counters()[obs.PageBytesInUse]; in != 0 {
		t.Errorf("%d bytes still in use", in)
	}
}
