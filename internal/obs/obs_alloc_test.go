//go:build !race

package obs

import (
	"runtime"
	"testing"
)

// heapBytes returns how many bytes of Go heap f allocates.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

var blockSink []Event

// TestRecorderHeapFollowsBacklog: a recorder's heap follows the events it
// holds, not its capacity. 500 events take two blocks, 43 KiB (NewRecorder
// alone took the whole 320 KiB ring before), and a default ring that
// overflows holds its 4,096 newest events in at most one block more than
// they fill. A block is counted as the allocator sizes it (its 20 KiB of
// events plus an object header round up to a 21,760-byte size class); the
// allowance beside the blocks is the list of them.
// (The race detector changes allocation counts, so plain builds only.)
func TestRecorderHeapFollowsBacklog(t *testing.T) {
	const listSlack = 2 << 10
	block := heapBytes(func() { blockSink = make([]Event, blockEvents) })
	var r *Recorder
	got := heapBytes(func() {
		r = NewRecorder(0)
		for i := 0; i < 500; i++ {
			r.Record(Event{Kind: KindGCSample, A: int64(i)})
		}
	})
	if got > 64<<10 {
		t.Errorf("NewRecorder and 500 events allocated %d bytes, want at most 64 KiB", got)
	}
	if r.Len() != 500 {
		t.Fatalf("Len = %d, want 500", r.Len())
	}

	const total = 10_000
	got = heapBytes(func() {
		r = NewRecorder(0)
		for i := 0; i < total; i++ {
			r.Record(Event{Kind: KindGCSample, A: int64(i)})
		}
	})
	if limit := (DefaultCapacity/blockEvents+1)*block + listSlack; got > limit {
		t.Errorf("%d events into a default ring allocated %d bytes, want at most %d (%d slots and one block)", total, got, limit, DefaultCapacity)
	}
	if r.Dropped() != total-DefaultCapacity {
		t.Errorf("Dropped = %d, want %d", r.Dropped(), total-DefaultCapacity)
	}
	evs := r.Drain(0)
	if len(evs) != DefaultCapacity || evs[0].A != total-DefaultCapacity || evs[len(evs)-1].A != total-1 {
		t.Fatalf("drained %d events, A %d..%d; want the newest %d", len(evs), evs[0].A, evs[len(evs)-1].A, DefaultCapacity)
	}
}

// TestRecorderTakesAClosedRingsBlocks: a recorder's blocks are paid once
// per process. After the first recorder's Close, a second one that records
// 500 events (two blocks) takes the blocks the first gave back and
// allocates no block of its own, only its header and block list.
func TestRecorderTakesAClosedRingsBlocks(t *testing.T) {
	emptyFreeBlocks()
	block := heapBytes(func() { blockSink = make([]Event, blockEvents) })
	record := func() (r *Recorder) {
		r = NewRecorder(0)
		for i := 0; i < 500; i++ {
			r.Record(Event{Kind: KindGCSample, A: int64(i)})
		}
		return r
	}
	record().Close()
	got := heapBytes(func() { record() })
	t.Logf("a second recorder's 500 events allocated %d bytes (a block is %d)", got, block)
	if got >= block {
		t.Errorf("a second recorder's 500 events allocated %d bytes, a block's worth (%d): it took no block the first one closed", got, block)
	}
}
