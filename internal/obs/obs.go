// Package obs is the cluster observability spine: typed, timestamped
// events recorded into per-process ring buffers, shipped to the driver
// over the existing ctl heartbeat frames, and aggregated there into a
// rolling cluster-wide view (see View) that backs the HTTP ops plane
// and the Chrome trace export.
//
// The package imports only the standard library and the leaf free-list
// package, nothing from the engine, so every layer can use it without
// cycles. Events are timelines — task and stage spans, retries,
// blacklists, fetch failures, GC and occupancy samples; a count is a row
// of the counter table (Counters), never an event. Events carry only plain
// identifiers — executor ids, stage ids, byte sizes — never memory.Ptr or
// *memory.Group: instrumentation must not extend object lifetimes
// (enforced by deca-vet's ptrescape analyzer).
package obs

import (
	"sync"
	"time"
	"unsafe"

	"deca/internal/freelist"
)

// Kind discriminates event payloads. The numeric values cross the ctl
// wire; append new kinds at the end, never renumber.
type Kind uint8

const (
	KindNone Kind = iota
	// Task attempt lifecycle (driver-side, from the scheduler).
	KindTaskStart  // Exec/Stage/Part/Attempt
	KindTaskFinish // same ids; A=duration ns; B=0 ok, 1 failed; Key=error
	KindTaskRetry  // Exec/Stage/Part/Attempt of the retry launched
	_              // 4 and 5 were the deleted speculation events
	_
	KindExecutorBlacklisted
	// Stage lifecycle (driver-side, from the exchange loop and the
	// multiproc stage-commit protocol).
	KindStageBegin   // Stage; Key=stage key
	KindStageVerdict // Key=stage key; A=verdict (0 ok, 1 abort)
	KindStageCommit  // Shuffle; A=map tasks, B=reduce tasks
	KindStageAbort   // Shuffle
	_                // 12 and 13 were fetch counts, now rows of the counter table
	_
	// Data plane (executor-side): one failed fetch try.
	KindFetchFailed // Exec=fetcher; Shuffle; Part=reduce part; A=map task; Key=error
	_               // 15 to 19 were serve and page counts, now rows of the counter table
	_
	_
	_
	_
	// Periodic samples.
	KindGCSample  // Exec; A=cumulative GC CPU ns; B=heap live bytes
	KindOccupancy // Exec; Shuffle; A=used bytes; B=footprint bytes
	kindCount
)

var kindNames = [...]string{
	KindNone:                "none",
	KindTaskStart:           "task_start",
	KindTaskFinish:          "task_finish",
	KindTaskRetry:           "task_retry",
	KindExecutorBlacklisted: "executor_blacklisted",
	KindStageBegin:          "stage_begin",
	KindStageVerdict:        "stage_verdict",
	KindStageCommit:         "stage_commit",
	KindStageAbort:          "stage_abort",
	KindFetchFailed:         "fetch_failed",
	KindGCSample:            "gc_sample",
	KindOccupancy:           "occupancy",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one observation. The field meanings are per-Kind (see the
// Kind constants); unused fields are zero. Seq is assigned by the
// recording Recorder and is unique and increasing per process.
type Event struct {
	Seq     uint64
	Kind    Kind
	Nanos   int64 // unix nanoseconds at record time
	Exec    int32 // executor id; -1 = the driver itself
	Stage   int32
	Part    int32
	Attempt int32
	Shuffle int64
	A, B    int64
	Key     string
}

// DefaultCapacity bounds every engine's recorder: at task and sample
// granularity a few thousand events cover the shipping interval with plenty
// of slack, and the bound is what matters. An untraced driver's ring is
// drained only when an ops endpoint reads it, so without one it is never
// drained and keeps the newest DefaultCapacity events. Its blocks go back
// to the process at Close (freeBlocks), so a ring is paid once per process,
// not once per job.
const DefaultCapacity = 4096

// blockEvents is the most events one block of a recorder holds (20 KiB).
const blockEvents = 256

// freeBlocks recycles closed recorders' blocks, cleared, into the next
// recorder's ring. It holds the most blocks an untraced ring does, so what a
// closed job leaves the process is at most one ring.
var freeBlocks = freelist.New(DefaultCapacity/blockEvents, blockEvents*int64(unsafe.Sizeof(Event{})), func() []Event {
	return make([]Event, blockEvents)
})

// Recorder is a bounded queue of events. A nil *Recorder is the
// disabled state: Record on nil is a single predictable branch, so
// instrumentation seams cost near nothing when observability is off.
//
// Writers call Record; the ctl heartbeat loop calls Drain to ship the
// backlog; when the backlog reaches the capacity before a drain the oldest
// events are overwritten and counted in Dropped.
//
// The capacity bounds the backlog, not the allocation: events live in
// fixed blocks taken as the backlog reaches them, and a block whose events
// are all drained or overwritten becomes the one spare the next is taken
// from, so the recorder holds its backlog plus at most one block. Blocks
// come from the process's free list (freeBlocks) before the heap, and
// Close gives them back: a recorder lives as long as its Context.
type Recorder struct {
	mu       sync.Mutex
	capacity int
	blocks   [][]Event // the backlog, oldest first; the last block may be part-filled
	spare    []Event   // a drained block the next block is taken from
	off      int       // index of the oldest event within blocks[0]
	n        int       // live events
	seq      uint64
	dropped  uint64
	closed   bool // the blocks went back at Close; Record and Drain do nothing
}

// NewRecorder returns a recorder holding at most capacity events
// (DefaultCapacity if capacity <= 0). It allocates no event until one is
// recorded.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{capacity: capacity}
}

// Record stamps e with a sequence number and the current time (unless
// the caller already set Nanos) and appends it, overwriting the oldest
// event when full. Safe on a nil receiver.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if e.Nanos == 0 {
		e.Nanos = time.Now().UnixNano()
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.seq++
	e.Seq = r.seq
	if r.n == r.capacity {
		r.off++
		r.n--
		r.dropped++
		if r.off == blockEvents {
			r.popBlock()
		}
	}
	i := r.off + r.n
	if i == len(r.blocks)*blockEvents {
		b := r.spare
		if b == nil {
			b = freeBlocks.Get()
		}
		r.blocks, r.spare = append(r.blocks, b), nil
	}
	r.blocks[i/blockEvents][i%blockEvents] = e
	r.n++
	r.mu.Unlock()
}

// popBlock retires the oldest block, whose events are all drained or
// overwritten, as the spare.
func (r *Recorder) popBlock() {
	r.spare = r.blocks[0]
	r.blocks = r.blocks[:copy(r.blocks, r.blocks[1:])]
	r.off = 0
}

// Close ends the recorder's lifetime: each block is cleared, so that no
// event's Key stays alive, and offered to the process's free list, where
// the next recorder takes its blocks. Record, Drain and Len do nothing
// afterwards, so a late writer (a stage's error path racing the Context's
// Close) never reaches a block another recorder now holds. Safe on a nil
// receiver; a second Close does nothing.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for _, b := range r.blocks {
		clear(b)
		freeBlocks.Put(b)
	}
	if r.spare != nil {
		clear(r.spare)
		freeBlocks.Put(r.spare)
	}
	r.blocks, r.spare, r.off, r.n = nil, nil, 0, 0
}

// Drain removes and returns up to max oldest events (all of them if
// max <= 0). Returns nil when empty or on a nil receiver.
func (r *Recorder) Drain(max int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	if max > 0 && n > max {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, n)
	for k := 0; k < n; {
		c := copy(out[k:], r.blocks[0][r.off:])
		k += c
		r.off += c
		r.n -= c
		if r.off == blockEvents || r.n == 0 {
			r.popBlock()
		}
	}
	return out
}

// Len reports the undrained backlog.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped reports how many events were overwritten before being
// drained.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
