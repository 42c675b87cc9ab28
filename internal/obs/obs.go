// Package obs is the cluster observability spine: typed, timestamped
// events recorded into per-process ring buffers, shipped to the driver
// over the existing ctl heartbeat frames, and aggregated there into a
// rolling cluster-wide view (see View) that backs the HTTP ops plane
// and the Chrome trace export.
//
// The package is deliberately stdlib-only and imports nothing from the
// engine, so every layer (memory, transport, sched, ctl, engine) can
// emit events without cycles. Events carry only plain identifiers —
// executor ids, stage ids, page counts, byte sizes — never memory.Ptr
// or *memory.Group: instrumentation must not extend object lifetimes
// (enforced by deca-vet's ptrescape analyzer).
package obs

import (
	"sync"
	"time"
)

// Kind discriminates event payloads. The numeric values cross the ctl
// wire; append new kinds at the end, never renumber.
type Kind uint8

const (
	KindNone Kind = iota
	// Task attempt lifecycle (driver-side, from the scheduler).
	KindTaskStart      // Exec/Stage/Part/Attempt; B=1 if speculative
	KindTaskFinish     // same ids; A=duration ns; B=0 ok, 1 failed; Key=error
	KindTaskRetry      // Exec/Stage/Part
	KindTaskSpeculate  // Exec: a speculative duplicate launched there
	KindSpeculativeWon // Exec: the duplicate beat the primary
	KindExecutorBlacklisted
	// Stage lifecycle (driver-side, from the exchange loop and the
	// multiproc stage-commit protocol).
	KindStageBegin   // Stage; Key=stage key
	KindStageVerdict // Key=stage key; A=verdict (0 ok, 1 abort)
	KindStageCommit  // Shuffle; A=map tasks, B=reduce tasks
	KindStageAbort   // Shuffle
	// Data plane (executor-side).
	KindFetchIssued // Exec=fetcher; Shuffle; Part=reduce part; A=map task
	KindFetchServed // Exec=fetcher; Shuffle; Part=reduce part; A=map task; B=bytes
	KindFetchFailed // Exec=fetcher; Shuffle; Part=reduce part; A=map task; Key=error
	KindServe       // Exec=server; Shuffle; Part=reduce part; B=bytes served
	// Memory manager (executor-side).
	KindPageAlloc   // Exec; A=pages fresh-allocated (cumulative), B=page bytes
	KindPageAdopt   // Exec; A=pages adopted in one zero-copy merge
	KindPageSpill   // Exec; B=bytes spilled
	KindPageRelease // Exec; A=pages returned to the pool
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
	KindTaskSpeculate:       "task_speculate",
	KindSpeculativeWon:      "speculative_won",
	KindExecutorBlacklisted: "executor_blacklisted",
	KindStageBegin:          "stage_begin",
	KindStageVerdict:        "stage_verdict",
	KindStageCommit:         "stage_commit",
	KindStageAbort:          "stage_abort",
	KindFetchIssued:         "fetch_issued",
	KindFetchServed:         "fetch_served",
	KindFetchFailed:         "fetch_failed",
	KindServe:               "serve",
	KindPageAlloc:           "page_alloc",
	KindPageAdopt:           "page_adopt",
	KindPageSpill:           "page_spill",
	KindPageRelease:         "page_release",
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

// Time returns the event timestamp.
func (e Event) Time() time.Time { return time.Unix(0, e.Nanos) }

// DefaultCapacity is the ring size a zero engine.Config gets: at task /
// page / sample granularity a few thousand events cover the shipping
// interval with plenty of slack, and the bound is what matters.
const DefaultCapacity = 4096

// Recorder is a bounded ring of events. A nil *Recorder is the
// disabled state: Record on nil is a single predictable branch, so
// instrumentation seams cost near nothing when observability is off.
//
// Writers call Record; the ctl heartbeat loop calls Drain to ship the
// backlog; when the ring overflows before a drain the oldest events
// are overwritten and counted in Dropped.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest event
	n       int // live events in buf
	seq     uint64
	dropped uint64
}

// NewRecorder returns a recorder holding at most capacity events
// (DefaultCapacity if capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Enabled reports whether events are being collected.
func (r *Recorder) Enabled() bool { return r != nil }

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
	r.seq++
	e.Seq = r.seq
	if r.n == len(r.buf) {
		r.buf[r.start] = e
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	} else {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
	}
	r.mu.Unlock()
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
	for i := 0; i < n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	r.start = (r.start + n) % len(r.buf)
	r.n -= n
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
