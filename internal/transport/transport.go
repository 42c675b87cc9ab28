// Package transport is the shuffle-data seam between executors: map tasks
// register their per-reduce-partition output buffers here, and reduce
// tasks — possibly running on a different executor — fetch them. The
// engine holds the one implementation, Plane, and a deployment is a
// construction of it (NewInProcess, NewTCP, NewRemote). Payloads are
// deliberately untyped because the shuffle buffers are generic types the
// engine casts back on arrival.
//
// Ownership rule (stage-commit protocol): a registered payload belongs to
// the transport until the driver commits the consuming stage (Commit) or
// the shuffle is dropped (Drop). Fetch serves a *copy* — an encoded wire
// frame the consumer decodes into its own memory — and never consumes the
// registration, so any number of consumers (a reduce task and its retries
// after a mid-merge failure) can fetch the same output.
// Commit/Drop return whatever was still registered so the caller can
// release those buffers — the lifetime end of every map output is one of
// those two calls, never a fetch — except for an output that a
// re-registration of its id displaces, which the transport releases
// itself. A payload that cannot be framed is rejected at Register.
package transport

import (
	"errors"
	"fmt"
	"io"
)

// ShuffleID identifies one shuffle across the cluster (the engine issues
// them; unique per Context).
type ShuffleID int

// MapOutputID names one map task's output for one reduce partition.
type MapOutputID struct {
	Shuffle ShuffleID
	MapTask int
	Reduce  int
}

func (id MapOutputID) String() string {
	return fmt.Sprintf("shuffle %d map %d reduce %d", id.Shuffle, id.MapTask, id.Reduce)
}

// Payload is a registered map output: the buffer itself plus its origin
// executor and estimated size, for locality accounting. MemBytes is the
// in-memory portion of Bytes (excluding spill files, which stay on disk
// until drained) — the amount a fetch actually brings into the reduce
// executor's memory, used to budget fetch pipelining. A fully-spilled
// output legitimately carries MemBytes 0: fetching it moves nothing into
// memory.
type Payload struct {
	Data        any
	SrcExecutor int
	Bytes       int64
	MemBytes    int64
	// Encode writes the payload's self-describing wire frame — the byte
	// representation every serve ships instead of the Data pointer, so
	// the registered buffer survives its consumers. Encode must be
	// re-invocable and safe for concurrent use (it reads the buffer, it
	// never drains it); the registered Data must not be mutated while
	// registered. A serve stages what Encode writes into a FrameSegments;
	// it is ignored when Segments is set. Register rejects a payload with
	// neither.
	Encode func(w io.Writer) error
	// Segments builds the frame as wire-order segments (staged headers,
	// in-place container pages, spill files), so the serve path can
	// writev/sendfile instead of staging the frame. Like Encode it must be
	// re-invocable and concurrency-safe; each call returns a fresh
	// FrameSegments whose Release the serve path calls exactly once.
	Segments func() (*FrameSegments, error)
}

// frame builds the payload's encoded frame as segments, the one form
// every serve ships: the payload's own segments, or — for a payload that
// can only write its frame (Object containers, built record by record) —
// whatever Encode writes, staged. The caller releases the result.
//
//deca:owns
func (p Payload) frame() (*FrameSegments, error) {
	if p.Segments != nil {
		return p.Segments()
	}
	if p.Encode == nil {
		return nil, errors.New("transport: payload has neither Segments nor Encode")
	}
	fs := NewFrameSegments()
	if err := p.Encode(fs); err != nil {
		fs.Release()
		return nil, err
	}
	return fs, nil
}

// FrameReader is the stream a FrameOpen decodes from: exactly the frame's
// bytes, positioned at the first byte. It matches shuffle.WireReader so
// streaming wire decoders plug in directly.
type FrameReader interface {
	io.Reader
	io.ByteReader
}

// Decoded is what a FrameOpen produced from one frame: the container
// (in the destination executor's memory) and its in-memory footprint for
// fetch budgeting.
type Decoded struct {
	Data     any
	MemBytes int64
}

// FrameOpen decodes one frame as it streams off the transport, landing
// page bodies directly in the destination executor's memory manager —
// the frame is never materialized as one []byte. size is the frame's
// announced length; the opener must consume exactly size bytes on
// success (the transport treats under-consumption as a protocol error
// and retires the connection). On error the partially-decoded state must
// already be released.
type FrameOpen func(r FrameReader, size int64) (Decoded, error)

// Transport moves shuffle map output between executors. Plane is its one
// implementation and the engine holds a *Plane; the interface stays only
// because the benchmark harness (bench/e2e) names it, and goes when that
// harness is next changed (ROADMAP 2b).
type Transport interface {
	// Register publishes a map output, handing p to the transport whether
	// or not it succeeds: a rejected payload — one with neither Segments nor
	// Encode, one whose source executor has no node in this process, one
	// whose location could not be published — is released before Register
	// returns the error. Registering the same id twice, from any executor,
	// replaces the entry (task retry semantics) and ends the displaced
	// payload's lifetime inside the transport: it is released at once, or
	// by the last serve in flight on it.
	Register(id MapOutputID, p Payload) error
	// Fetch serves the output to the reduce task running on dstExecutor
	// without consuming the registration, which stays pinned for other
	// consumers until Commit/Drop. The frame is decoded by open as it
	// streams (never materialized whole): the returned payload's
	// Data/MemBytes come from the opener's Decoded and Bytes is the frame
	// length. ok=false with a nil error means nothing is registered under
	// id (definitively missing — lineage must re-run the producing map
	// task); a non-nil error is a fault that left the registration intact
	// (socket error, timeout, decode fault, injected fault, a closed
	// transport), so the caller may retry.
	Fetch(id MapOutputID, dstExecutor int, open FrameOpen) (Payload, bool, error)
	// Commit ends the listed outputs' lifetime after their consuming stage
	// committed: the registrations are removed and the still-registered
	// payloads this process holds returned for the caller to release. It
	// returns only after the serves in flight on those entries have ended,
	// so the release settles the memory ledgers.
	Commit(ids []MapOutputID) []Payload
	// Drop removes every output of the shuffle still registered and
	// returns them as Commit does (terminal shuffle teardown).
	Drop(shuffle ShuffleID) []Payload
	// Close releases transport resources (listeners, pooled connections).
	// Registered payloads are not touched; drop them first.
	Close() error
}
