package engine

import (
	"fmt"
	"io"

	"deca/internal/shuffle"
	"deca/internal/transport"
)

// The codec registry: the seam between the generic shuffle operators and
// the payload-agnostic transport. keyedShuffle builds one wireCodec per
// shuffle from the operator's sinkShape (and the PairOps both sides of
// the exchange share); the exchange hands the transport the
// sink's own frame encoder, and frames that come back from a fetch land
// in the *destination* executor's memory manager. The scheduler and the
// transport never learn the payload's generic type. Under the stage-commit
// protocol every fetch — executor-local included — serves an encoded frame
// so the pinned source stays private to its holder.

// wireCodec is one shuffle's codec-registry entry for sink type S: how a
// frame streaming off r opens inside executor ex.
type wireCodec[S any] struct {
	// decode is the Object half: the frame deserializes record by record
	// into a full container the reduce task drains into its merged buffer.
	// The Deca half has none: the fetch worker stages the frame
	// (shuffle.Stage) as restored pages in ex's manager, its spill runs in
	// spillDir — no container, no map — and the reduce task folds it into
	// its merged buffer (a stagedFolder), in map order.
	decode   func(r shuffle.WireReader) (S, error)
	spillDir string
}

// The sink-side encode seams, attached by interface assertion: Deca
// containers build their frame as segments the serve path ships with
// writev/sendfile; Object containers, whose frames are built record by
// record, only write theirs and the transport stages what they write.
type (
	segmentEncoder interface {
		EncodeSegments() (*transport.FrameSegments, error)
	}
	wireEncoder interface{ EncodeWire(w io.Writer) error }
)

// stagedFolder is the reduce-side seam of stage → fold: the Deca
// containers fold a staged frame of their own kind, consuming it.
type stagedFolder interface {
	Fold(st *shuffle.Staged) error
}

// open casts a fetched payload's data back to the sink type: the
// container the Object decoder built on this executor, owned by the caller.
func (wc wireCodec[S]) open(pl transport.Payload) (S, error) {
	s, ok := pl.Data.(S)
	if !ok {
		var zero S
		return zero, fmt.Errorf("engine: shuffle payload has type %T, want %T", pl.Data, zero)
	}
	return s, nil
}

// frameOpen returns the streaming-decode hook the fetch pipeline hands
// to Transport.Fetch: the codec's stager or decoder run against the wire
// stream, reporting the result's own footprint for fetch budgeting.
func (wc wireCodec[S]) frameOpen(ex *Executor) transport.FrameOpen {
	if wc.decode == nil {
		return func(r transport.FrameReader, _ int64) (transport.Decoded, error) {
			st, err := shuffle.Stage(r, ex.mem, wc.spillDir)
			if err != nil {
				return transport.Decoded{}, err
			}
			return transport.Decoded{Data: st, MemBytes: st.SizeBytes()}, nil
		}
	}
	return func(r transport.FrameReader, size int64) (transport.Decoded, error) {
		s, err := wc.decode(r)
		if err != nil {
			return transport.Decoded{}, err
		}
		mem := size
		if sb, ok := any(s).(interface{ SizeBytes() int64 }); ok {
			mem = sb.SizeBytes()
		}
		return transport.Decoded{Data: s, MemBytes: mem}, nil
	}
}

// payloadFor wraps a sink into a transport payload, attaching whichever
// frame encoder the sink has.
func (wc wireCodec[S]) payloadFor(s S, ex *Executor, sizeBytes, spilledBytes int64) transport.Payload {
	pl := transport.Payload{
		Data:        s,
		SrcExecutor: ex.id,
		Bytes:       sizeBytes + spilledBytes,
		MemBytes:    sizeBytes,
	}
	switch enc := any(s).(type) {
	case segmentEncoder:
		pl.Segments = enc.EncodeSegments
	case wireEncoder:
		pl.Encode = enc.EncodeWire
	}
	return pl
}
