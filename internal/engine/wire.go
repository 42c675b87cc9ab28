package engine

import (
	"deca/internal/shuffle"
	"deca/internal/transport"
)

// The seam between the generic shuffle operators and the payload-agnostic
// transport, the same for all four containers: a map output is registered
// with its own frame encoder (pairSink.EncodeSegments) as the payload's
// Segments, and a fetched frame stages in the *destination* executor
// (shuffle.Stage) for the reduce task to fold into its merged buffer
// (pairSink.Fold), in map order. The scheduler and the transport never
// learn the payload's generic type. Under the stage-commit protocol every
// fetch — executor-local included — serves an encoded frame so the pinned
// source stays private to its holder.

// frameOpen returns the streaming-decode hook the fetch pipeline hands to
// Transport.Fetch: the frame stages as it streams off the wire — a Deca
// frame's pages into ex's manager, an Object frame's records into one
// byte slice, either's spill runs into the spill directory — and reports
// the staged footprint for fetch budgeting.
func (c *Context) frameOpen(ex *Executor) transport.FrameOpen {
	return func(r transport.FrameReader, _ int64) (transport.Decoded, error) {
		st, err := shuffle.Stage(r, ex.mem, c.conf.SpillDir)
		if err != nil {
			return transport.Decoded{}, err
		}
		return transport.Decoded{Data: st, MemBytes: st.SizeBytes()}, nil
	}
}

// payloadFor wraps a sealed map output into a transport payload that
// frames it as segments.
func payloadFor[K comparable, V any, S pairSink[K, V]](s S, ex *Executor) transport.Payload {
	size := s.SizeBytes()
	return transport.Payload{
		Data:        s,
		SrcExecutor: ex.id,
		Bytes:       size + s.SpilledBytes(),
		MemBytes:    size,
		Segments:    s.EncodeSegments,
	}
}
