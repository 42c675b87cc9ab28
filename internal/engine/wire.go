package engine

import (
	"bytes"
	"fmt"
	"io"

	"deca/internal/shuffle"
	"deca/internal/transport"
)

// The codec registry: the seam between the generic shuffle operators and
// the payload-agnostic transport. Each keyed-shuffle operator registers
// one wireCodec for its sink shape (built from the same PairOps both
// sides of the exchange share), the exchange hands the transport only the
// codec's Encode closure via Payload.Encode, and frames that come back
// from a fetch decode into a container allocated in the *destination*
// executor's memory manager. The scheduler and the transport never learn
// the payload's generic type. Under the stage-commit protocol every
// fetch — executor-local included — serves an encoded frame so the
// pinned source stays private to its holder; only payloads without a
// wire form fall back to the consuming pointer handover.

// wireCodec is one shuffle's codec-registry entry for sink type S.
type wireCodec[S any] struct {
	// encode writes s's self-describing wire frame.
	encode func(s S, w io.Writer) error
	// decode rebuilds a container from a frame streaming off r inside
	// executor ex — page bodies land directly in ex's memory manager, the
	// frame is never materialized whole.
	decode func(r shuffle.WireReader, ex *Executor) (S, error)
	// stage replaces decode for Deca sinks: the fetch worker stages a
	// frame into flat arenas plus restored pages in ex's manager — no
	// container, no map — and the reduce task folds it into its merged
	// buffer (a stagedFolder), in map order. Nil for Object sinks and under
	// Config.DisableZeroCopyMerge, whose frames decode into full containers
	// for the drain/re-Put merge.
	stage func(r shuffle.WireReader, ex *Executor) (*shuffle.Staged, error)
	// vectored attaches the sinks' segment encoders to their payloads, so
	// wire-capable transports serve them with writev/sendfile instead of
	// staging the frame (off under Config.DisableVectoredServe).
	vectored bool
}

// segmentEncoder is the sink-side vectored encode seam: Deca containers
// implement it, Object containers (whose frames are built record by
// record) do not and stay on the buffered Encode fallback.
type segmentEncoder interface {
	EncodeSegments() (*transport.FrameSegments, error)
}

// stagedFolder is the reduce-side seam of stage → fold: the Deca
// containers fold a staged frame of their own kind, consuming it.
type stagedFolder interface {
	Fold(st *shuffle.Staged) error
}

// open resolves a fetched payload into a usable sink on executor ex:
// payloads that crossed by pointer cast directly, already-decoded
// streamed payloads cast too, and legacy Wire payloads decode here. The
// returned sink is owned by the caller either way.
func (wc wireCodec[S]) open(pl transport.Payload, ex *Executor) (S, error) {
	var zero S
	if w, ok := pl.Data.(transport.Wire); ok {
		if wc.decode == nil {
			return zero, fmt.Errorf("engine: received a wire frame but the shuffle has no decoder")
		}
		return wc.decode(bytes.NewReader(w.Frame), ex)
	}
	s, ok := pl.Data.(S)
	if !ok {
		return zero, fmt.Errorf("engine: shuffle payload has type %T, want %T", pl.Data, zero)
	}
	return s, nil
}

// frameOpen returns the streaming-decode hook the fetch pipeline hands
// to Transport.Fetch: the codec's stager — or, without one, its decoder —
// run against the wire stream, reporting the result's own footprint for
// fetch budgeting. Nil when the shuffle has no decoder (pointer-handover
// payloads).
func (wc wireCodec[S]) frameOpen(ex *Executor) transport.FrameOpen {
	if wc.decode == nil {
		return nil
	}
	return func(r transport.FrameReader, size int64) (transport.Decoded, error) {
		if wc.stage != nil {
			st, err := wc.stage(r, ex)
			if err != nil {
				return transport.Decoded{}, err
			}
			return transport.Decoded{Data: st, MemBytes: st.SizeBytes()}, nil
		}
		s, err := wc.decode(r, ex)
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

// payloadFor wraps a sink into a transport payload, attaching the codec's
// encoder so any wire-capable transport can ship it — and, for Deca
// containers on a vectored codec, the segment encoder so the serve path
// can writev pages straight from the pinned group.
func (wc wireCodec[S]) payloadFor(s S, ex *Executor, sizeBytes, spilledBytes int64) transport.Payload {
	pl := transport.Payload{
		Data:        s,
		SrcExecutor: ex.id,
		Bytes:       sizeBytes + spilledBytes,
		MemBytes:    sizeBytes,
	}
	if wc.encode != nil {
		pl.Encode = func(w io.Writer) error { return wc.encode(s, w) }
		if wc.vectored {
			if se, ok := any(s).(segmentEncoder); ok {
				pl.Segments = se.EncodeSegments
			}
		}
	}
	return pl
}

// wireable reports whether this shuffle's sinks can round-trip a wire
// frame: a Deca-flavoured sink (decaSink) encodes through its codecs,
// an object-flavoured one needs the Kryo-style serializers. A
// non-wireable shuffle gets a nil encoder, so its payloads fall back to
// the transport's consuming pointer handover (single-process only)
// instead of failing at serve time.
func (o PairOps[K, V]) wireable(decaSink bool) bool {
	return decaSink || (o.KeySer != nil && o.ValSer != nil)
}

// aggWireCodec builds the codec-registry entry for ReduceByKey's sinks.
// The frame is self-describing (a kind byte leads), and both ends derive
// the container flavour from the same Config and PairOps, so encode
// dispatches on the concrete sink and decode on the mode.
func aggWireCodec[K comparable, V any](
	ctx *Context, ops PairOps[K, V], combine func(V, V) V,
) wireCodec[aggSink[K, V]] {
	if !ops.wireable(ops.decaAble(ctx)) {
		return wireCodec[aggSink[K, V]]{}
	}
	wc := wireCodec[aggSink[K, V]]{
		vectored: !ctx.conf.DisableVectoredServe,
		encode: func(s aggSink[K, V], w io.Writer) error {
			switch b := s.(type) {
			case *shuffle.DecaAgg[K, V]:
				return b.EncodeWire(w)
			case *shuffle.ObjectAgg[K, V]:
				return b.EncodeWire(w)
			}
			return fmt.Errorf("engine: aggregation buffer %T has no wire form", s)
		},
		decode: func(r shuffle.WireReader, ex *Executor) (aggSink[K, V], error) {
			if ops.decaAble(ctx) {
				return shuffle.DecodeDecaAgg(r, ex.mem, combine, ops.KeyCodec, ops.ValCodec, ctx.conf.SpillDir)
			}
			return shuffle.DecodeObjectAgg(r, combine, shuffle.ObjectAggConfig[K, V]{
				KeySer: ops.KeySer, ValSer: ops.ValSer,
				SpillDir: ctx.conf.SpillDir, EntrySize: ops.EntrySize,
			})
		},
	}
	if ops.decaAble(ctx) && !ctx.conf.DisableZeroCopyMerge {
		wc.stage = func(r shuffle.WireReader, ex *Executor) (*shuffle.Staged, error) {
			return shuffle.StageDecaAgg(r, ex.mem, ops.KeyCodec.FixedSize(), ctx.conf.SpillDir)
		}
	}
	return wc
}

// groupWireCodec builds the codec-registry entry for GroupByKey's sinks.
func groupWireCodec[K comparable, V any](
	ctx *Context, ops PairOps[K, V],
) wireCodec[groupSink[K, V]] {
	if !ops.wireable(ops.decaGroupAble(ctx)) {
		return wireCodec[groupSink[K, V]]{}
	}
	wc := wireCodec[groupSink[K, V]]{
		vectored: !ctx.conf.DisableVectoredServe,
		encode: func(s groupSink[K, V], w io.Writer) error {
			switch b := s.(type) {
			case *shuffle.DecaGroup[K, V]:
				return b.EncodeWire(w)
			case *shuffle.ObjectGroup[K, V]:
				return b.EncodeWire(w)
			}
			return fmt.Errorf("engine: grouping buffer %T has no wire form", s)
		},
		decode: func(r shuffle.WireReader, ex *Executor) (groupSink[K, V], error) {
			if ops.decaGroupAble(ctx) {
				return shuffle.DecodeDecaGroup(r, ex.mem, ops.KeyCodec, ops.ValCodec, ctx.conf.SpillDir)
			}
			return shuffle.DecodeObjectGroup(r, shuffle.ObjectGroupConfig[K, V]{
				KeySer: ops.KeySer, ValSer: ops.ValSer,
				SpillDir: ctx.conf.SpillDir, EntrySize: ops.EntrySize,
			})
		},
	}
	if ops.decaGroupAble(ctx) && !ctx.conf.DisableZeroCopyMerge {
		wc.stage = func(r shuffle.WireReader, ex *Executor) (*shuffle.Staged, error) {
			return shuffle.StageDecaGroup(r, ex.mem, ops.KeyCodec.FixedSize(), ctx.conf.SpillDir)
		}
	}
	return wc
}

// sortWireCodec builds the codec-registry entry for SortByKey's sinks.
func sortWireCodec[K comparable, V any](
	ctx *Context, ops PairOps[K, V],
) wireCodec[sortSink[K, V]] {
	deca := ctx.Mode() == ModeDeca && ops.KeyCodec != nil && ops.ValCodec != nil
	if !ops.wireable(deca) {
		return wireCodec[sortSink[K, V]]{}
	}
	wc := wireCodec[sortSink[K, V]]{
		vectored: !ctx.conf.DisableVectoredServe,
		encode: func(s sortSink[K, V], w io.Writer) error {
			switch b := s.(type) {
			case *shuffle.DecaSort[K, V]:
				return b.EncodeWire(w)
			case *shuffle.ObjectSort[K, V]:
				return b.EncodeWire(w)
			}
			return fmt.Errorf("engine: sort buffer %T has no wire form", s)
		},
		decode: func(r shuffle.WireReader, ex *Executor) (sortSink[K, V], error) {
			if deca {
				return shuffle.DecodeDecaSort(r, ex.mem, ops.Key.Less, ops.KeyCodec, ops.ValCodec, ctx.conf.SpillDir)
			}
			return shuffle.DecodeObjectSort(r, ops.Key.Less, shuffle.ObjectSortConfig[K, V]{
				KeySer: ops.KeySer, ValSer: ops.ValSer,
				SpillDir: ctx.conf.SpillDir, EntrySize: ops.EntrySize,
			})
		},
	}
	if deca && !ctx.conf.DisableZeroCopyMerge {
		wc.stage = func(r shuffle.WireReader, ex *Executor) (*shuffle.Staged, error) {
			return shuffle.StageDecaSort(r, ex.mem, ctx.conf.SpillDir)
		}
	}
	return wc
}
