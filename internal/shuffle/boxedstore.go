package shuffle

import (
	"encoding/binary"
	"fmt"

	"deca/internal/decompose"
	"deca/internal/serial"
	"deca/internal/transport"
)

// ObjectConfig configures an Object container's spilling and size
// estimation.
type ObjectConfig[K comparable, V any] struct {
	// KeySer/ValSer are required for spilling and the wire frame (Spark
	// serializes both).
	KeySer serial.Serializer[K]
	ValSer serial.Serializer[V]
	// SpillDir receives spill files (default: os temp dir via "").
	SpillDir string
	// EntrySize estimates the heap footprint of one entry; nil selects a
	// flat 48-byte default (map bucket + boxed value + key header).
	EntrySize func(K, V) int
}

// boxedStore is the boxed storage layer under ObjectAgg and ObjectGroup:
// records live as heap objects in the container's own table, and
// everything that turns them into bytes and back — the spill-run writer,
// the run replay, the record frame — goes through the Kryo-style
// serializers here, record by record (the per-record cost Deca's pages
// avoid). It also keeps the running footprint estimate. A container embeds
// one by value and supplies only an enumeration of its in-memory records
// and its Put.
type boxedStore[K comparable, V any] struct {
	cfg ObjectConfig[K, V]
	// approx is the running SizeBytes estimate, maintained by the
	// container's Put and reset by spill — the exchange registers a payload
	// size per map output, and an O(records) table walk there would dwarf
	// the walk it prices.
	approx int64
	runSet
}

func newBoxedStore[K comparable, V any](cfg ObjectConfig[K, V]) boxedStore[K, V] {
	if cfg.EntrySize == nil {
		cfg.EntrySize = func(K, V) int { return 48 }
	}
	return boxedStore[K, V]{cfg: cfg, runSet: runSet{dir: cfg.SpillDir}}
}

// SizeBytes estimates the in-memory footprint.
func (s *boxedStore[K, V]) SizeBytes() int64 { return s.approx }

// charge adds one (k, v) entry to the footprint estimate.
func (s *boxedStore[K, V]) charge(k K, v V) { s.approx += int64(s.cfg.EntrySize(k, v)) }

// needSerializers is the guard of every path that turns records into bytes.
func (s *boxedStore[K, V]) needSerializers(kind byte, what string) error {
	if s.cfg.KeySer == nil || s.cfg.ValSer == nil {
		return fmt.Errorf("shuffle: %s has no serializers; cannot %s", kindName(kind), what)
	}
	return nil
}

// decodePair reads one serialized record: Marshal(key) then Marshal(value),
// the layout of spill runs and — behind a length prefix — of frame records.
// A record that does not decode reads as 0 bytes, which ends the replay
// with an error (a run restored off a frame is not trusted).
func (s *boxedStore[K, V]) decodePair(src []byte) (decompose.Pair[K, V], int) {
	k, kn := s.cfg.KeySer.Unmarshal(src)
	if kn <= 0 {
		return decompose.Pair[K, V]{}, 0
	}
	v, vn := s.cfg.ValSer.Unmarshal(src[kn:])
	if vn <= 0 {
		return decompose.Pair[K, V]{}, 0
	}
	return decompose.Pair[K, V]{Key: k, Value: v}, kn + vn
}

// spill serializes the n in-memory records (records calls emit once per
// record) into one run and zeroes the footprint estimate. The caller
// clears its table afterwards.
func (s *boxedStore[K, V]) spill(kind byte, n int, records func(emit func(K, V) error) error) error {
	if err := s.needSerializers(kind, "spill"); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	err := s.write(func(w *spillWriter) error {
		return records(func(k K, v V) error {
			w.scratch = s.cfg.ValSer.Marshal(s.cfg.KeySer.Marshal(w.scratch[:0], k), v)
			_, err := w.Write(w.scratch)
			return err
		})
	})
	if err != nil {
		return err
	}
	s.approx = 0
	return nil
}

// replay merges the spilled runs back through put, deserializing every
// record afresh as Spark's spill merge does.
func (s *boxedStore[K, V]) replay(put func(K, V)) error {
	return replayRuns(&s.runSet, s.decodePair, put)
}

// Seal ends the fill (keyedStore.Seal); drain and frame still read the table.
func (s *boxedStore[K, V]) Seal() {}

// Release ends the lifetime: the spill files are deleted. Idempotent; the
// container drops its table alongside.
func (s *boxedStore[K, V]) Release() {
	s.release()
	s.approx = 0
}

// encodeSegments builds the container's frame — kind, record count, every
// in-memory record as one length-prefixed Marshal(key)+Marshal(value) (the
// per-record encode cost Deca's page snapshot avoids), then the spill runs
// as files (runSet.endFrame). records calls emit once per record, n times
// in all. The caller releases the frame.
//
//deca:owns
func (s *boxedStore[K, V]) encodeSegments(kind byte, n int, records func(emit func(K, V) error) error) (*transport.FrameSegments, error) {
	if err := s.needSerializers(kind, "encode"); err != nil {
		return nil, err
	}
	fs := newFrame(kind, n)
	var rec []byte
	err := records(func(k K, v V) error {
		rec = s.cfg.ValSer.Marshal(s.cfg.KeySer.Marshal(rec[:0], k), v)
		stageUvarint(fs, uint64(len(rec)))
		_, err := fs.Write(rec)
		return err
	})
	if err != nil {
		fs.Release()
		return nil, err
	}
	return s.endFrame(fs)
}

// fold is every Object container's Fold: the store takes the frame's spill
// runs over (a drain replays or merges them like its own), and every staged
// record deserializes into fresh objects handed straight to put — the
// §6.5 deserialization cost, paid once, into the one container. Fold
// consumes st on every path; a corrupt record is an error that leaves the
// container holding the records before it, for the caller to release.
//
//deca:transfers
func (s *boxedStore[K, V]) fold(st *Staged, kind byte, put func(K, V)) error {
	defer st.Release()
	if err := st.check(kind); err != nil {
		return err
	}
	if err := s.needSerializers(kind, "fold"); err != nil {
		return err
	}
	s.take(&st.runSet)
	recs := st.recs
	for i := 0; i < st.n; i++ {
		size, w := binary.Uvarint(recs) // Stage wrote the prefixes: n of them, each followed by its bytes
		rec := recs[w : w+int(size)]
		recs = recs[w+int(size):]
		k, kn := s.cfg.KeySer.Unmarshal(rec)
		if kn <= 0 {
			return fmt.Errorf("shuffle: %s record %d: corrupt key", kindName(kind), i)
		}
		v, vn := s.cfg.ValSer.Unmarshal(rec[kn:])
		if vn <= 0 || kn+vn != len(rec) {
			return fmt.Errorf("shuffle: %s record %d: corrupt value", kindName(kind), i)
		}
		put(k, v)
	}
	return nil
}
