package shuffle

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"deca/internal/decompose"
	"deca/internal/serial"
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

// boxedStore is the boxed storage layer under ObjectAgg, ObjectGroup and
// ObjectSort: records live as heap objects in the container's own table,
// and everything that turns them into bytes and back — the spill-run
// writer, the run replay, the record frame — goes through the Kryo-style
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
func (s *boxedStore[K, V]) decodePair(src []byte) (decompose.Pair[K, V], int) {
	k, kn := s.cfg.KeySer.Unmarshal(src)
	v, vn := s.cfg.ValSer.Unmarshal(src[kn:])
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
			return w.emitScratch(s.cfg.ValSer.Marshal(s.cfg.KeySer.Marshal(w.stage(0), k), v))
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

// wireEncoder wraps a writer with varint and length-prefix helpers plus a
// reusable staging buffer for record bytes — the Object containers'
// record-by-record frame writer. All output is buffered (small records
// coalesce into few large writes; spill runs pass through) — the caller
// must flush.
type wireEncoder struct {
	w       *bufio.Writer
	scratch []byte
	hdr     [binary.MaxVarintLen64]byte
}

func (e *wireEncoder) raw(b []byte) error {
	_, err := e.w.Write(b)
	return err
}

func (e *wireEncoder) uvarint(v uint64) error {
	return e.raw(e.hdr[:binary.PutUvarint(e.hdr[:], v)])
}

// encodeRecords writes the container's frame — kind, record count, every
// in-memory record as one length-prefixed Marshal(key)+Marshal(value) (the
// per-record encode cost Deca's page snapshot avoids), then the spill
// section. records calls emit once per record, n times in all.
func (s *boxedStore[K, V]) encodeRecords(w io.Writer, kind byte, n int, records func(emit func(K, V) error) error) error {
	if err := s.needSerializers(kind, "encode"); err != nil {
		return err
	}
	e := &wireEncoder{w: bufio.NewWriter(w)}
	e.hdr[0] = kind
	if err := e.raw(e.hdr[:1]); err != nil {
		return err
	}
	if err := e.uvarint(uint64(n)); err != nil {
		return err
	}
	err := records(func(k K, v V) error {
		e.scratch = s.cfg.ValSer.Marshal(s.cfg.KeySer.Marshal(e.scratch[:0], k), v)
		if err := e.uvarint(uint64(len(e.scratch))); err != nil {
			return err
		}
		return e.raw(e.scratch)
	})
	if err != nil {
		return err
	}
	if err := s.encode(e); err != nil {
		return err
	}
	return e.w.Flush()
}

// decodeRecords reads an encodeRecords frame inside the destination
// executor: every record deserializes into fresh objects handed to put
// (the §6.5 deserialization cost) and the spill runs land in the store's
// directory.
func (s *boxedStore[K, V]) decodeRecords(r WireReader, kind byte, put func(K, V)) error {
	if err := readKind(r, kind); err != nil {
		return err
	}
	if err := s.needSerializers(kind, "decode"); err != nil {
		return err
	}
	recName := kindName(kind) + " record"
	n, err := readCount(r, recName)
	if err != nil {
		return err
	}
	var buf []byte
	for i := 0; i < n; i++ {
		if buf, err = readLenBytes(r, buf, recName); err != nil {
			return err
		}
		k, kn := s.cfg.KeySer.Unmarshal(buf)
		if kn <= 0 {
			return fmt.Errorf("shuffle: %s %d: corrupt key", recName, i)
		}
		v, vn := s.cfg.ValSer.Unmarshal(buf[kn:])
		if vn <= 0 {
			return fmt.Errorf("shuffle: %s %d: corrupt value", recName, i)
		}
		put(k, v)
	}
	return s.restore(r)
}
