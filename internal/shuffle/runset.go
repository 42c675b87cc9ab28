package shuffle

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"deca/internal/decompose"
	"deca/internal/transport"
)

// spillFile is one on-disk run of encoded records shared by all buffer
// implementations. The record encoding is supplied by the buffer: Deca
// buffers write raw page-layout bytes, object buffers use the Kryo-like
// serializer — reproducing the asymmetry the paper measures (Spark pays
// serialization on spill; Deca's bytes are already in I/O form,
// Appendix C).
type spillFile struct {
	path string
	size int64
}

// spillWriter streams records into a run file through a buffered writer,
// so spilling never materializes the whole run in memory: Deca buffers
// emit value segments straight out of their pages, object buffers stage
// one record at a time in a reusable scratch buffer.
type spillWriter struct {
	w       *bufio.Writer
	n       int64
	scratch []byte
}

// emit appends b to the run.
func (w *spillWriter) emit(b []byte) error {
	_, err := w.Write(b)
	return err
}

// Write is emit as an io.Writer, for a page snapshot.
func (w *spillWriter) Write(b []byte) (int, error) {
	n, err := w.w.Write(b)
	w.n += int64(n)
	if err != nil {
		err = fmt.Errorf("shuffle: writing spill: %w", err)
	}
	return n, err
}

// stage returns the writer's scratch buffer resized to n bytes, growing
// it in place (no per-record throwaway allocation) and reusing it across
// records.
func (w *spillWriter) stage(n int) []byte {
	w.scratch = slices.Grow(w.scratch[:0], n)[:n]
	return w.scratch
}

// emitScratch writes whatever the caller built in buf — usually an
// extension of the staged buffer — and keeps the backing array for the
// next record.
func (w *spillWriter) emitScratch(buf []byte) error {
	w.scratch = buf[:0]
	return w.emit(buf)
}

// writeSpill streams records through fn into a new temp file in dir.
// fn emits any number of records through the writer; it is called once.
func writeSpill(dir string, fn func(w *spillWriter) error) (spillFile, error) {
	f, err := os.CreateTemp(dir, "deca-spill-*.bin")
	if err != nil {
		return spillFile{}, fmt.Errorf("shuffle: creating spill file: %w", err)
	}
	sw := &spillWriter{w: bufio.NewWriter(f)}
	if err := fn(sw); err != nil {
		f.Close()
		os.Remove(f.Name())
		return spillFile{}, err
	}
	if err := sw.w.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return spillFile{}, fmt.Errorf("shuffle: flushing spill: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return spillFile{}, fmt.Errorf("shuffle: closing spill: %w", err)
	}
	return spillFile{path: f.Name(), size: sw.n}, nil
}

// restoreSpill writes the next size bytes of r into a fresh run file in
// dir — the receiving end of a spill run that crossed the wire.
func restoreSpill(dir string, r io.Reader, size int64) (spillFile, error) {
	f, err := os.CreateTemp(dir, "deca-spill-*.bin")
	if err != nil {
		return spillFile{}, fmt.Errorf("shuffle: creating restored spill: %w", err)
	}
	if _, err := io.CopyN(f, r, size); err != nil {
		f.Close()
		os.Remove(f.Name())
		return spillFile{}, fmt.Errorf("shuffle: restoring spill: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return spillFile{}, fmt.Errorf("shuffle: closing restored spill: %w", err)
	}
	return spillFile{path: f.Name(), size: size}, nil
}

// read loads the whole run back into buf, grown when it is too short (nil:
// a buffer of the run's own), and returns it.
func (s spillFile) read(buf []byte) ([]byte, error) {
	f, err := os.Open(s.path)
	if err == nil {
		defer f.Close()
		buf = slices.Grow(buf[:0], int(s.size))[:s.size]
		_, err = io.ReadFull(f, buf)
	}
	if err != nil {
		return nil, fmt.Errorf("shuffle: reading spill %s: %w", s.path, err)
	}
	return buf, nil
}

// remove deletes the run file.
func (s spillFile) remove() {
	os.Remove(s.path)
}

// runSet is the on-disk half of one container lifetime: the spill runs a
// buffer wrote, took over from a merged source or restored off a frame.
// Both storage layers (pageStore, boxedStore) and so every container and
// staged frame hold exactly one, and only its methods add, move, replay
// or delete a run — a run file belongs to one set at a time and dies with
// it at release.
type runSet struct {
	dir      string // where runs are created and restored ("" = os temp dir)
	spills   []spillFile
	spilled  int64 // cumulative volume written, taken or restored
	released bool
}

// SpilledBytes returns the cumulative spill volume.
func (rs *runSet) SpilledBytes() int64 { return rs.spilled }

// write streams one run through fn into a new file and accounts it.
func (rs *runSet) write(fn func(w *spillWriter) error) error {
	run, err := writeSpill(rs.dir, fn)
	if err != nil {
		return err
	}
	rs.spills = append(rs.spills, run)
	rs.spilled += run.size
	return nil
}

// take moves src's runs into rs by file handle — the transfer MergeFrom
// and Fold share; src keeps its volume for the caller's accounting.
func (rs *runSet) take(src *runSet) {
	rs.spills = append(rs.spills, src.spills...)
	rs.spilled += src.spilled
	src.spills = nil
}

// replay folds every run back in: each is read whole, handed to fold,
// deleted, and dropped from the set at that moment. A failure on one run
// therefore leaves the set listing exactly the runs still on disk, so the
// retried replay — and any encode of the buffer in between — meets no
// deleted file, and the caller sees the error that actually happened. The
// runs are read one after the other into one buffer that lives as long as
// the replay: fold keeps nothing of run past its return but copies.
func (rs *runSet) replay(fold func(run []byte) error) error {
	var data []byte
	for len(rs.spills) > 0 {
		var err error
		if data, err = rs.spills[0].read(data); err != nil {
			return err
		}
		if err := fold(data); err != nil {
			return err
		}
		rs.spills[0].remove()
		rs.spills = rs.spills[1:]
	}
	return nil
}

// replayRuns replays runs of codec-delimited (key, value) records, decoded
// one by one through decode into put.
func replayRuns[K comparable, V any](rs *runSet, decode func([]byte) (decompose.Pair[K, V], int), put func(K, V)) error {
	return rs.replay(func(data []byte) error {
		for off := 0; off < len(data); {
			p, n := decode(data[off:])
			if n <= 0 {
				return io.ErrUnexpectedEOF
			}
			put(p.Key, p.Value)
			off += n
		}
		return nil
	})
}

// mergeSorted k-way merges the set's runs — each written in key order,
// decoded record by record through decode — with the sorted in-memory
// records mem. The runs are read, not consumed: a memoized shuffle output
// drains identically on every action, and release owns their deletion.
func mergeSorted[K comparable, V any](
	rs *runSet,
	decode func([]byte) (decompose.Pair[K, V], int),
	mem []decompose.Pair[K, V],
	less func(a, b K) bool,
	yield func(K, V) bool,
) error {
	runs := make([]*runCursor[K, V], 0, len(rs.spills)+1)
	for _, run := range rs.spills {
		data, err := run.read(nil)
		if err != nil {
			return err
		}
		runs = append(runs, &runCursor[K, V]{data: data, decode: decode})
	}
	runs = append(runs, &runCursor[K, V]{mem: mem})
	for _, rc := range runs {
		rc.advance()
	}
	return mergeRuns(runs, less, yield)
}

// restore reads a frame's spill section off r — uvarint run count, then
// per run a uvarint size and the raw file bytes — into fresh files under
// the set's directory. On error the runs that already landed stay in the
// set, for the owner's release.
func (rs *runSet) restore(r WireReader) error {
	n, err := readCount(r, "spill run")
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		size, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("shuffle: spill run %d size: %w", i, err)
		}
		if size > maxWireCount {
			return fmt.Errorf("shuffle: spill run %d size %d implausible", i, size)
		}
		run, err := restoreSpill(rs.dir, r, int64(size))
		if err != nil {
			return err
		}
		rs.spills = append(rs.spills, run)
		rs.spilled += run.size
	}
	return nil
}

// endFrame ends a container's frame with the spill section restore reads,
// each run's bytes served from an opened descriptor (the sendfile path),
// and returns it. On error the frame is released.
//
//deca:transfers
func (rs *runSet) endFrame(fs *transport.FrameSegments) (*transport.FrameSegments, error) {
	stageUvarint(fs, uint64(len(rs.spills)))
	for _, run := range rs.spills {
		stageUvarint(fs, uint64(run.size))
		f, err := os.Open(run.path)
		if err != nil {
			fs.Release()
			return nil, fmt.Errorf("shuffle: opening spill %s: %w", run.path, err)
		}
		fs.AppendFile(f, run.size)
	}
	return fs, nil
}

// release deletes the runs still in the set. It reports whether this call
// ended the lifetime (false: already released).
func (rs *runSet) release() bool {
	if rs.released {
		return false
	}
	rs.released = true
	for _, run := range rs.spills {
		run.remove()
	}
	rs.spills = nil
	return true
}

// runCursor iterates one sorted run: a spill run's records decoded one by
// one, or (decode nil) the in-memory records. A record that decodes to
// nothing ends the run with err.
type runCursor[K comparable, V any] struct {
	data   []byte
	decode func(src []byte) (decompose.Pair[K, V], int)
	mem    []decompose.Pair[K, V]
	at     int // the next record's offset in data, or index in mem
	cur    decompose.Pair[K, V]
	ok     bool
	err    error
}

func (rc *runCursor[K, V]) advance() {
	if rc.decode == nil {
		if rc.ok = rc.at < len(rc.mem); rc.ok {
			rc.cur, rc.at = rc.mem[rc.at], rc.at+1
		}
		return
	}
	if rc.ok = rc.at < len(rc.data); rc.ok {
		var n int
		if rc.cur, n = rc.decode(rc.data[rc.at:]); n <= 0 {
			rc.ok, rc.err = false, fmt.Errorf("shuffle: sorted run: no record decodes at offset %d", rc.at)
		}
		rc.at += n
	}
}

// mergeRuns k-way merges sorted runs by repeatedly taking the minimum key,
// and stops at a run that fails to decode. Run counts are small (spill
// count + 1), so a linear scan beats a heap.
func mergeRuns[K comparable, V any](runs []*runCursor[K, V], less func(a, b K) bool, yield func(K, V) bool) error {
	for {
		best := -1
		for i, rc := range runs {
			if rc.err != nil {
				return rc.err
			}
			if rc.ok && (best < 0 || less(rc.cur.Key, runs[best].cur.Key)) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		rec := runs[best].cur
		runs[best].advance()
		if !yield(rec.Key, rec.Value) {
			return nil
		}
	}
}
