package shuffle

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"deca/internal/decompose"
	"deca/internal/freelist"
	"deca/internal/memory"
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
// write value segments straight out of their pages, object buffers
// serialize one record at a time into scratch, reused across records.
type spillWriter struct {
	*bufio.Writer
	scratch []byte
}

// runWriters recycles spill writers, buffer and scratch, across runs and
// containers, so neither writing nor restoring a run allocates per run.
// Eight slots (256 KiB of buffers) cover two reduce tasks, each staging the
// engine's four concurrent fetches (fetchConcurrency).
var runWriters = freelist.New(8, runWriterBytes, func() *spillWriter {
	return &spillWriter{Writer: bufio.NewWriterSize(nil, runWriterBytes)}
})

const runWriterBytes = 32 << 10 // a run writer's buffer

// land appends the next size bytes of r to the run, each read landing in
// the writer's free buffer space: no copy buffer beside it (a copy into
// the file allocates one per call).
func (w *spillWriter) land(r io.Reader, size int64) error {
	for size > 0 {
		if w.Available() == 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		free := w.AvailableBuffer()
		n, err := r.Read(free[:min(int64(cap(free)), size)])
		w.Write(free[:n]) // into its own free space: no flush, no error
		if size -= int64(n); err != nil && size > 0 {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// fold hands the run to fold as a read-only mapping of its file
// (memory.MapFile, which first checks that the file holds exactly the
// bytes recorded for the run) and unmaps it when fold returns, a panic
// included: fold keeps nothing of run but copies, and a view kept past the
// unmap would fault, not read stale bytes.
func (s spillFile) fold(fold func(run []byte) error) error {
	m, err := memory.MapFile(s.path, s.size)
	if err != nil {
		return fmt.Errorf("shuffle: reading spill %s: %w", s.path, err)
	}
	defer m.Release()
	return fold(m.Bytes())
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

// write streams one run through fn, called once, into a new file under
// the set's directory with a writer borrowed from runWriters, and accounts
// it — a spill and a restore alike. On error the file is removed.
func (rs *runSet) write(fn func(w *spillWriter) error) error {
	f, err := os.CreateTemp(rs.dir, "deca-spill-*.bin")
	if err != nil {
		return fmt.Errorf("shuffle: creating spill: %w", err)
	}
	w := runWriters.Get()
	w.Reset(f)
	if err = fn(w); err == nil {
		err = w.Flush()
	}
	w.Reset(nil)
	runWriters.Put(w)
	run := spillFile{path: f.Name()}
	if err == nil {
		run.size, err = f.Seek(0, io.SeekCurrent)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		run.remove()
		return fmt.Errorf("shuffle: writing spill: %w", err)
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

// replay folds every run back in: each is mapped where it lies, handed to
// fold (spillFile.fold), unmapped, deleted, and dropped from the set at
// that moment. A failure on one run therefore leaves the set listing
// exactly the runs still on disk, so the retried replay — and any encode
// of the buffer in between — meets no deleted file, and the caller sees
// the error that actually happened. No run's bytes pass through the Go
// heap.
func (rs *runSet) replay(fold func(run []byte) error) error {
	for len(rs.spills) > 0 {
		if err := rs.spills[0].fold(fold); err != nil {
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
		if err := rs.write(func(w *spillWriter) error { return w.land(r, int64(size)) }); err != nil {
			return fmt.Errorf("shuffle: restoring spill run %d: %w", i, err)
		}
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
