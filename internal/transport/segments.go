package transport

import (
	"io"
	"net"
	"os"
	"sync"
)

// This file is the one representation of an encoded wire frame: a
// FrameSegments is the frame decomposed into wire-order segments instead
// of one staged byte buffer. Small metadata (kind bytes, key/pointer
// tables, varint headers) is staged into chunked scratch memory owned by
// the FrameSegments; raw container pages are referenced in place (served
// with one writev, never copied into user-space scratch); spill runs are
// referenced as open files (served with sendfile). A payload that can
// only write its frame (Payload.Encode) is normalised into the same form
// by staging what it writes — a FrameSegments is an io.Writer — so every
// serve, socket or executor-local, ships segments through WriteTo or
// reads them back through a segmentsReader.
//
// Ownership rule: the producer (EncodeSegments and friends) pins every
// resource a segment references — it retains the page group and opens
// the spill files — and hands the pins to the FrameSegments. The
// consumer must call Release exactly once, after the last byte of every
// segment has been written or abandoned; Release closes the files and
// runs the producer's release hooks (unpinning the group). Double
// release panics, like memory.Group.

// stageChunkSize is the scratch-chunk capacity staged segment bytes are
// carved from. Chunks are fixed-capacity so staged subslices stay valid
// as more segments are staged (append never reallocates within a chunk).
const stageChunkSize = 64 << 10

// stageChunks recycles standard-size scratch chunks across frames: every
// serve of every map output stages at least one, and a fresh 64 KiB per
// staged run was the serve path's largest allocation. A frame returns its
// chunks on Release and not before — the segments it handed out alias
// them until then.
var stageChunks = sync.Pool{New: func() any { return new([stageChunkSize]byte) }}

// Seg is one wire-order piece of a frame: either staged/page bytes
// (Buf != nil) or a file-backed run of Size bytes (File != nil).
type Seg struct {
	Buf  []byte
	File *os.File
	Size int64
}

// FrameSegments is an encoded frame as an ordered segment list. Build
// with Stage/Write/AppendPage/AppendFile, register cleanup with Owner,
// ship with WriteTo, then Release exactly once.
type FrameSegments struct {
	segs   []Seg
	owners []func()

	staged    int64 // bytes copied into scratch chunks (user-space copies)
	pageBytes int64 // bytes referenced in place from container pages
	fileBytes int64 // bytes referenced from spill files
	pages     int   // page segments referenced in place

	chunk       []byte                  // current scratch chunk; subslices are stable
	pooled      []*[stageChunkSize]byte // standard chunks to recycle on Release
	lastInChunk bool                    // last segment is a staged run ending at len(chunk)
	lastStart   int                     // its start offset in chunk
	released    bool
}

// NewFrameSegments returns an empty frame.
func NewFrameSegments() *FrameSegments {
	return &FrameSegments{}
}

// Stage reserves n bytes of scratch at the frame's current position and
// returns them for the caller to fill (varint headers, key tables).
// Adjacent staged runs coalesce into one segment, so fine-grained
// staging still yields few writev iovecs.
func (fs *FrameSegments) Stage(n int) []byte {
	if n <= 0 {
		return nil
	}
	if n > cap(fs.chunk)-len(fs.chunk) {
		if n > stageChunkSize {
			fs.chunk = make([]byte, 0, n)
		} else {
			c := stageChunks.Get().(*[stageChunkSize]byte)
			fs.pooled = append(fs.pooled, c)
			fs.chunk = c[:0]
		}
		fs.lastInChunk = false
	}
	start := len(fs.chunk)
	fs.chunk = fs.chunk[:start+n]
	b := fs.chunk[start : start+n : start+n]
	fs.staged += int64(n)
	if fs.lastInChunk {
		fs.segs[len(fs.segs)-1].Buf = fs.chunk[fs.lastStart : start+n : start+n]
	} else {
		fs.segs = append(fs.segs, Seg{Buf: b})
		fs.lastStart = start
		fs.lastInChunk = true
	}
	return b
}

// Write stages b at the frame's current position: the io.Writer an
// Encode-only payload's frame is normalised through.
func (fs *FrameSegments) Write(b []byte) (int, error) {
	copy(fs.Stage(len(b)), b)
	return len(b), nil
}

// AppendPage references p in place as the frame's next segment. The
// producer must keep p's backing memory live until Release (retain the
// owning group and hand its release to Owner).
func (fs *FrameSegments) AppendPage(p []byte) {
	if len(p) == 0 {
		return
	}
	fs.segs = append(fs.segs, Seg{Buf: p})
	fs.pageBytes += int64(len(p))
	fs.pages++
	fs.lastInChunk = false
}

// AppendFile references size bytes read from f's current offset as the
// frame's next segment. The FrameSegments owns f from here: Release
// closes it.
func (fs *FrameSegments) AppendFile(f *os.File, size int64) {
	fs.segs = append(fs.segs, Seg{File: f, Size: size})
	fs.fileBytes += size
	fs.lastInChunk = false
}

// Owner registers a release hook (e.g. a retained page group's Release)
// run once when the frame is released.
func (fs *FrameSegments) Owner(release func()) {
	fs.owners = append(fs.owners, release)
}

// WriteTo ships the frame in wire order — the one loop behind every
// socket serve and every EncodeWire. Consecutive byte segments go out as
// one net.Buffers write (a single writev on a TCP conn, plain writes into
// any other writer); file segments go through io.Copy from a
// LimitedReader, which *net.TCPConn turns into sendfile.
func (fs *FrameSegments) WriteTo(w io.Writer) (int64, error) {
	var total int64
	var batch net.Buffers
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		n, err := batch.WriteTo(w)
		total += n
		batch = batch[:0]
		return err
	}
	for _, seg := range fs.segs {
		if seg.File == nil {
			batch = append(batch, seg.Buf)
			continue
		}
		if err := flush(); err != nil {
			return total, err
		}
		n, err := io.Copy(w, &io.LimitedReader{R: seg.File, N: seg.Size})
		total += n
		if err == nil && n != seg.Size {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return total, err
		}
	}
	return total, flush()
}

// Len is the frame's total length in bytes — what the consumer's frame
// length header must announce.
func (fs *FrameSegments) Len() int64 { return fs.staged + fs.pageBytes + fs.fileBytes }

// Staged is the bytes copied through user-space scratch (the part of the
// frame that is not zero-copy).
func (fs *FrameSegments) Staged() int64 { return fs.staged }

// PageBytes is the bytes served in place from container pages.
func (fs *FrameSegments) PageBytes() int64 { return fs.pageBytes }

// FileBytes is the bytes served from spill files (the sendfile-eligible
// part of the frame).
func (fs *FrameSegments) FileBytes() int64 { return fs.fileBytes }

// Pages is the number of page segments served in place.
func (fs *FrameSegments) Pages() int { return fs.pages }

// Release ends the frame's lifetime: closes every file segment, runs the
// producer's release hooks and recycles the scratch chunks — segments
// obtained from Stage must not be read afterwards. Must be called exactly
// once; a second call panics (use-after-release of the referenced pages
// would corrupt an in-flight serve).
func (fs *FrameSegments) Release() {
	if fs.released {
		panic("transport: FrameSegments released twice")
	}
	fs.released = true
	for i := range fs.segs {
		if fs.segs[i].File != nil {
			fs.segs[i].File.Close()
		}
	}
	for _, release := range fs.owners {
		release()
	}
	for _, c := range fs.pooled {
		stageChunks.Put(c)
	}
	fs.segs, fs.owners, fs.chunk, fs.pooled = nil, nil, nil, nil
}

// segmentsReader streams a frame's segments as one io.Reader — the
// executor-local serve path, where no socket is involved but the
// consumer still decodes a byte stream.
type segmentsReader struct {
	segs []Seg
	off  int64 // read offset within segs[0] (buf segments only)
}

func newSegmentsReader(fs *FrameSegments) *segmentsReader {
	return &segmentsReader{segs: fs.segs}
}

func (r *segmentsReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for len(r.segs) > 0 {
		seg := &r.segs[0]
		if seg.File != nil {
			if r.off >= seg.Size {
				r.segs = r.segs[1:]
				r.off = 0
				continue
			}
			want := int64(len(p))
			if rem := seg.Size - r.off; rem < want {
				want = rem
			}
			n, err := seg.File.Read(p[:want])
			r.off += int64(n)
			if err == io.EOF && r.off < seg.Size {
				err = io.ErrUnexpectedEOF
			} else if err == io.EOF {
				err = nil
			}
			return n, err
		}
		if r.off >= int64(len(seg.Buf)) {
			r.segs = r.segs[1:]
			r.off = 0
			continue
		}
		n := copy(p, seg.Buf[r.off:])
		r.off += int64(n)
		return n, nil
	}
	return 0, io.EOF
}

func (r *segmentsReader) ReadByte() (byte, error) {
	var b [1]byte
	for {
		n, err := r.Read(b[:])
		if n == 1 {
			return b[0], nil
		}
		if err != nil {
			return 0, err
		}
	}
}
