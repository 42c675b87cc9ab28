package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"deca/internal/obs"
)

// releaseCounter is a frame owner that counts its releases, modelling the
// retained page group.
type releaseCounter struct{ n *atomic.Int32 }

func (c releaseCounter) Release() { c.n.Add(1) }

// buildSegments assembles a frame with every segment flavour: staged
// scratch bytes, in-place pages, and (optionally) a spill file — plus an
// owner counting releases.
func buildSegments(t *testing.T, pages [][]byte, spill []byte, releases *atomic.Int32) *FrameSegments {
	t.Helper()
	fs := NewFrameSegments()
	fs.Owner(releaseCounter{releases})
	var hdr [binary.MaxVarintLen64]byte
	copy(fs.Stage(binary.PutUvarint(hdr[:], uint64(len(pages)))), hdr[:])
	for _, p := range pages {
		copy(fs.Stage(binary.PutUvarint(hdr[:], uint64(len(p)))), hdr[:])
		fs.AppendPage(p)
	}
	if spill != nil {
		path := filepath.Join(t.TempDir(), "run")
		if err := os.WriteFile(path, spill, 0o600); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		fs.AppendFile(f, int64(len(spill)))
	}
	return fs
}

// flatten renders the frame the way EncodeWire would have written it.
func flatten(pages [][]byte, spill []byte) []byte {
	var buf bytes.Buffer
	var hdr [binary.MaxVarintLen64]byte
	buf.Write(hdr[:binary.PutUvarint(hdr[:], uint64(len(pages)))])
	for _, p := range pages {
		buf.Write(hdr[:binary.PutUvarint(hdr[:], uint64(len(p)))])
		buf.Write(p)
	}
	buf.Write(spill)
	return buf.Bytes()
}

func makePages(n, size int) [][]byte {
	pages := make([][]byte, n)
	for i := range pages {
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		pages[i] = p
	}
	return pages
}

// The segments reader must reproduce the buffered encoder's byte stream
// exactly, across staged/page/file boundaries, under both Read and
// ReadByte.
func TestFrameSegmentsReaderRoundTrip(t *testing.T) {
	pages := makePages(3, 257)
	spill := []byte("spilled run bytes, served via sendfile")
	var releases atomic.Int32
	fs := buildSegments(t, pages, spill, &releases)
	want := flatten(pages, spill)
	if fs.Len() != int64(len(want)) {
		t.Fatalf("Len %d, want %d", fs.Len(), len(want))
	}
	if got := fs.Staged() + fs.pageBytes + fs.FileBytes(); got != fs.Len() {
		t.Fatalf("segment byte classes sum to %d, want %d", got, fs.Len())
	}
	var got bytes.Buffer
	br := bufio.NewReaderSize(newSegmentsReader(fs), 7) // tiny buffer crosses every boundary
	for {
		b, err := br.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got.WriteByte(b)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("reader produced %d bytes != flattened frame %d", got.Len(), len(want))
	}
	fs.Release()
	if releases.Load() != 1 {
		t.Fatalf("owner released %d times, want 1", releases.Load())
	}
}

// Release is exactly-once: a second call must panic (the ownership bug
// it catches corrupts pinned pages), and owners run even when the frame
// was never read.
func TestFrameSegmentsReleaseExactlyOnce(t *testing.T) {
	var releases atomic.Int32
	fs := buildSegments(t, makePages(1, 64), nil, &releases)
	fs.Release()
	if releases.Load() != 1 {
		t.Fatalf("owner released %d times, want 1", releases.Load())
	}
	defer func() {
		if recover() == nil {
			t.Error("second Release did not panic")
		}
	}()
	fs.Release()
}

// Staged slices must stay valid as more staging follows: within-chunk
// appends may not move memory out from under earlier Stage returns.
func TestFrameSegmentsStagingStable(t *testing.T) {
	fs := NewFrameSegments()
	defer fs.Release()
	first := fs.Stage(4)
	copy(first, "abcd")
	for i := 0; i < 1000; i++ {
		copy(fs.Stage(100), bytes.Repeat([]byte{byte(i)}, 100))
	}
	if string(first) != "abcd" {
		t.Fatalf("early staged slice corrupted to %q", first)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(newSegmentsReader(fs)); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4+1000*100 {
		t.Fatalf("frame has %d bytes, want %d", got.Len(), 4+1000*100)
	}
	if string(got.Bytes()[:4]) != "abcd" {
		t.Fatalf("frame starts %q, want abcd", got.Bytes()[:4])
	}
}

// TestStagingAcrossHeadAndChunks builds random frames of staged runs
// (1-300 B, and one over a chunk) with pages and files between them, so
// staging crosses from the head into chunks and from chunk to chunk at
// every offset: the bytes WriteTo ships and the segments reader reads equal
// the flat frame, and every slice Stage returned still holds its bytes at
// Release.
func TestStagingAcrossHeadAndChunks(t *testing.T) {
	dir := t.TempDir()
	for seed := range int64(12) {
		rng := rand.New(rand.NewSource(seed))
		type op struct {
			run  []byte // staged, or
			page []byte // referenced in place, or
			file string // read from this spill file
		}
		var ops []op
		var want []byte
		n := 1 + rng.Intn(800)
		big := rng.Intn(n)
		for i := range n {
			var o op
			switch r := rng.Intn(10); {
			case i == big:
				o.run = make([]byte, stageChunkSize+1+rng.Intn(1000))
			case r < 7:
				o.run = make([]byte, 1+rng.Intn(300))
			case r < 9:
				o.page = make([]byte, 1+rng.Intn(5000))
			default:
				o.file = filepath.Join(dir, fmt.Sprintf("run-%d-%d", seed, i))
				body := make([]byte, rng.Intn(3000))
				rng.Read(body)
				if err := os.WriteFile(o.file, body, 0o600); err != nil {
					t.Fatal(err)
				}
				want = append(want, body...)
				ops = append(ops, o)
				continue
			}
			rng.Read(o.run)
			rng.Read(o.page)
			want = append(append(want, o.run...), o.page...)
			ops = append(ops, o)
		}
		// build stages ops into a fresh frame, half the runs through Write,
		// and returns the slices Stage gave the other half.
		type stagedRun struct{ got, want []byte }
		build := func() (*FrameSegments, []stagedRun) {
			fs := NewFrameSegments()
			var staged []stagedRun
			for i, o := range ops {
				switch {
				case o.run != nil && i%2 == 0:
					b := fs.Stage(len(o.run))
					copy(b, o.run)
					staged = append(staged, stagedRun{b, o.run})
				case o.run != nil:
					fs.Write(o.run)
				case o.page != nil:
					fs.AppendPage(o.page)
				default:
					f, err := os.Open(o.file)
					if err != nil {
						t.Fatal(err)
					}
					st, err := f.Stat()
					if err != nil {
						t.Fatal(err)
					}
					fs.AppendFile(f, st.Size())
				}
			}
			return fs, staged
		}
		release := func(fs *FrameSegments, staged []stagedRun) {
			for i, r := range staged {
				if !bytes.Equal(r.got, r.want) {
					t.Fatalf("seed %d: staged run %d (%d B) changed before Release", seed, i, len(r.got))
				}
			}
			fs.Release()
		}
		written, staged := build()
		var got bytes.Buffer
		if n, err := written.WriteTo(&got); err != nil || n != int64(len(want)) || written.Len() != n {
			t.Fatalf("seed %d: WriteTo wrote %d B (Len %d), err %v; want %d", seed, n, written.Len(), err, len(want))
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("seed %d: WriteTo's %d B differ from the flat frame", seed, got.Len())
		}
		release(written, staged)
		read, staged := build()
		b, err := io.ReadAll(bufio.NewReaderSize(newSegmentsReader(read), 16))
		if err != nil || !bytes.Equal(b, want) {
			t.Fatalf("seed %d: the segments reader read %d B (err %v), want the flat frame's %d", seed, len(b), err, len(want))
		}
		release(read, staged)
	}
}

// A frame's head and scratch chunks recycle on Release, never before:
// frames staged while earlier ones are still live (including right after
// another frame's Release put its scratch and chunk back) must not share
// backing memory.
func TestFrameSegmentsChunksRecycleOnlyOnRelease(t *testing.T) {
	NewFrameSegments().Release() // nothing staged: only the scratch recycles
	var live []*FrameSegments
	var staged [][]byte
	for i := 0; i < 8; i++ {
		done := NewFrameSegments()
		copy(done.Stage(64), bytes.Repeat([]byte{0xEE}, 64))
		copy(done.Stage(frameHeadSize), bytes.Repeat([]byte{0xEE}, frameHeadSize))
		done.Release() // its head and chunk are now up for reuse by the next frame

		fs := NewFrameSegments()
		head, chunk := fs.Stage(64), fs.Stage(frameHeadSize) // the second overflows the head
		copy(head, bytes.Repeat([]byte{byte(i)}, 64))
		copy(chunk, bytes.Repeat([]byte{byte(i)}, frameHeadSize))
		if len(fs.pooled) != 1 {
			t.Fatalf("a frame staging %d B took %d chunks, want 1", 64+frameHeadSize, len(fs.pooled))
		}
		// An oversized run gets its own unpooled chunk.
		copy(fs.Stage(stageChunkSize+1), bytes.Repeat([]byte{byte(i)}, stageChunkSize+1))
		live, staged = append(live, fs), append(staged, head, chunk)
	}
	for i, b := range staged {
		if !bytes.Equal(b, bytes.Repeat([]byte{byte(i / 2)}, len(b))) {
			t.Fatalf("frame %d's staged bytes (%d B) were overwritten while it was live", i/2, len(b))
		}
	}
	for _, fs := range live {
		fs.Release()
	}
}

// A released scratch and chunk outlive collections: the next frame takes
// them back instead of allocating, however many GCs ran in between, so a
// serve's allocation does not depend on when the collector last ran.
func TestStageChunksSurviveCollections(t *testing.T) {
	stage := func() {
		fs := NewFrameSegments()
		fs.Stage(64)
		fs.Stage(frameHeadSize) // overflows the head into a chunk
		fs.Release()
	}
	stage()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 8; i++ {
		runtime.GC()
		runtime.GC()
		stage()
	}
	runtime.ReadMemStats(&after)
	if d, scratch := after.TotalAlloc-before.TotalAlloc, uint64(unsafe.Sizeof(frameScratch{})); d >= 8*scratch {
		t.Fatalf("8 frames staged after collections allocated %d bytes; want less than one %d-byte scratch a frame", d, scratch)
	}
}

// A truncated spill file surfaces as ErrUnexpectedEOF, not silent short
// frames.
func TestFrameSegmentsShortFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run")
	if err := os.WriteFile(path, []byte("short"), 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFrameSegments()
	defer fs.Release()
	fs.AppendFile(f, 64) // claims more than the file holds
	_, err = io.ReadAll(newSegmentsReader(fs))
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

// segPayload registers a vectored payload over raw pages for data-plane
// tests; every serve builds a fresh FrameSegments and counts its release.
type segPayload struct {
	pages    [][]byte
	spill    []byte
	t        *testing.T
	releases atomic.Int32
	serves   atomic.Int32
}

func (s *segPayload) payload() Payload {
	frame := flatten(s.pages, s.spill)
	return Payload{
		Data:     s,
		Bytes:    int64(len(frame)),
		MemBytes: int64(len(frame)),
		Encode: func(w io.Writer) error {
			_, err := w.Write(frame)
			return err
		},
		Segments: func() (*FrameSegments, error) {
			s.serves.Add(1)
			return buildSegments(s.t, s.pages, s.spill, &s.releases), nil
		},
	}
}

// A connection reset mid-writev must leave the registration served-but-
// pinned — the stage-commit rule — and every in-flight FrameSegments
// must still be released exactly once. A clean re-fetch then succeeds
// with the full frame.
func TestServeSegmentsConnResetKeepsRegistration(t *testing.T) {
	srv, err := NewDataServer("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A frame far beyond the socket buffers, so the serve is still
	// writing when the reader walks away.
	sp := &segPayload{pages: makePages(64, 256<<10), t: t}
	id := MapOutputID{Shuffle: 1, MapTask: 0, Reduce: 0}
	srv.Put(id, sp.payload())

	// Raw client: send a FETCH request, read a token amount of the
	// response, then slam the connection shut mid-transfer.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var hdr [binary.MaxVarintLen64]byte
	var reqBuf bytes.Buffer
	reqBuf.Write(hdr[:binary.PutUvarint(hdr[:], 1)])
	reqBuf.Write(hdr[:binary.PutUvarint(hdr[:], 0)])
	reqBuf.Write(hdr[:binary.PutUvarint(hdr[:], 0)])
	if _, err := conn.Write(reqBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	tiny := make([]byte, 4096)
	if _, err := io.ReadFull(conn, tiny); err != nil {
		t.Fatal(err)
	}
	conn.Close() // mid-writev: the server's next write fails

	// The serve must wind down, releasing its frame but not the entry.
	deadline := time.Now().Add(5 * time.Second)
	for sp.releases.Load() != sp.serves.Load() || sp.serves.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("serve did not release its frame (serves=%d releases=%d)",
				sp.serves.Load(), sp.releases.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if srv.Counters()[obs.ShuffleOutputsPinned] != 1 {
		t.Fatalf("registration count %d after reset, want 1 (still pinned)", srv.Counters()[obs.ShuffleOutputsPinned])
	}

	// A clean retry re-serves the same registration in full.
	client := NewDataClient(10 * time.Second)
	defer client.Close()
	dec, _, found, err := client.FetchInto(srv.Addr(), id, openBytes)
	if err != nil || !found {
		t.Fatalf("retried fetch: found=%v err=%v", found, err)
	}
	want := flatten(sp.pages, sp.spill)
	if frame := dec.Data.([]byte); !bytes.Equal(frame, want) {
		t.Fatalf("retried fetch got %d bytes, want %d", len(frame), len(want))
	}
	if got := sp.releases.Load(); got != sp.serves.Load() {
		t.Fatalf("frames released %d of %d serves", got, sp.serves.Load())
	}
	if srv.Counters()[obs.ShuffleOutputsPinned] != 1 {
		t.Fatalf("registration count %d after retry, want 1", srv.Counters()[obs.ShuffleOutputsPinned])
	}
}

// The streaming decode path: a fetch with an opener lands the frame in
// decoder-owned memory without the client ever holding the whole frame,
// and a decoder error retires the connection but leaves the server
// registration pinned for retry.
func TestFetchIntoStreamingDecode(t *testing.T) {
	srv, err := NewDataServer("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sp := &segPayload{pages: makePages(4, 8192), spill: []byte("tail"), t: t}
	id := MapOutputID{Shuffle: 2, MapTask: 1, Reduce: 3}
	srv.Put(id, sp.payload())
	want := flatten(sp.pages, sp.spill)

	client := NewDataClient(10 * time.Second)
	defer client.Close()

	// A failing opener: the error must surface, and the entry stays.
	boom := fmt.Errorf("decode exploded")
	_, _, _, err = client.FetchInto(srv.Addr(), id, func(r FrameReader, size int64) (Decoded, error) {
		var b [100]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return Decoded{}, err
		}
		return Decoded{}, boom
	})
	if err == nil {
		t.Fatal("decoder error did not surface")
	}
	if srv.Counters()[obs.ShuffleOutputsPinned] != 1 {
		t.Fatalf("registration count %d after decode error, want 1", srv.Counters()[obs.ShuffleOutputsPinned])
	}

	// A streaming opener consuming exactly the frame succeeds.
	var streamed bytes.Buffer
	dec, size, found, err := client.FetchInto(srv.Addr(), id, func(r FrameReader, size int64) (Decoded, error) {
		if _, err := streamed.ReadFrom(r); err != nil {
			return Decoded{}, err
		}
		return Decoded{Data: "decoded", MemBytes: 7}, nil
	})
	if err != nil || !found {
		t.Fatalf("FetchInto: found=%v err=%v", found, err)
	}
	if size != int64(len(want)) || !bytes.Equal(streamed.Bytes(), want) {
		t.Fatalf("streamed %d bytes (size %d), want %d", streamed.Len(), size, len(want))
	}
	if dec.Data != "decoded" || dec.MemBytes != 7 {
		t.Fatalf("decoded payload %+v", dec)
	}

	// An under-consuming opener is a protocol error.
	_, _, _, err = client.FetchInto(srv.Addr(), id, func(r FrameReader, size int64) (Decoded, error) {
		return Decoded{}, nil // consumed nothing
	})
	if err == nil {
		t.Fatal("under-consumption did not error")
	}
	// The client gave up mid-frame; the server may still be inside that
	// serve. TakeAll waits the entry's in-flight serves out, and a serve
	// releases its frame before it ends.
	srv.store.takeAll([]MapOutputID{id})
	if sp.releases.Load() != sp.serves.Load() {
		t.Fatalf("frames released %d of %d serves", sp.releases.Load(), sp.serves.Load())
	}
}

// One serve path, two payload forms: an Encode-only payload (what Object
// containers register) and a Segments payload of the same bytes fetch
// identically over the socket and executor-locally — and differ only in
// the copy accounting: a staged frame is all user-space copy, a segment frame
// copies just its headers, serves its pages in place and (over the socket)
// its spill bytes through sendfile.
func TestEncodeOnlyAndSegmentsPayloadsFetchIdentically(t *testing.T) {
	sp := &segPayload{pages: makePages(3, 8192), spill: []byte("spill-run-bytes"), t: t}
	frame := flatten(sp.pages, sp.spill)
	headers := int64(len(frame) - 3*8192 - len(sp.spill))
	forms := map[string]struct {
		p         Payload
		staged    int64 // user-space copy per fetch, socket and local alike
		pages     int64 // pages served in place per fetch
		sendfiled int64 // per socket fetch (a local one never sendfiles)
	}{
		"encode-only": {
			p:      Payload{Data: sp, Encode: func(w io.Writer) error { _, err := w.Write(frame); return err }},
			staged: int64(len(frame)),
		},
		"segments": {
			p:      Payload{Data: sp, Segments: sp.payload().Segments},
			staged: headers, pages: 3, sendfiled: int64(len(sp.spill)),
		},
	}
	for name, form := range forms {
		tr, err := NewTCP(LoopbackAddrs(2), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		id := MapOutputID{Shuffle: 1, MapTask: 0, Reduce: 0}
		form.p.SrcExecutor = 0
		mustRegister(t, tr, id, form.p)
		for _, dst := range []int{1, 0} { // over the socket, then local
			if got := mustFetch(t, tr, id, dst); got != string(frame) {
				t.Errorf("%s: fetch to executor %d returned a different frame (%d bytes)", name, dst, len(got))
			}
		}
		// The verdict waits out the socket serve. Both serves were the
		// holder's (executor 0's); the fetching node served nothing.
		tr.Commit([]MapOutputID{id})
		var want obs.CounterValues
		want[obs.ServeFrameBytes] = 2 * int64(len(frame))
		want[obs.ServeUserspaceCopyBytes] = 2 * form.staged
		want[obs.PagesServedZeroCopy] = 2 * form.pages
		want[obs.BytesSendfile] = form.sendfiled
		if got := tr.Counters(0); got != want {
			t.Errorf("%s: holder's counters %v, want %v", name, got, want)
		}
		if got := tr.Counters(1); got != (obs.CounterValues{}) {
			t.Errorf("%s: the fetching node counted %v", name, got)
		}
	}
	if sp.releases.Load() != sp.serves.Load() {
		t.Errorf("frames released %d of %d serves", sp.releases.Load(), sp.serves.Load())
	}
}
