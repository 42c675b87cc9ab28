//go:build !race

package transport_test

import (
	"runtime"
	"testing"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/obs"
	"deca/internal/shuffle"
	"deca/internal/transport"
)

const pageSize = 4096

func addI(a, b int64) int64 { return a + b }

// decaOutput is a sealed DecaAgg map output of keys 0..keys-1 (value 2i)
// as the engine registers it: the first half of the keys spilled as one
// run, the rest in pages.
func decaOutput(t *testing.T, keys int) transport.Payload {
	t.Helper()
	agg, err := shuffle.NewDecaAgg[int64, int64](memory.NewManager(pageSize, 0), addI,
		decompose.Int64Codec{}, decompose.Int64Codec{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		agg.Put(int64(i), 2*int64(i))
		if i == keys/2 {
			if err := agg.Spill(); err != nil {
				t.Fatal(err)
			}
		}
	}
	agg.Seal()
	return transport.Payload{Data: agg, Bytes: agg.SizeBytes() + agg.SpilledBytes(),
		MemBytes: agg.SizeBytes(), Segments: agg.EncodeSegments}
}

// stageOn is the engine's opener: the frame stages into mem and dir as it
// streams.
func stageOn(mem *memory.Manager, dir string) transport.FrameOpen {
	return func(r transport.FrameReader, _ int64) (transport.Decoded, error) {
		st, err := shuffle.Stage(r, mem, dir)
		if err != nil {
			return transport.Decoded{}, err
		}
		return transport.Decoded{Data: st, MemBytes: st.SizeBytes()}, nil
	}
}

// drained folds a fetched frame into a fresh DecaAgg and returns its
// records.
func drained(t *testing.T, p transport.Payload, mem *memory.Manager, dir string) map[int64]int64 {
	t.Helper()
	agg, err := shuffle.NewDecaAgg[int64, int64](mem, addI, decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Release()
	if err := agg.Fold(p.Data.(*shuffle.Staged)); err != nil {
		t.Fatal(err)
	}
	recs := map[int64]int64{}
	if err := agg.Drain(func(k, v int64) bool { recs[k] = v; return true }); err != nil {
		t.Fatal(err)
	}
	return recs
}

// localServeBytes bounds the Go heap one executor-local fetch of a Deca
// frame allocates, staging included: this serve measured 1,120-1,136 B for
// a 1-page frame and 2,888-2,904 B for a 64-page one; the bound is 2,888 B
// plus 25 %. The serve before it, which wrapped each frame in a 4 KiB
// bufio.Reader and built each frame's segment list afresh, measured 5,616 B
// and 19,034 B. What the 64-page frame costs beyond the 1-page one is the
// restored group's page list, one slice header a page (pageListBytes).
const (
	localServeBytes = 3_610
	pageListBytes   = 32
	runs            = 20 // fetches per measurement
)

// TestLocalServeReadsTheFrameInPlace: an executor-local fetch of a Deca
// frame (pages plus one spill run) costs the same few KiB of Go heap for a
// 1-page and a 64-page frame, but for the restored group's page list — the
// pages restore into the destination's manager, and neither a reader
// buffer nor a fresh segment list is allocated per serve — and the staged
// container drains the same records as the socket serve of the same frame.
// (The race detector changes allocation counts, so plain builds only.)
func TestLocalServeReadsTheFrameInPlace(t *testing.T) {
	tr, err := transport.NewTCP(transport.LoopbackAddrs(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	mem, dir := memory.NewManager(pageSize, 0), t.TempDir()
	var onePage uint64
	for i, c := range []struct{ keys, pages int }{{200, 1}, {30_700, 64}} {
		id := transport.MapOutputID{Shuffle: 1, MapTask: i}
		if err := tr.Register(id, decaOutput(t, c.keys)); err != nil {
			t.Fatal(err)
		}
		fetch := func(dst int) transport.Payload {
			p, ok, err := tr.Fetch(id, dst, stageOn(mem, dir))
			if err != nil || !ok {
				t.Fatalf("Fetch to executor %d: ok=%v err=%v", dst, ok, err)
			}
			return p
		}
		// The warm-up grows the recycled scratches' segment lists to this frame
		// and leaves the staging's spill run writer in its free list, which
		// neither a collection nor the P a fetch runs on takes it from.
		before := tr.Counters(0)[obs.PagesServedZeroCopy]
		for range runs {
			fetch(0).Data.(*shuffle.Staged).Release()
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for range runs {
			fetch(0).Data.(*shuffle.Staged).Release()
		}
		runtime.ReadMemStats(&ms1)
		if pages := (tr.Counters(0)[obs.PagesServedZeroCopy] - before) / (2 * runs); pages != int64(c.pages) {
			t.Fatalf("the frame of %d keys served %d pages, want %d", c.keys, pages, c.pages)
		}
		perFetch := (ms1.TotalAlloc - ms0.TotalAlloc) / runs
		t.Logf("%d-page frame: %d B of Go heap per local fetch", c.pages, perFetch)
		if perFetch > localServeBytes {
			t.Errorf("a local fetch of a %d-page frame allocated %d B, want at most %d", c.pages, perFetch, localServeBytes)
		}
		if i == 0 {
			onePage = perFetch
		} else if perFetch > onePage+uint64(c.pages)*pageListBytes {
			t.Errorf("a local fetch of a %d-page frame allocated %d B, a 1-page one %d B: more than the restored page list apart", c.pages, perFetch, onePage)
		}

		local, remote := drained(t, fetch(0), mem, dir), drained(t, fetch(1), mem, dir)
		if len(local) != c.keys || len(remote) != c.keys {
			t.Fatalf("drained %d keys locally and %d over the socket, want %d", len(local), len(remote), c.keys)
		}
		for k, v := range remote {
			if local[k] != v || v != 2*k {
				t.Fatalf("key %d: local %d, socket %d, want %d", k, local[k], v, 2*k)
			}
		}
		for _, p := range tr.Commit([]transport.MapOutputID{id}) {
			p.Data.(*shuffle.DecaAgg[int64, int64]).Release()
		}
	}
	if got := mem.Counters()[obs.PageBytesInUse]; got != 0 {
		t.Errorf("%d page bytes still in use after every fetch was released", got)
	}
}

// connFetchBytes bounds the Go heap a new socket connection and one fetch
// of a 1-page Deca frame over it allocate, on the dialing and the serving
// side together, staging included: 3,320-3,365 B with the client's 64 B
// response reader; the bound is 3,365 B plus 25 %. A default 4 KiB
// response reader measured 7,432-7,732 B, and a connection that also kept
// a 4 KiB bufio.Writer on each side and a 4 KiB request reader on the
// serving one 19,752-20,324 B.
const connFetchBytes = 4_206

// TestConnectionKeepsNoWriteBuffer: a data connection keeps only the
// buffer its responses are read through, sized for a response's header.
// The server reads a request through a reader sized for one and writes a
// response's header with its frame, and the client writes a request in one
// write, so neither side allocates a write buffer per connection.
// (The race detector changes allocation counts, so plain builds only.)
func TestConnectionKeepsNoWriteBuffer(t *testing.T) {
	srv, err := transport.NewDataServer("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	id := transport.MapOutputID{Shuffle: 1}
	srv.Put(id, decaOutput(t, 200))
	defer srv.Discard(id)
	mem, dir := memory.NewManager(pageSize, 0), t.TempDir()
	fetch := func() {
		cl := transport.NewDataClient(0)
		defer cl.Close()
		dec, _, found, err := cl.FetchInto(srv.Addr(), id, stageOn(mem, dir))
		if err != nil || !found {
			t.Fatalf("FetchInto: found=%v err=%v", found, err)
		}
		dec.Data.(*shuffle.Staged).Release()
	}
	// A serve releases its frame after its last byte left, so the next
	// connection's serve may begin before the last one gave its scratch back:
	// the warm-up holds two frames open across a fetch, which leaves the
	// free list a frame scratch more than one serve takes.
	held := []*transport.FrameSegments{transport.NewFrameSegments(), transport.NewFrameSegments()}
	fetch()
	for _, fs := range held {
		fs.Release()
	}
	for range runs {
		fetch()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for range runs {
		fetch()
	}
	runtime.ReadMemStats(&ms1)
	perConn := (ms1.TotalAlloc - ms0.TotalAlloc) / runs
	t.Logf("%d B of Go heap per connection and fetch", perConn)
	if perConn > connFetchBytes {
		t.Errorf("a new connection and one fetch allocated %d B, want at most %d", perConn, connFetchBytes)
	}
}
