package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBuf is a payload body with a wire form and release tracking.
type fakeBuf struct {
	frame    []byte
	released atomic.Bool
}

func (f *fakeBuf) Release() {
	if f.released.Swap(true) {
		panic("fakeBuf released twice")
	}
}

func (f *fakeBuf) payload(src int) Payload {
	return Payload{
		Data:        f,
		SrcExecutor: src,
		Bytes:       int64(len(f.frame)),
		MemBytes:    int64(len(f.frame)),
		Encode: func(w io.Writer) error {
			_, err := w.Write(f.frame)
			return err
		},
	}
}

func newTCPT(t *testing.T, execs int) *TCP {
	t.Helper()
	tr, err := NewTCP(LoopbackAddrs(execs), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestTCPConfigurableListenAddrs: explicit host:port listen addresses
// are honored and advertised back via Addrs — the registration-time
// advertisement the multi-process deployment depends on.
func TestTCPConfigurableListenAddrs(t *testing.T) {
	// Reserve two concrete ports, then hand them to NewTCP explicitly.
	reserve := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	want := []string{reserve(), reserve()}
	tr, err := NewTCP(want, 0)
	if err != nil {
		t.Fatalf("NewTCP(%v): %v", want, err)
	}
	t.Cleanup(func() { tr.Close() })
	got := tr.Addrs()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("executor %d listens on %s, want %s", i, got[i], want[i])
		}
	}
	// A cross-executor fetch still works on the explicit endpoints.
	buf := &fakeBuf{frame: []byte("addressed")}
	id := MapOutputID{Shuffle: 3, MapTask: 1, Reduce: 0}
	tr.Register(id, buf.payload(0))
	p, ok, err := tr.Fetch(id, 1, nil)
	if err != nil || !ok {
		t.Fatalf("fetch over explicit addrs = (ok=%v, err=%v)", ok, err)
	}
	if w, isWire := p.Data.(Wire); !isWire || string(w.Frame) != "addressed" {
		t.Errorf("fetch payload = %+v", p.Data)
	}
}

func TestTCPLocalFetchServesFrameWithoutConsuming(t *testing.T) {
	tr := newTCPT(t, 2)
	buf := &fakeBuf{frame: []byte("hello")}
	id := MapOutputID{Shuffle: 1, MapTask: 0, Reduce: 0}
	tr.Register(id, buf.payload(1))

	p, ok, _ := tr.Fetch(id, 1, nil)
	if !ok {
		t.Fatal("local fetch missed")
	}
	if w, isWire := p.Data.(Wire); !isWire || string(w.Frame) != "hello" {
		t.Errorf("local fetch returned %+v, want the encoded frame", p.Data)
	}
	if buf.released.Load() {
		t.Error("local fetch must not release the source (it stays pinned until commit)")
	}
	st := tr.Stats()
	if st.LocalFetches != 1 || st.RemoteFetches != 0 || st.LocalBytes != 5 {
		t.Errorf("stats = %+v", st)
	}
	if tr.Pending() != 1 {
		t.Errorf("pending = %d, want the source still registered", tr.Pending())
	}
	for _, c := range tr.Commit([]MapOutputID{id}) {
		releasePayload(c)
	}
	if !buf.released.Load() || tr.Pending() != 0 {
		t.Error("commit must release the pinned source")
	}
}

func TestTCPRemoteFetchIsMultiConsumerUntilCommit(t *testing.T) {
	tr := newTCPT(t, 3)
	buf := &fakeBuf{frame: []byte("wire-frame-bytes")}
	id := MapOutputID{Shuffle: 2, MapTask: 1, Reduce: 4}
	tr.Register(id, buf.payload(0))

	p, ok, _ := tr.Fetch(id, 2, nil)
	if !ok {
		t.Fatal("remote fetch missed")
	}
	w, isWire := p.Data.(Wire)
	if !isWire {
		t.Fatalf("remote fetch returned %T, want Wire", p.Data)
	}
	if string(w.Frame) != "wire-frame-bytes" {
		t.Errorf("frame = %q", w.Frame)
	}
	if p.SrcExecutor != 0 || p.Bytes != int64(len(w.Frame)) || p.MemBytes != p.Bytes {
		t.Errorf("payload metadata = %+v", p)
	}
	if buf.released.Load() {
		t.Error("serving a frame must not release the pinned source")
	}
	st := tr.Stats()
	if st.RemoteFetches != 1 || st.RemoteBytes != int64(len(w.Frame)) {
		t.Errorf("stats = %+v", st)
	}
	// Multi-consumer: a second fetch (a reduce retry) serves again.
	p2, ok, _ := tr.Fetch(id, 1, nil)
	if !ok {
		t.Fatal("second fetch of a served id must succeed until commit")
	}
	if w2 := p2.Data.(Wire); string(w2.Frame) != "wire-frame-bytes" {
		t.Errorf("re-served frame = %q", w2.Frame)
	}
	for _, c := range tr.Commit([]MapOutputID{id}) {
		releasePayload(c)
	}
	if !buf.released.Load() {
		t.Error("commit must release the source buffer")
	}
	if _, ok, _ := tr.Fetch(id, 2, nil); ok {
		t.Error("fetch after commit must miss")
	}
	if tr.Pending() != 0 {
		t.Errorf("pending = %d", tr.Pending())
	}
}

func TestTCPFetchUnknownAndUnencodable(t *testing.T) {
	tr := newTCPT(t, 2)
	if _, ok, _ := tr.Fetch(MapOutputID{Shuffle: 9}, 0, nil); ok {
		t.Error("fetch of unregistered id should miss")
	}
	// A payload with no wire form cannot be copied: remote fetches miss
	// (the entry survives for a local consumer), and a local fetch falls
	// back to the consuming pointer handover.
	buf := &fakeBuf{frame: []byte("x")}
	id := MapOutputID{Shuffle: 3, MapTask: 0, Reduce: 0}
	tr.Register(id, Payload{Data: buf, SrcExecutor: 0, Bytes: 1})
	if _, ok, _ := tr.Fetch(id, 1, nil); ok {
		t.Error("remote fetch of unencodable payload should miss")
	}
	if buf.released.Load() {
		t.Error("a failed remote serve must not release the entry (a local consumer can still take it)")
	}
	if tr.Pending() != 1 {
		t.Errorf("pending = %d, want 1", tr.Pending())
	}
	p, ok, _ := tr.Fetch(id, 0, nil)
	if !ok || p.Data != buf {
		t.Fatalf("local fetch of unencodable payload = %+v, %v, want the pointer handover", p, ok)
	}
	if tr.Pending() != 0 {
		t.Errorf("pending = %d after the consuming fallback", tr.Pending())
	}
}

func TestTCPDropReturnsRegisteredIncludingServed(t *testing.T) {
	tr := newTCPT(t, 4)
	var bufs []*fakeBuf
	for m := 0; m < 4; m++ {
		b := &fakeBuf{frame: []byte{byte(m)}}
		bufs = append(bufs, b)
		tr.Register(MapOutputID{Shuffle: 5, MapTask: m, Reduce: 0}, b.payload(m))
	}
	other := &fakeBuf{frame: []byte("other")}
	tr.Register(MapOutputID{Shuffle: 6, MapTask: 0, Reduce: 0}, other.payload(0))

	// A served output stays registered, so Drop still returns it.
	if _, ok, _ := tr.Fetch(MapOutputID{Shuffle: 5, MapTask: 2, Reduce: 0}, 1, nil); !ok {
		t.Fatal("fetch failed")
	}
	dropped := tr.Drop(5)
	if len(dropped) != 4 {
		t.Fatalf("dropped %d payloads, want 4 (serving does not consume)", len(dropped))
	}
	for _, p := range dropped {
		releasePayload(p)
	}
	for m, b := range bufs {
		if !b.released.Load() {
			t.Errorf("map %d output not released after drop+release", m)
		}
	}
	if tr.Pending() != 1 {
		t.Errorf("pending = %d, want 1 (shuffle 6 untouched)", tr.Pending())
	}
}

func TestTCPRegisterTwiceReturnsReplaced(t *testing.T) {
	tr := newTCPT(t, 3)
	id := MapOutputID{Shuffle: 7, MapTask: 0, Reduce: 0}
	old := &fakeBuf{frame: []byte("old")}
	if _, replaced := tr.Register(id, old.payload(0)); replaced {
		t.Fatal("first Register reported a replacement")
	}
	// Task retry re-registers on a different executor: the displaced
	// payload comes back so the caller can release it.
	fresh := &fakeBuf{frame: []byte("new")}
	prev, replaced := tr.Register(id, fresh.payload(2))
	if !replaced || prev.Data != old {
		t.Fatalf("Register replace = (%+v, %v), want the old payload", prev, replaced)
	}
	releasePayload(prev)
	if !old.released.Load() {
		t.Error("released replaced payload still live")
	}
	p, ok, _ := tr.Fetch(id, 2, nil)
	if !ok {
		t.Fatal("fetch after replace missed")
	}
	if w, isWire := p.Data.(Wire); !isWire || string(w.Frame) != "new" {
		t.Fatalf("fetch after replace = %+v", p.Data)
	}
	for _, c := range tr.Commit([]MapOutputID{id}) {
		releasePayload(c)
	}
	if !fresh.released.Load() || tr.Pending() != 0 {
		t.Error("abort must release the replacement entry")
	}
}

func TestInProcessRegisterTwiceReturnsReplaced(t *testing.T) {
	tr := NewInProcess()
	id := MapOutputID{Shuffle: 1, MapTask: 2, Reduce: 3}
	if _, replaced := tr.Register(id, Payload{Data: "a"}); replaced {
		t.Fatal("first Register reported a replacement")
	}
	prev, replaced := tr.Register(id, Payload{Data: "b"})
	if !replaced || prev.Data != "a" {
		t.Fatalf("Register replace = (%+v, %v)", prev, replaced)
	}
	p, _, _ := tr.Fetch(id, 0, nil)
	if p.Data != "b" {
		t.Errorf("fetch after replace = %v", p.Data)
	}
}

func TestTCPConcurrentFetches(t *testing.T) {
	const execs = 4
	const n = 120
	tr := newTCPT(t, execs)
	bufs := make([]*fakeBuf, n)
	for i := 0; i < n; i++ {
		bufs[i] = &fakeBuf{frame: []byte(fmt.Sprintf("frame-%04d", i))}
		tr.Register(MapOutputID{Shuffle: 1, MapTask: i, Reduce: 0}, bufs[i].payload(i%execs))
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dst := (i + 1) % execs
			p, ok, _ := tr.Fetch(MapOutputID{Shuffle: 1, MapTask: i, Reduce: 0}, dst, nil)
			if !ok {
				t.Errorf("fetch %d missed", i)
				return
			}
			want := fmt.Sprintf("frame-%04d", i)
			switch d := p.Data.(type) {
			case Wire:
				if string(d.Frame) != want {
					t.Errorf("fetch %d: frame %q, want %q", i, d.Frame, want)
				}
			case *fakeBuf:
				if string(d.frame) != want {
					t.Errorf("fetch %d: local buf %q, want %q", i, d.frame, want)
				}
			default:
				t.Errorf("fetch %d: unexpected payload %T", i, p.Data)
			}
		}(i)
	}
	wg.Wait()
	st := tr.Stats()
	if st.LocalFetches+st.RemoteFetches != n {
		t.Errorf("stats = %+v", st)
	}
	if st.RemoteFetches == 0 {
		t.Error("expected remote fetches")
	}
	// Every source stays pinned through its fetch; the stage commit
	// releases them all.
	if tr.Pending() != n {
		t.Errorf("pending = %d, want %d pinned sources", tr.Pending(), n)
	}
	ids := make([]MapOutputID, n)
	for i := range ids {
		ids[i] = MapOutputID{Shuffle: 1, MapTask: i, Reduce: 0}
	}
	for _, p := range tr.Commit(ids) {
		releasePayload(p)
	}
	for i, b := range bufs {
		if !b.released.Load() {
			t.Errorf("buffer %d not released by commit", i)
		}
	}
	if tr.Pending() != 0 {
		t.Errorf("pending = %d after commit", tr.Pending())
	}
}

// TestTCPMidServeDisplacementDefersRelease: a Register that displaces an
// entry while a serve goroutine is encoding it must not let the caller
// release the buffer out from under the encoder — the store defers the
// release to the end of the in-flight serve and reports no replacement.
func TestTCPMidServeDisplacementDefersRelease(t *testing.T) {
	tr := newTCPT(t, 2)
	id := MapOutputID{Shuffle: 8, MapTask: 0, Reduce: 0}

	old := &fakeBuf{frame: []byte("v1")}
	entered := make(chan struct{})
	unblock := make(chan struct{})
	tr.Register(id, Payload{
		Data:        old,
		SrcExecutor: 0,
		Bytes:       2,
		Encode: func(w io.Writer) error {
			close(entered)
			<-unblock
			_, err := w.Write(old.frame)
			return err
		},
	})

	fetchDone := make(chan struct{})
	go func() {
		defer close(fetchDone)
		tr.Fetch(id, 1, nil) // blocks in the server-side Encode
	}()
	<-entered

	fresh := &fakeBuf{frame: []byte("v2")}
	_, replaced := tr.Register(id, fresh.payload(0))
	if replaced {
		t.Error("mid-serve displacement must not hand the payload to the caller")
	}
	if old.released.Load() {
		t.Fatal("displaced buffer released while a serve was encoding it")
	}
	close(unblock)
	<-fetchDone
	// The zombie releases server-side once the in-flight serve ends.
	deadline := time.Now().Add(2 * time.Second)
	for !old.released.Load() {
		if time.Now().After(deadline) {
			t.Fatal("displaced buffer never released after the serve ended")
		}
		time.Sleep(time.Millisecond)
	}
	// The replacement serves normally and commits away.
	p, ok, err := tr.Fetch(id, 1, nil)
	if err != nil || !ok {
		t.Fatalf("fetch of replacement = (ok=%v, err=%v)", ok, err)
	}
	if w := p.Data.(Wire); string(w.Frame) != "v2" {
		t.Errorf("replacement frame = %q", w.Frame)
	}
	for _, c := range tr.Commit([]MapOutputID{id}) {
		releasePayload(c)
	}
	if !fresh.released.Load() || tr.Pending() != 0 {
		t.Error("replacement not released by commit")
	}
}

// TestTCPVerdictWaitsOutInFlightServe: Commit and Drop of an entry a
// serve goroutine is still encoding return only once that serve has
// ended, and hand the payload to the caller — after the verdict's release
// nothing of the shuffle is left for the transport to release later.
func TestTCPVerdictWaitsOutInFlightServe(t *testing.T) {
	verdicts := map[string]func(*TCP, MapOutputID) []Payload{
		"commit": func(tr *TCP, id MapOutputID) []Payload { return tr.Commit([]MapOutputID{id}) },
		"drop":   func(tr *TCP, id MapOutputID) []Payload { return tr.Drop(id.Shuffle) },
	}
	for name, verdict := range verdicts {
		t.Run(name, func(t *testing.T) {
			tr := newTCPT(t, 2)
			id := MapOutputID{Shuffle: 9, MapTask: 0, Reduce: 0}
			buf := &fakeBuf{frame: []byte("v1")}
			entered := make(chan struct{})
			unblock := make(chan struct{})
			var serveEnded atomic.Bool
			tr.Register(id, Payload{
				Data:        buf,
				SrcExecutor: 0,
				Bytes:       2,
				Encode: func(w io.Writer) error {
					close(entered)
					<-unblock
					serveEnded.Store(true)
					_, err := w.Write(buf.frame)
					return err
				},
			})
			fetchDone := make(chan struct{})
			go func() {
				defer close(fetchDone)
				tr.Fetch(id, 1, nil) // blocks in the server-side Encode
			}()
			<-entered

			taken := make(chan []Payload)
			go func() { taken <- verdict(tr, id) }()
			select {
			case <-taken:
				t.Fatal("verdict returned while a serve was encoding the entry")
			case <-time.After(20 * time.Millisecond):
			}
			if tr.Pending() != 0 {
				t.Error("the entry must leave the registry at once, so nothing pins it anew")
			}
			close(unblock)
			ps := <-taken
			if !serveEnded.Load() {
				t.Error("verdict returned before the serve ended")
			}
			if len(ps) != 1 || buf.released.Load() {
				t.Fatalf("verdict returned %d payloads (released=%v), want the one unreleased payload", len(ps), buf.released.Load())
			}
			releasePayload(ps[0])
			<-fetchDone
		})
	}
}

// TestTCPFailedRemoteFetchKeepsPayloadDroppable: when the round-trip
// itself fails (serving node unreachable), the registered buffer must
// remain reachable through Drop — a failed fetch must not strand pages.
func TestTCPFailedRemoteFetchKeepsPayloadDroppable(t *testing.T) {
	tr := newTCPT(t, 2)
	buf := &fakeBuf{frame: []byte("stranded?")}
	id := MapOutputID{Shuffle: 4, MapTask: 0, Reduce: 0}
	tr.Register(id, buf.payload(0))
	// Kill node 0's listener (and any pooled conns) so the remote fetch
	// round-trip fails rather than returning NOTFOUND.
	tr.nodes[0].ln.Close()

	_, ok, err := tr.Fetch(id, 1, nil)
	if ok {
		t.Fatal("fetch against a dead listener should fail")
	}
	if err == nil {
		t.Fatal("a failed round-trip must surface as a retryable error, not a silent miss")
	}
	if buf.released.Load() {
		t.Fatal("failed fetch must not release the source buffer")
	}
	dropped := tr.Drop(4)
	if len(dropped) != 1 {
		t.Fatalf("Drop returned %d payloads after failed fetch, want 1", len(dropped))
	}
	releasePayload(dropped[0])
	if !buf.released.Load() {
		t.Error("dropped payload not released")
	}
	if tr.Pending() != 0 {
		t.Errorf("pending = %d", tr.Pending())
	}
}

func TestTCPCloseIdempotentAndFetchAfterClose(t *testing.T) {
	tr, err := NewTCP(LoopbackAddrs(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	id := MapOutputID{Shuffle: 1}
	tr.Register(id, (&fakeBuf{frame: []byte("z")}).payload(0))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr.Fetch(id, 1, nil); ok {
		t.Error("fetch after Close should miss")
	}
}

// TestTCPFetchTimeoutRetiresConnAndStaysRetryable: a peer that hangs
// mid-serve (its Encode blocks) must surface as a deadline error within
// FetchTimeout, the hung conn must be retired rather than pooled, and the
// output must remain reachable once the peer recovers.
func TestTCPFetchTimeoutRetiresConnAndStaysRetryable(t *testing.T) {
	tr, err := NewTCP(LoopbackAddrs(2), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })

	unblock := make(chan struct{})
	id := MapOutputID{Shuffle: 11, MapTask: 0, Reduce: 0}
	tr.Register(id, Payload{
		Data:        &fakeBuf{frame: []byte("slow")},
		SrcExecutor: 0,
		Bytes:       4,
		Encode: func(w io.Writer) error {
			<-unblock // a hung peer: the frame never arrives
			_, err := w.Write([]byte("slow"))
			return err
		},
	})

	start := time.Now()
	_, ok, err := tr.Fetch(id, 1, nil)
	if ok || err == nil {
		t.Fatalf("fetch of a hung peer = (ok=%v, err=%v), want a timeout error", ok, err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("error %v is not a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
	// The hung conn must not be back in the pool.
	tr.client.mu.Lock()
	pool := tr.client.pools[tr.nodes[0].Addr()]
	tr.client.mu.Unlock()
	if pool != nil {
		select {
		case c := <-pool:
			t.Errorf("timed-out conn %v was pooled", c.c.LocalAddr())
		default:
		}
	}
	close(unblock) // the stuck server goroutine finishes and releases

	// A healthy payload re-registered under the same id is fetchable on a
	// fresh connection — the retry path after a timeout.
	buf := &fakeBuf{frame: []byte("recovered")}
	tr.Register(id, buf.payload(0))
	p, ok, err := tr.Fetch(id, 1, nil)
	if err != nil || !ok {
		t.Fatalf("retry fetch = (ok=%v, err=%v)", ok, err)
	}
	if w, isWire := p.Data.(Wire); !isWire || string(w.Frame) != "recovered" {
		t.Errorf("retry fetch payload = %+v", p.Data)
	}
}
