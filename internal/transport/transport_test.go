package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deca/internal/obs"
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

// slowPayload is buf's payload with an Encode that signals entered and
// then blocks until unblock closes — a serve the test holds open.
func slowPayload(buf *fakeBuf, src int, entered, unblock chan struct{}) Payload {
	p := buf.payload(src)
	var once sync.Once
	p.Encode = func(w io.Writer) error {
		once.Do(func() { close(entered) })
		<-unblock
		_, err := w.Write(buf.frame)
		return err
	}
	return p
}

// openBytes is the explicit opener the tests fetch with: the frame's
// bytes as the decoded payload.
func openBytes(r FrameReader, size int64) (Decoded, error) {
	b, err := io.ReadAll(r)
	return Decoded{Data: b, MemBytes: size}, err
}

func mustRegister(t *testing.T, tr Transport, id MapOutputID, p Payload) {
	t.Helper()
	if err := tr.Register(id, p); err != nil {
		t.Fatalf("Register(%v): %v", id, err)
	}
}

// mustFetch fetches id for executor dst and returns the frame as a string.
func mustFetch(t *testing.T, tr Transport, id MapOutputID, dst int) string {
	t.Helper()
	p, ok, err := tr.Fetch(id, dst, openBytes)
	if err != nil || !ok {
		t.Fatalf("Fetch(%v, executor %d) = (ok=%v, err=%v)", id, dst, ok, err)
	}
	if p.Bytes != int64(len(p.Data.([]byte))) {
		t.Errorf("Fetch(%v): Bytes = %d for a %d-byte frame", id, p.Bytes, len(p.Data.([]byte)))
	}
	return string(p.Data.([]byte))
}

// nodeSum sums counter k over the plane's nodes: what this process's
// executors counted.
func nodeSum(tr *Plane, k obs.Counter) (n int64) {
	for exec := range tr.nodes {
		n += tr.Counters(exec)[k]
	}
	return n
}

// pinned is the number of outputs registered in this process.
func pinned(tr *Plane) int64 { return nodeSum(tr, obs.ShuffleOutputsPinned) }

// scriptedDir is the in-test Directory behind the remote construction: a
// location table the test writes directly — so an output can be "held by
// a non-local executor" at any address, or unknown — plus a switchable
// lookup error. It drops entries on Retire/RetireShuffle.
type scriptedDir struct {
	mu        sync.Mutex
	loc       map[MapOutputID]scriptedLoc
	lookupErr error
	retired   int
}

type scriptedLoc struct {
	exec int
	addr string
}

func (d *scriptedDir) hold(id MapOutputID, exec int, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.loc[id] = scriptedLoc{exec, addr}
}

func (d *scriptedDir) failLookups(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lookupErr = err
}

func (d *scriptedDir) Publish(id MapOutputID, exec int) error {
	d.hold(id, exec, "")
	return nil
}

func (d *scriptedDir) Lookup(id MapOutputID) (int, string, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lookupErr != nil {
		return 0, "", false, d.lookupErr
	}
	l, ok := d.loc[id]
	return l.exec, l.addr, ok, nil
}

func (d *scriptedDir) Retire(ids []MapOutputID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, id := range ids {
		delete(d.loc, id)
		d.retired++
	}
}

func (d *scriptedDir) RetireShuffle(shuffle ShuffleID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id := range d.loc {
		if id.Shuffle == shuffle {
			delete(d.loc, id)
			d.retired++
		}
	}
}

// rig is one construction of the Plane under the contract suite. holder
// is an executor hosted here, whose registrations this plane owns; reader
// is the executor that fetches what another executor holds (the same one
// where the construction hosts a single executor).
type rig struct {
	tr             *Plane
	holder, reader int
	// remote makes buf fetchable under id as an output held by an executor
	// other than reader.
	remote func(t *testing.T, id MapOutputID, buf *fakeBuf)
	// sever breaks the path to remote's holder, so a fetch of its outputs
	// fails in transit; nil where no socket is involved.
	sever func()
	// dir is the scripted directory (remote construction only).
	dir *scriptedDir
}

// constructions are the three ways the engine builds a Plane.
var constructions = []struct {
	name string
	new  func(t *testing.T) *rig
}{
	{"never-dial", func(t *testing.T) *rig {
		r := &rig{tr: NewInProcess(), holder: 0, reader: 1}
		r.remote = func(t *testing.T, id MapOutputID, buf *fakeBuf) { mustRegister(t, r.tr, id, buf.payload(r.holder)) }
		return r
	}},
	{"dial", func(t *testing.T) *rig {
		tr, err := NewTCP(LoopbackAddrs(3), 0)
		if err != nil {
			t.Fatal(err)
		}
		r := &rig{tr: tr, holder: 0, reader: 1}
		r.remote = func(t *testing.T, id MapOutputID, buf *fakeBuf) { mustRegister(t, tr, id, buf.payload(r.holder)) }
		r.sever = func() { tr.nodes[r.holder].ln.Close() }
		return r
	}},
	{"remote-directory", func(t *testing.T) *rig {
		// This process is executor 2; executor 0 is a peer process, stood in
		// for by a bare data server the directory points at.
		const me, peerExec = 2, 0
		node, err := NewDataServer("")
		if err != nil {
			t.Fatal(err)
		}
		peer, err := NewDataServer("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { peer.Close() })
		dir := &scriptedDir{loc: make(map[MapOutputID]scriptedLoc)}
		r := &rig{tr: NewRemote(dir, map[int]*DataServer{me: node}, 0), holder: me, reader: me, dir: dir}
		r.remote = func(t *testing.T, id MapOutputID, buf *fakeBuf) {
			peer.Put(id, buf.payload(peerExec))
			dir.hold(id, peerExec, peer.Addr())
		}
		r.sever = func() { peer.Close() }
		return r
	}},
}

// TestTransportContract runs the Transport contract over every
// construction: what a deployment changes is where the nodes are and who
// answers lookups, never what Register, Fetch, Commit, Drop and Close
// promise.
func TestTransportContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, r *rig)
	}{
		{"register, non-consuming multi-fetch, commit", func(t *testing.T, r *rig) {
			buf := &fakeBuf{frame: []byte("wire-frame-bytes")}
			id := MapOutputID{Shuffle: 2, MapTask: 1, Reduce: 4}
			mustRegister(t, r.tr, id, buf.payload(r.holder))
			if _, ok, err := r.tr.Fetch(MapOutputID{Shuffle: 9}, r.reader, openBytes); ok || err != nil {
				t.Errorf("fetch of an unregistered id = (ok=%v, err=%v), want a definitive miss", ok, err)
			}
			// A reduce attempt and its retries: every fetch serves again.
			for i := 0; i < 3; i++ {
				if got := mustFetch(t, r.tr, id, r.reader); got != "wire-frame-bytes" {
					t.Errorf("fetch %d served %q", i, got)
				}
			}
			if buf.released.Load() || pinned(r.tr) != 1 {
				t.Errorf("after three fetches: released=%v pending=%d, want the source still pinned", buf.released.Load(), pinned(r.tr))
			}
			committed := r.tr.Commit([]MapOutputID{id})
			if len(committed) != 1 || committed[0].Data != buf {
				t.Fatalf("Commit returned %+v, want the registered payload", committed)
			}
			if _, ok, err := r.tr.Fetch(id, r.reader, openBytes); ok || err != nil {
				t.Errorf("fetch after commit = (ok=%v, err=%v), want a definitive miss", ok, err)
			}
			if pinned(r.tr) != 0 {
				t.Errorf("pending = %d after commit", pinned(r.tr))
			}
		}},
		{"local and remote fetches are accounted apart", func(t *testing.T, r *rig) {
			// The payload names its source and its frame length, which is
			// what the engine books a fetch as local or remote by.
			local, far := &fakeBuf{frame: []byte("hello")}, &fakeBuf{frame: []byte("from afar")}
			localID, farID := MapOutputID{Shuffle: 1, MapTask: 0}, MapOutputID{Shuffle: 1, MapTask: 1}
			mustRegister(t, r.tr, localID, local.payload(r.holder))
			r.remote(t, farID, far)
			lp, ok, err := r.tr.Fetch(localID, r.holder, openBytes)
			if err != nil || !ok || string(lp.Data.([]byte)) != "hello" {
				t.Fatalf("local fetch = (%+v, ok=%v, err=%v)", lp, ok, err)
			}
			if lp.SrcExecutor != r.holder || lp.Bytes != 5 {
				t.Errorf("local payload metadata = %+v, want a 5-byte frame from the fetching executor", lp)
			}
			p, ok, err := r.tr.Fetch(farID, r.reader, openBytes)
			if err != nil || !ok || string(p.Data.([]byte)) != "from afar" {
				t.Fatalf("remote fetch = (%+v, ok=%v, err=%v)", p, ok, err)
			}
			if p.SrcExecutor == r.reader || p.MemBytes != p.Bytes || p.Bytes != 9 {
				t.Errorf("remote payload metadata = %+v, want a 9-byte frame from another executor", p)
			}
		}},
		{"replace under concurrent registers", func(t *testing.T, r *rig) {
			// Registers of one id race — the scheduler never issues them (a
			// task runs one attempt at a time), but Register stays one whole
			// replacement without that promise — from different nodes where
			// the construction hosts several. The transport releases every
			// payload but the survivor exactly once (fakeBuf panics on a
			// second release).
			execs := []int{r.holder}
			if r.holder != r.reader {
				execs = append(execs, r.reader)
			}
			const n = 32
			id := MapOutputID{Shuffle: 7}
			bufs := make([]*fakeBuf, n)
			var wg sync.WaitGroup
			for i := range bufs {
				bufs[i] = &fakeBuf{frame: []byte{byte(i)}}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if err := r.tr.Register(id, bufs[i].payload(execs[i%len(execs)])); err != nil {
						t.Errorf("Register %d: %v", i, err)
					}
				}(i)
			}
			wg.Wait()
			if pinned(r.tr) != 1 {
				t.Fatalf("pending = %d after %d racing registers of one id, want 1", pinned(r.tr), n)
			}
			mustFetch(t, r.tr, id, r.reader)
			for _, p := range r.tr.Commit([]MapOutputID{id}) {
				releasePayload(p)
			}
			for i, b := range bufs {
				if !b.released.Load() {
					t.Errorf("payload %d neither displaced nor committed: leaked", i)
				}
			}
		}},
		{"re-registration on another executor releases the old node's copy", func(t *testing.T, r *rig) {
			// A lineage re-run places the map task on another executor: the
			// id's one live registration moves there, and the copy left on
			// the old node is the transport's to release, not the caller's.
			if r.reader == r.holder {
				t.Skip("one executor hosted here; another process's holder is told to discard by the directory")
			}
			id := MapOutputID{Shuffle: 10}
			old, fresh := &fakeBuf{frame: []byte("first run")}, &fakeBuf{frame: []byte("re-run")}
			mustRegister(t, r.tr, id, old.payload(r.holder))
			mustRegister(t, r.tr, id, fresh.payload(r.reader))
			if !old.released.Load() {
				t.Error("the displaced copy was not released")
			}
			if fresh.released.Load() || pinned(r.tr) != 1 {
				t.Errorf("after the move: fresh released=%v, pending=%d, want the new copy alone registered", fresh.released.Load(), pinned(r.tr))
			}
			if got := mustFetch(t, r.tr, id, r.holder); got != "re-run" {
				t.Errorf("the moved output served %q", got)
			}
			for _, p := range r.tr.Commit([]MapOutputID{id}) {
				releasePayload(p)
			}
		}},
		{"displacement mid-serve defers the release", func(t *testing.T, r *rig) {
			id := MapOutputID{Shuffle: 8}
			old, fresh := &fakeBuf{frame: []byte("v1")}, &fakeBuf{frame: []byte("v2")}
			entered, unblock := make(chan struct{}), make(chan struct{})
			mustRegister(t, r.tr, id, slowPayload(old, r.holder, entered, unblock))
			fetchDone := make(chan struct{})
			go func() {
				defer close(fetchDone)
				r.tr.Fetch(id, r.reader, openBytes) // blocks in Encode
			}()
			<-entered
			mustRegister(t, r.tr, id, fresh.payload(r.holder))
			if old.released.Load() {
				t.Fatal("displaced buffer released while a serve was encoding it")
			}
			close(unblock)
			<-fetchDone
			for deadline := time.Now().Add(2 * time.Second); !old.released.Load(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("displaced buffer never released after the serve ended")
				}
			}
			if got := mustFetch(t, r.tr, id, r.reader); got != "v2" {
				t.Errorf("replacement served %q", got)
			}
		}},
		{"definitive miss, transient error", func(t *testing.T, r *rig) {
			buf := &fakeBuf{frame: []byte("stranded?")}
			id := MapOutputID{Shuffle: 4}
			mustRegister(t, r.tr, id, buf.payload(r.holder))
			// A decode fault is transient: the registration is intact.
			boom := errors.New("decode exploded")
			_, ok, err := r.tr.Fetch(id, r.reader, func(r FrameReader, _ int64) (Decoded, error) { return Decoded{}, boom })
			if ok || !errors.Is(err, boom) {
				t.Errorf("fetch with a failing opener = (ok=%v, err=%v), want the decode error", ok, err)
			}
			if got := mustFetch(t, r.tr, id, r.reader); got != "stranded?" {
				t.Errorf("retry after the decode fault served %q", got)
			}
			if r.dir != nil {
				// So is a lookup the directory could not answer.
				r.dir.failLookups(errors.New("driver connection lost"))
				if _, ok, err := r.tr.Fetch(id, r.reader, openBytes); ok || err == nil {
					t.Errorf("fetch under a lookup error = (ok=%v, err=%v), want the error, not a miss", ok, err)
				}
				r.dir.failLookups(nil)
			}
			if buf.released.Load() {
				t.Fatal("a failed fetch released the source buffer")
			}
		}},
		{"an unreachable holder is an error, and strands nothing", func(t *testing.T, r *rig) {
			if r.sever == nil {
				t.Skip("no socket in this construction")
			}
			buf, far := &fakeBuf{frame: []byte("stranded?")}, &fakeBuf{frame: []byte("unreachable")}
			id, farID := MapOutputID{Shuffle: 4}, MapOutputID{Shuffle: 4, MapTask: 1}
			mustRegister(t, r.tr, id, buf.payload(r.holder))
			r.remote(t, farID, far)
			r.sever()
			if _, ok, err := r.tr.Fetch(farID, r.reader, openBytes); ok || err == nil {
				t.Errorf("fetch from a dead listener = (ok=%v, err=%v), want a retryable error, not a silent miss", ok, err)
			}
			if buf.released.Load() {
				t.Fatal("a failed fetch released a source buffer")
			}
			for _, p := range r.tr.Drop(4) {
				releasePayload(p)
			}
			if !buf.released.Load() || pinned(r.tr) != 0 {
				t.Errorf("after Drop: released=%v pending=%d", buf.released.Load(), pinned(r.tr))
			}
		}},
		{"commit and drop wait out an in-flight serve", func(t *testing.T, r *rig) {
			verdicts := map[string]func(id MapOutputID) []Payload{
				"commit": func(id MapOutputID) []Payload { return r.tr.Commit([]MapOutputID{id}) },
				"drop":   func(id MapOutputID) []Payload { return r.tr.Drop(id.Shuffle) },
			}
			for name, verdict := range verdicts {
				id := MapOutputID{Shuffle: 9}
				buf := &fakeBuf{frame: []byte("v1")}
				entered, unblock := make(chan struct{}), make(chan struct{})
				mustRegister(t, r.tr, id, slowPayload(buf, r.holder, entered, unblock))
				fetchDone := make(chan struct{})
				go func() {
					defer close(fetchDone)
					r.tr.Fetch(id, r.reader, openBytes) // blocks in Encode
				}()
				<-entered
				taken := make(chan []Payload)
				go func() { taken <- verdict(id) }()
				select {
				case <-taken:
					t.Fatalf("%s returned while a serve was encoding the entry", name)
				case <-time.After(20 * time.Millisecond):
				}
				if pinned(r.tr) != 0 {
					t.Errorf("%s: the entry must leave the registry at once, so nothing pins it anew", name)
				}
				close(unblock)
				ps := <-taken
				if len(ps) != 1 || ps[0].Data != buf || buf.released.Load() {
					t.Fatalf("%s returned %d payloads (released=%v), want the one unreleased payload", name, len(ps), buf.released.Load())
				}
				releasePayload(ps[0])
				<-fetchDone
			}
		}},
		{"drop returns the shuffle's outputs, served ones included", func(t *testing.T, r *rig) {
			var bufs []*fakeBuf
			for m := 0; m < 4; m++ {
				b := &fakeBuf{frame: []byte{byte(m)}}
				bufs = append(bufs, b)
				mustRegister(t, r.tr, MapOutputID{Shuffle: 5, MapTask: m}, b.payload(r.holder))
			}
			mustRegister(t, r.tr, MapOutputID{Shuffle: 6}, (&fakeBuf{frame: []byte("other")}).payload(r.holder))
			mustFetch(t, r.tr, MapOutputID{Shuffle: 5, MapTask: 2}, r.reader)
			dropped := r.tr.Drop(5)
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
			if pinned(r.tr) != 1 {
				t.Errorf("pending = %d, want 1 (shuffle 6 untouched)", pinned(r.tr))
			}
		}},
		{"concurrent fetches", func(t *testing.T, r *rig) {
			const n = 120
			bufs := make([]*fakeBuf, n)
			ids := make([]MapOutputID, n)
			for i := range bufs {
				bufs[i] = &fakeBuf{frame: []byte(fmt.Sprintf("frame-%04d", i))}
				ids[i] = MapOutputID{Shuffle: 1, MapTask: i}
				mustRegister(t, r.tr, ids[i], bufs[i].payload(r.holder))
			}
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					dst := []int{r.holder, r.reader}[i%2]
					p, ok, err := r.tr.Fetch(ids[i], dst, openBytes)
					if err != nil || !ok {
						t.Errorf("fetch %d = (ok=%v, err=%v)", i, ok, err)
					} else if got, want := string(p.Data.([]byte)), fmt.Sprintf("frame-%04d", i); got != want {
						t.Errorf("fetch %d served %q, want %q", i, got, want)
					}
				}(i)
			}
			wg.Wait()
			// Every frame was staged whole (Encode-only payloads), and counted
			// before its fetch returned.
			if got := nodeSum(r.tr, obs.ServeUserspaceCopyBytes); got != n*int64(len("frame-0000")) {
				t.Errorf("serve rows count %d staged bytes, want %d fetches' worth", got, n)
			}
			if pinned(r.tr) != n {
				t.Errorf("pending = %d, want %d pinned sources", pinned(r.tr), n)
			}
			for _, p := range r.tr.Commit(ids) {
				releasePayload(p)
			}
			for i, b := range bufs {
				if !b.released.Load() {
					t.Errorf("buffer %d not released by commit", i)
				}
			}
		}},
		{"close is idempotent and a later fetch names it", func(t *testing.T, r *rig) {
			id := MapOutputID{Shuffle: 1}
			mustRegister(t, r.tr, id, (&fakeBuf{frame: []byte("z")}).payload(r.holder))
			for i := 0; i < 2; i++ {
				if err := r.tr.Close(); err != nil {
					t.Fatalf("Close #%d: %v", i+1, err)
				}
			}
			// A miss here would send a still-running reduce attempt into
			// lineage repair against listeners that are gone.
			for _, dst := range []int{r.holder, r.reader} {
				_, ok, err := r.tr.Fetch(id, dst, openBytes)
				if ok || err == nil || !strings.Contains(err.Error(), "closed") {
					t.Errorf("fetch to executor %d after Close = (ok=%v, err=%v), want an error naming the closed transport", dst, ok, err)
				}
			}
		}},
	}
	for _, c := range constructions {
		for _, tc := range cases {
			t.Run(c.name+"/"+tc.name, func(t *testing.T) {
				r := c.new(t)
				t.Cleanup(func() { r.tr.Close() })
				tc.run(t, r)
			})
		}
	}
}

// TestRegisterRejectsPayloadWithoutWireForm: the one ownership rule has no
// second, consuming form — a payload that cannot be framed never enters
// the registry, in any construction, and Register releases it.
func TestRegisterRejectsPayloadWithoutWireForm(t *testing.T) {
	for _, c := range constructions {
		t.Run(c.name, func(t *testing.T) {
			r := c.new(t)
			defer r.tr.Close()
			buf := &fakeBuf{frame: []byte("x")}
			id := MapOutputID{Shuffle: 3}
			err := r.tr.Register(id, Payload{Data: buf, SrcExecutor: r.holder, Bytes: 1})
			if err == nil || !strings.Contains(err.Error(), "neither Segments nor Encode") {
				t.Fatalf("Register of a payload with no encoder = %v, want a rejection naming the missing encoders", err)
			}
			if !buf.released.Load() {
				t.Error("the rejected payload was not released")
			}
			if pinned(r.tr) != 0 {
				t.Errorf("the rejected payload was registered (pending=%d)", pinned(r.tr))
			}
			if _, ok, err := r.tr.Fetch(id, r.reader, openBytes); ok || err != nil {
				t.Errorf("fetch of the rejected id = (ok=%v, err=%v), want a definitive miss", ok, err)
			}
		})
	}
}

// TestPlaneWithoutLocalNodes is the multiproc driver's construction: it
// hosts no shuffle data, so Register and Fetch fail as errors naming the
// executor (a task body ran in the driver process — a bug, but not a
// panic), while Commit and Drop still retire the directory.
func TestPlaneWithoutLocalNodes(t *testing.T) {
	dir := &scriptedDir{loc: make(map[MapOutputID]scriptedLoc)}
	tr := NewRemote(dir, nil, 0)
	defer tr.Close()
	buf := &fakeBuf{frame: []byte("x")}
	id := MapOutputID{Shuffle: 1}
	if err := tr.Register(id, buf.payload(3)); err == nil || !strings.Contains(err.Error(), "no local node for executor 3") {
		t.Errorf("Register on a node-less plane: err = %v", err)
	}
	if !buf.released.Load() {
		t.Error("the rejected payload was not released")
	}
	if _, ok, err := tr.Fetch(id, 1, openBytes); ok || err == nil || !strings.Contains(err.Error(), "no local node for executor 1") {
		t.Errorf("Fetch on a node-less plane = (ok=%v, err=%v)", ok, err)
	}
	dir.hold(id, 0, "peer:1")
	dir.hold(MapOutputID{Shuffle: 2}, 0, "peer:1")
	if ps := tr.Commit([]MapOutputID{id}); len(ps) != 0 {
		t.Errorf("Commit handed back %d payloads from no nodes", len(ps))
	}
	if ps := tr.Drop(2); len(ps) != 0 {
		t.Errorf("Drop handed back %d payloads from no nodes", len(ps))
	}
	if dir.retired != 2 {
		t.Errorf("directory retired %d entries, want 2", dir.retired)
	}
}

// TestRemoteCommitWaitsOutPeerServe pins the contract where it had
// drifted: in the remote-directory construction a peer process is
// mid-FETCH on an entry when this process's mirror reaches the stage
// commit. Commit must return only after that serve has ended and hand the
// payload back exactly once, so the caller's release settles the memory
// ledger. (The executor-process transport used to take such an entry
// without waiting, and got nothing back: the store released it later.)
func TestRemoteCommitWaitsOutPeerServe(t *testing.T) {
	const me = 1
	node, err := NewDataServer("")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewRemote(&scriptedDir{loc: make(map[MapOutputID]scriptedLoc)}, map[int]*DataServer{me: node}, 0)
	defer tr.Close()
	id := MapOutputID{Shuffle: 3, MapTask: 2, Reduce: 1}
	buf := &fakeBuf{frame: []byte("slowly")}
	entered, unblock := make(chan struct{}), make(chan struct{})
	mustRegister(t, tr, id, slowPayload(buf, me, entered, unblock))

	peer := NewDataClient(0)
	defer peer.Close()
	var served atomic.Bool
	fetchDone := make(chan error, 1)
	go func() {
		_, _, _, err := peer.FetchInto(node.Addr(), id, func(r FrameReader, _ int64) (Decoded, error) {
			_, err := io.Copy(io.Discard, r)
			served.Store(true)
			return Decoded{}, err
		})
		fetchDone <- err
	}()
	<-entered

	taken := make(chan []Payload)
	go func() { taken <- tr.Commit([]MapOutputID{id}) }()
	select {
	case <-taken:
		t.Fatal("Commit returned while a peer's FETCH was being served")
	case <-time.After(20 * time.Millisecond):
	}
	close(unblock)
	ps := <-taken
	if len(ps) != 1 || ps[0].Data != buf {
		t.Fatalf("Commit returned %d payloads, want the one mid-serve payload handed back", len(ps))
	}
	if buf.released.Load() {
		t.Fatal("the store released the payload itself: the caller's ledger is not settled by Commit")
	}
	releasePayload(ps[0]) // a second release — the store's — would panic
	if err := <-fetchDone; err != nil || !served.Load() {
		t.Errorf("the peer's fetch = (served=%v, err=%v), want the whole frame", served.Load(), err)
	}
	if ps := tr.Commit([]MapOutputID{id}); len(ps) != 0 {
		t.Errorf("a second Commit handed back %d payloads", len(ps))
	}
}

// TestTCPConfigurableListenAddrs: explicit host:port listen addresses
// are honored and advertised back via Addrs.
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
	id := MapOutputID{Shuffle: 3, MapTask: 1, Reduce: 0}
	mustRegister(t, tr, id, (&fakeBuf{frame: []byte("addressed")}).payload(0))
	if got := mustFetch(t, tr, id, 1); got != "addressed" {
		t.Errorf("fetch over explicit addrs served %q", got)
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

	entered, unblock := make(chan struct{}), make(chan struct{})
	id := MapOutputID{Shuffle: 11, MapTask: 0, Reduce: 0}
	// A hung peer: the frame never arrives.
	mustRegister(t, tr, id, slowPayload(&fakeBuf{frame: []byte("slow")}, 0, entered, unblock))

	start := time.Now()
	_, ok, err := tr.Fetch(id, 1, openBytes)
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
	mustRegister(t, tr, id, (&fakeBuf{frame: []byte("recovered")}).payload(0))
	if got := mustFetch(t, tr, id, 1); got != "recovered" {
		t.Errorf("retry fetch served %q", got)
	}
}

// TestServeCountedBeforeFetchReturns: a TCP fetch that has returned has
// already been counted by the serving node. A job's last fetch can end it,
// and the driver reads the serving process's counters right after, so a
// serve booked once the bytes were on the wire could be missing from that
// read and present in the next.
func TestServeCountedBeforeFetchReturns(t *testing.T) {
	tr, err := NewTCP(LoopbackAddrs(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	frame := []byte("counted before it leaves")
	id := MapOutputID{Shuffle: 12, MapTask: 0, Reduce: 0}
	mustRegister(t, tr, id, (&fakeBuf{frame: frame}).payload(0))
	for i := 1; i <= 20; i++ {
		mustFetch(t, tr, id, 1)
		if got, want := tr.Counters(0)[obs.ServeUserspaceCopyBytes], int64(i*len(frame)); got != want {
			t.Fatalf("after fetch %d the serving node counted %d staged bytes, want %d", i, got, want)
		}
	}
	for _, p := range tr.Drop(12) {
		releasePayload(p)
	}
}

// TestPinnedGaugeFollowsTheRegistry: ShuffleOutputsPinned is the node's
// registry read under its lock, so it follows every lifetime end — a
// displacement, a discard, a Commit, a Drop — and does not count a zombie,
// an entry removed mid-serve whose release its last serve already owes.
func TestPinnedGaugeFollowsTheRegistry(t *testing.T) {
	tr := NewInProcess()
	defer tr.Close()
	want := func(step string, n int64) {
		t.Helper()
		if got := tr.Counters(0)[obs.ShuffleOutputsPinned]; got != n {
			t.Errorf("after %s: pinned = %d, want %d", step, got, n)
		}
	}
	a, b, c := MapOutputID{Shuffle: 1}, MapOutputID{Shuffle: 1, MapTask: 1}, MapOutputID{Shuffle: 2}
	for _, id := range []MapOutputID{a, b, c} {
		mustRegister(t, tr, id, (&fakeBuf{frame: []byte("v1")}).payload(0))
	}
	want("three puts", 3)
	mustRegister(t, tr, a, (&fakeBuf{frame: []byte("v2")}).payload(0))
	want("a displacement", 3)
	tr.nodes[0].Discard(c)
	want("a discard", 2)
	for _, p := range tr.Commit([]MapOutputID{a}) {
		releasePayload(p)
	}
	want("a commit", 1)
	for _, p := range tr.Drop(1) {
		releasePayload(p)
	}
	want("a drop", 0)

	zombie := &fakeBuf{frame: []byte("z")}
	entered, unblock := make(chan struct{}), make(chan struct{})
	mustRegister(t, tr, c, slowPayload(zombie, 0, entered, unblock))
	want("a put", 1)
	fetchDone := make(chan struct{})
	go func() {
		defer close(fetchDone)
		tr.Fetch(c, 0, openBytes) // blocks in Encode
	}()
	<-entered
	tr.nodes[0].Discard(c)
	if zombie.released.Load() {
		t.Fatal("an entry discarded mid-serve was released under its serve")
	}
	want("a discard mid-serve", 0)
	close(unblock)
	<-fetchDone
	if !zombie.released.Load() {
		t.Error("the zombie was not released by its last serve")
	}
	want("the zombie's last serve", 0)
}
