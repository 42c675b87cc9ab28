package ctl

import (
	"encoding/binary"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deca/internal/obs"
	"deca/internal/serial"
)

// beat is one decoded heartbeat frame a fake driver observed.
type beat struct {
	snap obs.CounterValues
	evs  []obs.Event
}

// tickingRuntime is a Runtime whose counters advance on every Snapshot
// call — the shape of an executor mid-job — and whose recorder backs
// DrainEvents, so heartbeats exercise the real event-shipping path.
type tickingRuntime struct {
	n   int64
	rec *obs.Recorder
}

func (r *tickingRuntime) MaterializeDataset(int, int) {}
func (r *tickingRuntime) ReleaseDataset(int, int)     {}
func (r *tickingRuntime) Snapshot() obs.CounterValues {
	r.n += 7
	return obs.CounterValues{
		obs.ShuffleRecords:     r.n,
		obs.RemoteShuffleBytes: 2 * r.n,
		obs.CacheMemBytes:      64,
		obs.FetchInFlightBytes: r.n % 3, // a gauge: free to fluctuate
	}
}
func (r *tickingRuntime) DrainEvents(max int) []obs.Event { return r.rec.Drain(max) }

// testBeat is the heartbeat period the fake drivers welcome followers
// with: fast enough that a test sees many beats in a few milliseconds.
const testBeat = 5 * time.Millisecond

// acceptFollower is the driver side of one follower handshake, answering
// the hello with the given welcome payload; nil (after reporting why) when
// it did not complete.
func acceptFollower(t *testing.T, ln net.Listener, welcome []byte) *rpcConn {
	t.Helper()
	c, err := ln.Accept()
	if err != nil {
		return nil
	}
	rc := newRPCConn(c)
	typ, _, err := rc.read()
	if err != nil || typ != msgHello {
		t.Errorf("first frame: type %d, err %v (want hello)", typ, err)
		rc.close()
		return nil
	}
	if err := rc.send(msgWelcome, welcome); err != nil {
		t.Errorf("welcome: %v", err)
		rc.close()
		return nil
	}
	return rc
}

// fakeDriver accepts one follower handshake and decodes its heartbeat
// stream onto a channel — the driver side of the wire contract, small
// enough to assert against frame by frame.
func fakeDriver(t *testing.T, ln net.Listener, beats chan<- beat) {
	t.Helper()
	rc := acceptFollower(t, ln, appendWelcome(2, testBeat))
	if rc == nil {
		return
	}
	for {
		typ, payload, err := rc.read()
		if err != nil {
			return // follower closed
		}
		if typ != msgHeartbeat {
			continue
		}
		_, snap, evs, ok := decodeHeartbeat(payload)
		if !ok {
			t.Error("heartbeat frame failed to decode")
			return
		}
		beats <- beat{snap: snap, evs: evs}
	}
}

// TestHeartbeatCountersMonotonic: mid-job heartbeats each carry a fresh
// snapshot, so the counter values the driver observes rise monotonically
// beat over beat — the rolling view the ops plane reads is never stale
// beyond one interval, and never regresses.
func TestHeartbeatCountersMonotonic(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	beats := make(chan beat, 64)
	go fakeDriver(t, ln, beats)

	f, err := NewFollower(FollowerConfig{
		DriverAddr: ln.Addr().String(),
		ID:         0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rt := &tickingRuntime{rec: obs.NewRecorder(0)}
	f.SetRuntime(rt)

	var got []beat
	deadline := time.After(5 * time.Second)
	for len(got) < 4 {
		select {
		case b := <-beats:
			got = append(got, b)
		case <-deadline:
			t.Fatalf("only %d heartbeats arrived", len(got))
		}
	}
	for i := 1; i < len(got); i++ {
		prev, cur := got[i-1].snap, got[i].snap
		if cur[obs.ShuffleRecords] <= prev[obs.ShuffleRecords] {
			t.Errorf("beat %d: ShuffleRecords %d -> %d, want strictly increasing",
				i, prev[obs.ShuffleRecords], cur[obs.ShuffleRecords])
		}
		if cur[obs.RemoteShuffleBytes] < prev[obs.RemoteShuffleBytes] {
			t.Errorf("beat %d: RemoteShuffleBytes regressed %d -> %d",
				i, prev[obs.RemoteShuffleBytes], cur[obs.RemoteShuffleBytes])
		}
	}
	if v := got[0].snap[obs.CacheMemBytes]; v != 64 {
		t.Errorf("CacheMemBytes = %d, want 64", v)
	}
}

// TestWelcomeSetsTheHeartbeatPeriod: the handshake is decoded like any
// other peer frame. A follower beats at the period its welcome carries,
// and a welcome without a usable period (missing, zero, negative, above
// the miss budget) or without executors fails the handshake.
func TestWelcomeSetsTheHeartbeatPeriod(t *testing.T) {
	t.Run("welcomed period", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		beats := make(chan beat, 1024)
		go fakeDriver(t, ln, beats)
		f, err := NewFollower(FollowerConfig{DriverAddr: ln.Addr().String()})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// Ten beats take 50ms at the welcomed period, 1s at the driver's 100ms.
		deadline := time.After(900 * time.Millisecond)
		for n := 0; n < 10; n++ {
			select {
			case <-beats:
			case <-deadline:
				t.Fatalf("%d heartbeats in 900ms: the follower is not beating at the welcomed %v", n, testBeat)
			}
		}
	})

	var numOnly enc
	numOnly.int(2)
	for name, welcome := range map[string][]byte{
		"missing period":               numOnly.b,
		"zero period":                  appendWelcome(2, 0),
		"negative period":              appendWelcome(2, -testBeat),
		"period above the miss budget": appendWelcome(2, maxHeartbeatInterval+time.Millisecond),
		"no executors":                 appendWelcome(0, testBeat),
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan struct{})
			go func() {
				defer close(served)
				if rc := acceptFollower(t, ln, welcome); rc != nil {
					rc.read() // returns once the follower hangs up
					rc.close()
				}
			}()
			f, err := NewFollower(FollowerConfig{DriverAddr: ln.Addr().String()})
			if err == nil {
				f.Close()
				t.Fatal("the follower accepted the welcome")
			}
			if !strings.Contains(err.Error(), "malformed welcome") {
				t.Errorf("error = %v, want a malformed welcome", err)
			}
			<-served
		})
	}
}

// gatedRuntime numbers its snapshots in ShuffleRecords and holds the first
// one back until gate closes: a heartbeat descheduled between reading the
// counters and sending them.
type gatedRuntime struct {
	nopRuntime
	calls         atomic.Int64
	entered, gate chan struct{}
}

func (r *gatedRuntime) Snapshot() obs.CounterValues {
	n := r.calls.Add(1)
	if n == 1 {
		close(r.entered)
		<-r.gate
	}
	return obs.CounterValues{obs.ShuffleRecords: n}
}

// TestSnapshotsArriveInOrderTaken: the driver keeps the last vector it
// received, so a vector must not arrive after one read later. The first
// snapshot — a heartbeat's — is held back while a metrics request comes in;
// the heartbeat that answers the request, read later, still lands after
// it. (A second sender of snapshots beside heartbeatLoop would overtake the
// held one, and the driver would be left with the older vector once
// SyncMetrics has returned.)
func TestSnapshotsArriveInOrderTaken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *rpcConn, 1)
	go func() { accepted <- acceptFollower(t, ln, appendWelcome(2, testBeat)) }()
	f, err := NewFollower(FollowerConfig{DriverAddr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rc := <-accepted
	if rc == nil {
		t.Fatal("handshake failed")
	}
	rt := &gatedRuntime{entered: make(chan struct{}), gate: make(chan struct{})}
	f.SetRuntime(rt)

	// Every heartbeat, in arrival order.
	type arrival struct {
		answered uint64
		n        int64
	}
	arrivals := make(chan arrival, 64)
	go func() {
		defer close(arrivals)
		for {
			typ, payload, err := rc.read()
			if err != nil {
				return
			}
			if answered, snap, _, ok := decodeHeartbeat(payload); typ == msgHeartbeat && ok {
				arrivals <- arrival{answered, snap[obs.ShuffleRecords]}
			}
		}
	}()

	timeout := time.After(5 * time.Second)
	select {
	case <-rt.entered:
	case <-timeout:
		t.Fatal("no heartbeat took a snapshot")
	}
	var e enc
	e.uint(1)
	if err := rc.send(msgMetricsRequest, e.b); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // room for a reply that does not wait its turn
	close(rt.gate)

	var last int64
	for sawHeld, sawReply := false, false; !sawHeld || !sawReply; {
		select {
		case a, ok := <-arrivals:
			if !ok {
				t.Fatal("connection closed before both snapshots arrived")
			}
			if a.n < last {
				t.Errorf("snapshot %d arrived after snapshot %d", a.n, last)
			}
			last = a.n
			sawHeld = sawHeld || a.n == 1
			if a.answered >= 1 && !sawReply {
				if !sawHeld {
					t.Error("the heartbeat answering request 1 arrived before the held one")
				}
				sawReply = true
			}
		case <-timeout:
			t.Fatalf("held heartbeat arrived: %v, heartbeat answering request 1 arrived: %v", sawHeld, sawReply)
		}
	}
}

// TestHeartbeatShipsRecordedEvents: events an executor's recorder holds
// ride the next heartbeat with their fields intact, and a drained
// recorder ships nothing — each event crosses the control stream exactly
// once.
func TestHeartbeatShipsRecordedEvents(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	beats := make(chan beat, 64)
	go fakeDriver(t, ln, beats)

	f, err := NewFollower(FollowerConfig{
		DriverAddr: ln.Addr().String(),
		ID:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rt := &tickingRuntime{rec: obs.NewRecorder(0)}
	want := obs.Event{
		Kind: obs.KindTaskFinish, Exec: 1, Stage: 3, Part: 2, Attempt: 1,
		Shuffle: 9, A: 1234, B: 1, Key: "x/9/1/0/map",
	}
	rt.rec.Record(want)
	rt.rec.Record(obs.Event{Kind: obs.KindGCSample, Exec: 1, A: 5, B: 6})
	f.SetRuntime(rt)

	var shipped []obs.Event
	deadline := time.After(5 * time.Second)
	for len(shipped) < 2 {
		select {
		case b := <-beats:
			shipped = append(shipped, b.evs...)
		case <-deadline:
			t.Fatalf("events never arrived; got %d", len(shipped))
		}
	}
	var found bool
	for _, ev := range shipped {
		if ev.Kind == want.Kind && ev.Key == want.Key {
			found = true
			ev.Seq, ev.Nanos = want.Seq, want.Nanos // recorder-stamped
			if ev != want {
				t.Errorf("shipped event = %+v, want %+v", ev, want)
			}
		}
	}
	if !found {
		t.Fatalf("recorded event never shipped; got %+v", shipped)
	}

	// The recorder is drained: later heartbeats must carry no events.
	drainDeadline := time.After(5 * time.Second)
	for i := 0; i < 3; {
		select {
		case b := <-beats:
			i++
			if len(b.evs) != 0 {
				t.Errorf("drained recorder shipped %d events again", len(b.evs))
			}
		case <-drainDeadline:
			t.Fatal("heartbeats stopped")
		}
	}
}

// TestSnapshotCodec: the snapshot is the counter vector in count-prefixed
// layout, position = obs.Counter value — so the 17 positions the first
// layouts carried must never move — and both directions of version skew
// decode: an older sender's shorter vector zero-fills, a newer sender's
// longer one is skipped without disturbing what follows it.
func TestSnapshotCodec(t *testing.T) {
	var full obs.CounterValues
	for k := range full {
		if obs.Counter(k).Row().Scope == obs.ScopeExecutor {
			full[k] = int64(100 + k)
		}
	}
	older := full
	for k := 15; k < len(older); k++ {
		older[k] = 0
	}
	vector := func(vals ...int64) []byte {
		b := serial.AppendUvarint(nil, uint64(len(vals)))
		for _, v := range vals {
			b = serial.AppendVarint(b, v)
		}
		return b
	}
	cases := []struct {
		name  string
		frame []byte
		want  obs.CounterValues
	}{
		{"round trip", appendSnapshot(nil, full), full},
		{"older sender, 15 positions", vector(full[:15]...), older},
		{"newer sender, 3 surplus positions", vector(append(full[:len(full):len(full)], 7, 8, 9)...), full},
		{"a driver-resident position is not taken from the peer",
			appendSnapshot(nil, obs.CounterValues{obs.ShuffleRecords: 5, obs.TasksRun: 99}),
			obs.CounterValues{obs.ShuffleRecords: 5}},
	}
	for _, tc := range cases {
		d := &dec{b: append(tc.frame, 0x2a)} // a trailing field the skip must not eat
		got := decodeSnapshot(d)
		if got != tc.want {
			t.Errorf("%s: decoded %v, want %v", tc.name, got, tc.want)
		}
		if tail := d.int(); !d.ok() || tail != 21 {
			t.Errorf("%s: field after the snapshot = %d (ok=%v), want 21", tc.name, tail, d.ok())
		}
	}

	// A heartbeat leads with the metrics request it answers, then the
	// snapshot, then the events.
	ev := obs.Event{Kind: obs.KindFetchFailed, Exec: 1, A: 3, Key: "k"}
	answered, snap, evs, ok := decodeHeartbeat(appendHeartbeat(1<<40, full, []obs.Event{ev}))
	if !ok || answered != 1<<40 || snap != full || len(evs) != 1 || evs[0] != ev {
		t.Errorf("heartbeat round trip = %d, %v, %+v (ok=%v)", answered, snap, evs, ok)
	}

	wire := []obs.Counter{
		obs.ShuffleRecords, obs.ShuffleSpillBytes, obs.LocalShuffleFetches, obs.RemoteShuffleFetches,
		obs.RemoteShuffleBytes, obs.CacheHits, obs.CacheMisses, obs.CacheEvictions, obs.CacheDrops,
		obs.CacheSwapOutBytes, obs.CacheSwapInBytes, obs.CacheMemBytes, obs.PagesServedZeroCopy,
		obs.BytesSendfile, obs.ServeUserspaceCopyBytes, obs.FetchInFlightBytes, obs.CacheSwappedBytes,
	}
	for pos, k := range wire {
		if int(k) != pos {
			t.Errorf("wire position %d now holds counter %d (%s): the first 17 positions are frozen", pos, k, k.Row().Name)
		}
	}
}

// hostileSnapshotCount is a heartbeat (answering request 0) whose snapshot
// claims 2^62 values: the unbounded decode loop spun the executor's
// readLoop goroutine forever. hostileEventCount is a well-formed empty
// snapshot followed by an event batch claiming 2^40 events:
// make([]obs.Event, 0, n) panicked the driver.
var (
	hostileSnapshotCount = binary.AppendUvarint([]byte{0}, 1<<62)
	hostileEventCount    = binary.AppendUvarint([]byte{0, 0}, 1<<40)
)

// FuzzDecodeHeartbeat: whatever bytes a peer puts in a heartbeat frame,
// decoding neither panics nor does work beyond the frame's length — every
// decoded event consumed at least two of its bytes.
func FuzzDecodeHeartbeat(f *testing.F) {
	f.Add(hostileSnapshotCount)
	f.Add(hostileEventCount)
	f.Add(appendHeartbeat(5, obs.CounterValues{obs.ShuffleRecords: 9},
		[]obs.Event{{Kind: obs.KindFetchFailed, Exec: 1, A: 3, Key: "k"}}))
	f.Add(binary.AppendUvarint([]byte{0, 0, 1}, 1<<40)) // one event claiming 2^40 numeric fields
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, _, evs, ok := decodeHeartbeat(payload)
		if !ok && evs != nil {
			t.Errorf("malformed frame still yielded %d events", len(evs))
		}
		if 2*len(evs) > len(payload) {
			t.Errorf("%d events out of %d bytes", len(evs), len(payload))
		}
	})
}

// TestMalformedHeartbeatKillsExecutor: the driver's read loop declares an
// executor that sends either hostile frame dead — once, promptly, and
// without taking the frame's word for how much there is to decode.
func TestMalformedHeartbeatKillsExecutor(t *testing.T) {
	for name, frame := range map[string][]byte{"snapshot count": hostileSnapshotCount, "event count": hostileEventCount} {
		t.Run(name, func(t *testing.T) {
			near, far := net.Pipe()
			defer far.Close()
			dead := make(chan int, 1)
			st := &execState{id: 0, conn: newRPCConn(near)}
			d := &Driver{
				cfg:   DriverConfig{OnExecutorDead: func(exec int) { dead <- exec }},
				execs: []*execState{st},
			}
			done := make(chan struct{})
			go func() { d.readLoop(st); close(done) }()
			if err := newRPCConn(far).send(msgHeartbeat, frame); err != nil {
				t.Fatal(err)
			}
			select {
			case <-dead:
				<-done
			case <-time.After(5 * time.Second):
				t.Fatal("the executor was not declared dead")
			}
			if err := st.end; err == nil || !strings.Contains(err.Error(), "malformed heartbeat") {
				t.Errorf("cause of death = %v, want the malformed heartbeat", err)
			}
		})
	}
}
