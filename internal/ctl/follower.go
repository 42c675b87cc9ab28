package ctl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"deca/internal/obs"
	"deca/internal/transport"
)

// Runtime is what the engine plugs into a Follower once its mirrored
// context exists: the executor side of the shuffle lifecycle and its
// counters. All methods may be called concurrently.
type Runtime interface {
	// MaterializeDataset ensures the announced epoch of the dataset's
	// shuffle is materialized locally (follower-side exchange), so
	// executors that hold map tasks for a shuffle none of their own tasks
	// pull still participate. An epoch newer than the locally-adopted one
	// implies any live local materialization is stale and must be
	// released first — the handlers run on independent goroutines, so the
	// release broadcast may not have been processed yet.
	MaterializeDataset(dataset, epoch int)
	// ReleaseDataset locally releases the dataset's materialization of
	// the given epoch (driver-initiated recovery). Stale requests — the
	// local materialization is already newer — are ignored.
	ReleaseDataset(dataset, epoch int)
	// Snapshot returns the executor's counter vector.
	Snapshot() obs.CounterValues
}

// EventSource is an optional Runtime extension: a runtime that also
// implements it has its observability backlog drained into every
// heartbeat frame, giving the driver a rolling cluster-wide event
// stream mid-job. Checked by type assertion so the Runtime contract is
// unchanged for implementations without a recorder.
type EventSource interface {
	// DrainEvents removes and returns up to max buffered events (all if
	// max <= 0).
	DrainEvents(max int) []obs.Event
}

// StageBody runs one dispatched attempt of a stage the mirrored program
// published (AddStageBody). cancel closes when the driver sends CancelTask
// for the attempt: a best-effort early stop, after which a result is still
// expected.
type StageBody func(stage, part, attempt int, cancel <-chan struct{}) TaskResult

// heartbeatEventBatch bounds the events one heartbeat carries; at the
// driver's 100ms period that is 10k events/s of shipping capacity per
// executor before recorder rings start overwriting.
const heartbeatEventBatch = 1024

// stageBodyTimeout bounds how long a dispatched attempt waits for the
// mirrored program to publish its stage's body. A healthy mirror publishes
// within the time its program takes to reach the stage; a diverged one
// would otherwise park the attempt forever. A variable so tests can
// shorten it.
var stageBodyTimeout = 2 * time.Minute

// The ends of a wait other than a dead connection: errShutdown ends every
// wait once the driver broadcast Shutdown; errBodyCanceled and errNoBody end
// a body wait whose attempt the driver canceled or whose deadline passed.
var (
	errShutdown     = errors.New("ctl: the driver shut the fleet down")
	errBodyCanceled = errors.New("ctl: the attempt was canceled before its stage body was published")
	errNoBody       = errors.New("ctl: no stage body was published before the deadline (mirror diverged?)")
)

// FollowerConfig connects one executor process to its driver; it beats at
// the period the driver's welcome carries.
type FollowerConfig struct {
	DriverAddr string
	ID         int
	Token      string
	// DataAddr is the data-plane listen address ("127.0.0.1:0" default);
	// the resolved address is advertised in the handshake.
	DataAddr string
}

// matEntry is the latest announced materialization of one dataset.
type matEntry struct {
	epoch   int
	shuffle int64
}

// stageVerdict is a stored StageEnd broadcast.
type stageVerdict struct {
	verdict byte
	errMsg  string
}

// Follower is the executor-process side of the control plane: the
// control connection, the data-plane server whose address it advertises,
// and the stores behind its one wait loop: what the engine's mirrored
// program waits on (plan, stage verdicts, action results, materialization
// announcements) and what the driver's dispatched attempts wait on (the
// stage bodies the program published).
type Follower struct {
	id     int
	conn   *rpcConn
	server *transport.DataServer

	mu       sync.Mutex
	cond     *sync.Cond
	rt       Runtime
	plan     []byte
	hasPlan  bool
	ends     map[string]stageVerdict
	actions  map[string][]byte
	mats     map[int]matEntry
	bodies   map[string]StageBody
	lookups  map[uint64]chan lookupReply
	cancels  map[uint64]chan struct{} // taskID → attempt cancel signal
	closed   bool                     // the connection died or the driver broadcast Shutdown
	closeErr error

	// snapMu is held from reading a counter snapshot to sending it, so
	// snapshots reach the driver in the order they were taken: the driver
	// keeps the last vector it received, and a heartbeat must not lay an
	// older one over a metrics reply's.
	snapMu sync.Mutex

	shutdownCh chan struct{} // closed with closed
	nextReq    atomic.Uint64
}

type lookupReply struct {
	found bool
	exec  int
	addr  string
}

// NewFollower starts the data server, dials the driver, and completes
// the handshake. The caller then awaits the plan, builds the mirrored
// engine, and registers it with SetRuntime.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	server, err := transport.NewDataServer(cfg.DataAddr)
	if err != nil {
		return nil, err
	}
	c, err := net.Dial("tcp", cfg.DriverAddr)
	if err != nil {
		server.Close()
		return nil, fmt.Errorf("ctl: dialing driver %s: %w", cfg.DriverAddr, err)
	}
	f := &Follower{
		id:         cfg.ID,
		conn:       newRPCConn(c),
		server:     server,
		ends:       make(map[string]stageVerdict),
		actions:    make(map[string][]byte),
		mats:       make(map[int]matEntry),
		bodies:     make(map[string]StageBody),
		lookups:    make(map[uint64]chan lookupReply),
		cancels:    make(map[uint64]chan struct{}),
		shutdownCh: make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)

	var e enc
	e.int(int64(cfg.ID))
	e.str(cfg.Token)
	e.str(server.Addr())
	if err := f.conn.send(msgHello, e.b); err != nil {
		f.teardown()
		return nil, fmt.Errorf("ctl: handshake send: %w", err)
	}
	t, payload, err := f.conn.read()
	if err != nil || t != msgWelcome {
		f.teardown()
		return nil, fmt.Errorf("ctl: handshake: %v (frame type %d)", err, t)
	}
	period, err := decodeWelcome(payload)
	if err != nil {
		f.teardown()
		return nil, err
	}

	go f.readLoop()
	go f.heartbeatLoop(period)
	return f, nil
}

func (f *Follower) teardown() {
	f.conn.close()
	f.server.Close()
}

// ID returns this executor's id.
func (f *Follower) ID() int { return f.id }

// DataServer returns the local data-plane server map tasks register
// their outputs on.
func (f *Follower) DataServer() *transport.DataServer { return f.server }

// ShutdownCh closes when the driver broadcast Shutdown or the control
// connection died.
func (f *Follower) ShutdownCh() <-chan struct{} { return f.shutdownCh }

// SetRuntime registers the engine's executor-side runtime; announced
// materializations and releases queued before this point proceed once it
// is set.
func (f *Follower) SetRuntime(rt Runtime) {
	f.mu.Lock()
	f.rt = rt
	f.mu.Unlock()
	f.cond.Broadcast()
}

// waitLocked blocks, with f.mu held, until ready reports true, or the wait
// ends: the control connection died or the driver broadcast Shutdown
// (closeErr), or ended — nil for a wait with no end of its own — reports
// why. It is the one wait loop behind every follower-side await, so a
// liveness rule has exactly one place to land; whatever can change an
// answer broadcasts f.cond under f.mu.
func (f *Follower) waitLocked(ready func() bool, ended func() error) error {
	for !ready() {
		if f.closed {
			return f.closeErr
		}
		if ended != nil {
			if err := ended(); err != nil {
				return err
			}
		}
		f.cond.Wait()
	}
	return nil
}

// runtime blocks until SetRuntime (nil once the follower is closed).
func (f *Follower) runtime() Runtime {
	f.mu.Lock()
	defer f.mu.Unlock()
	_ = f.waitLocked(func() bool { return f.rt != nil }, nil)
	return f.rt
}

// AddStageBody publishes what the driver's dispatched attempts of the
// stage run; attempts that arrived first stop waiting for it.
func (f *Follower) AddStageBody(key string, body StageBody) {
	f.mu.Lock()
	f.bodies[key] = body
	f.mu.Unlock()
	f.cond.Broadcast()
}

// DropStageBodies withdraws the stages' bodies (the driver dispatches no
// attempt of a stage after its verdict).
func (f *Follower) DropStageBodies(keys ...string) {
	f.mu.Lock()
	for _, key := range keys {
		delete(f.bodies, key)
	}
	f.mu.Unlock()
}

// awaitBody blocks until the stage's body is published. Beyond the ends
// every wait has, this one ends when the attempt's cancel closes (the
// driver no longer waits for it) or when stageBodyTimeout passes (the
// mirror diverged and will never reach the stage).
func (f *Follower) awaitBody(key string, cancel <-chan struct{}) (StageBody, error) {
	expired := false
	deadline := time.AfterFunc(stageBodyTimeout, func() {
		f.mu.Lock()
		expired = true
		f.mu.Unlock()
		f.cond.Broadcast()
	})
	defer deadline.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	var body StageBody
	err := f.waitLocked(func() bool { body = f.bodies[key]; return body != nil }, func() error {
		select {
		case <-cancel:
			return errBodyCanceled
		default:
		}
		if expired {
			return errNoBody
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("stage %q: %w", key, err)
	}
	return body, nil
}

// markClosed wakes every waiter with a terminal error.
func (f *Follower) markClosed(err error) {
	f.mu.Lock()
	if !f.closed {
		f.closed, f.closeErr = true, err
		for _, ch := range f.lookups {
			close(ch)
		}
		f.lookups = make(map[uint64]chan lookupReply)
		close(f.shutdownCh)
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Close tears the follower down (executor main, after shutdown).
func (f *Follower) Close() {
	f.markClosed(fmt.Errorf("ctl: follower closed"))
	f.teardown()
}

// readLoop dispatches driver frames. Quick handlers run inline; task
// execution and engine-touching handlers run on their own goroutines so
// the control stream never stalls behind a long task body.
func (f *Follower) readLoop() {
	for {
		t, payload, err := f.conn.read()
		if err != nil {
			f.markClosed(fmt.Errorf("ctl: driver connection: %w", err))
			return
		}
		dd := &dec{b: payload}
		switch t {
		case msgPlan:
			spec := append([]byte(nil), dd.bytes()...)
			if !dd.ok() {
				continue
			}
			f.mu.Lock()
			f.plan = spec
			f.hasPlan = true
			f.mu.Unlock()
			f.cond.Broadcast()
		case msgRunTask:
			taskID := dd.uint()
			key := dd.str()
			stage := int(dd.int())
			part := int(dd.int())
			attempt := int(dd.int())
			if !dd.ok() {
				continue
			}
			cancel := make(chan struct{})
			f.mu.Lock()
			f.cancels[taskID] = cancel
			f.mu.Unlock()
			go f.handleRunTask(taskID, key, stage, part, attempt, cancel)
		case msgCancelTask:
			taskID := dd.uint()
			if !dd.ok() {
				continue
			}
			f.mu.Lock()
			if cancel := f.cancels[taskID]; cancel != nil {
				close(cancel)
				delete(f.cancels, taskID)
			}
			f.mu.Unlock()
			f.cond.Broadcast() // a body wait of the attempt ends
		case msgStageEnd:
			key := dd.str()
			if len(dd.b) < 1 {
				continue
			}
			verdict := dd.b[0]
			dd.b = dd.b[1:]
			errMsg := dd.str()
			if !dd.ok() {
				continue
			}
			f.mu.Lock()
			f.ends[key] = stageVerdict{verdict: verdict, errMsg: errMsg}
			f.mu.Unlock()
			f.cond.Broadcast()
		case msgActionResult:
			key := dd.str()
			res := append([]byte(nil), dd.bytes()...)
			if !dd.ok() {
				continue
			}
			f.mu.Lock()
			f.actions[key] = res
			f.mu.Unlock()
			f.cond.Broadcast()
		case msgMaterialize:
			dataset := int(dd.int())
			epoch := int(dd.int())
			shuffle := dd.int()
			if !dd.ok() {
				continue
			}
			f.mu.Lock()
			if cur, ok := f.mats[dataset]; !ok || epoch > cur.epoch {
				f.mats[dataset] = matEntry{epoch: epoch, shuffle: shuffle}
			}
			f.mu.Unlock()
			f.cond.Broadcast()
			// Participate even when none of this executor's own tasks pull
			// the dataset: its map tasks still need registered bodies.
			go func() {
				if rt := f.runtime(); rt != nil {
					rt.MaterializeDataset(dataset, epoch)
				}
			}()
		case msgDiscardOutput:
			id := decodeOutputID(dd)
			if !dd.ok() {
				continue
			}
			if p, ok := f.server.Take(id); ok {
				if r, okR := p.Data.(interface{ Release() }); okR {
					r.Release()
				}
			}
		case msgReleaseDataset:
			dataset := int(dd.int())
			epoch := int(dd.int())
			if !dd.ok() {
				continue
			}
			go func() {
				if rt := f.runtime(); rt != nil {
					rt.ReleaseDataset(dataset, epoch)
				}
			}()
		case msgLookupReply:
			reqID := dd.uint()
			found := dd.bool()
			exec := int(dd.int())
			addr := dd.str()
			if !dd.ok() {
				continue
			}
			f.mu.Lock()
			ch := f.lookups[reqID]
			delete(f.lookups, reqID)
			f.mu.Unlock()
			if ch != nil {
				ch <- lookupReply{found: found, exec: exec, addr: addr}
			}
		case msgMetricsRequest:
			reqID := dd.uint()
			if !dd.ok() {
				continue
			}
			var snap obs.CounterValues
			f.mu.Lock()
			rt := f.rt
			f.mu.Unlock()
			f.snapMu.Lock()
			if rt != nil {
				snap = rt.Snapshot()
			}
			var e enc
			e.uint(reqID)
			e.b = appendSnapshot(e.b, snap)
			f.conn.send(msgMetricsReply, e.b)
			f.snapMu.Unlock()
		case msgShutdown:
			f.markClosed(errShutdown)
		}
	}
}

// handleRunTask runs one dispatched attempt against the body the mirrored
// program published for its stage, and answers TaskDone. A body wait that
// ends early is the attempt's failure — Canceled when the driver canceled it.
func (f *Follower) handleRunTask(taskID uint64, key string, stage, part, attempt int, cancel <-chan struct{}) {
	var res TaskResult
	if body, err := f.awaitBody(key, cancel); err != nil {
		res = TaskResult{ErrMsg: err.Error(), Canceled: errors.Is(err, errBodyCanceled)}
	} else {
		res = body(stage, part, attempt, cancel)
	}
	f.mu.Lock()
	delete(f.cancels, taskID) // a cancel arriving after the result is a no-op
	f.mu.Unlock()
	var e enc
	appendTaskResult(&e, taskID, res)
	f.conn.send(msgTaskDone, e.b)
}

func (f *Follower) heartbeatLoop(interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
		case <-f.shutdownCh:
			return
		}
		var snap obs.CounterValues
		f.mu.Lock()
		rt := f.rt
		f.mu.Unlock()
		var evs []obs.Event
		f.snapMu.Lock()
		if rt != nil {
			snap = rt.Snapshot()
			if src, ok := rt.(EventSource); ok {
				evs = src.DrainEvents(heartbeatEventBatch)
			}
		}
		payload := appendSnapshot(nil, snap)
		if len(evs) > 0 {
			payload = appendEvents(payload, evs)
		}
		err := f.conn.send(msgHeartbeat, payload)
		f.snapMu.Unlock()
		if err != nil {
			f.markClosed(fmt.Errorf("ctl: heartbeat send: %w", err))
			return
		}
	}
}

// AwaitPlan blocks until the driver registers the plan.
func (f *Follower) AwaitPlan() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.waitLocked(func() bool { return f.hasPlan }, nil); err != nil {
		return nil, err
	}
	return f.plan, nil
}

// AwaitStageEnd blocks until the driver broadcasts the stage's verdict,
// consuming it.
func (f *Follower) AwaitStageEnd(key string) (byte, string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var v stageVerdict
	var ok bool
	if err := f.waitLocked(func() bool { v, ok = f.ends[key]; return ok }, nil); err != nil {
		return VerdictAbort, "", err
	}
	delete(f.ends, key)
	return v.verdict, v.errMsg, nil
}

// AwaitActionResult blocks until the driver broadcasts the action's
// folded result, consuming it.
func (f *Follower) AwaitActionResult(key string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var res []byte
	var ok bool
	if err := f.waitLocked(func() bool { res, ok = f.actions[key]; return ok }, nil); err != nil {
		return nil, err
	}
	delete(f.actions, key)
	return res, nil
}

// AwaitMaterialize blocks until a materialization of the dataset with an
// epoch above afterEpoch has been announced and returns it.
func (f *Follower) AwaitMaterialize(dataset, afterEpoch int) (epoch int, shuffle int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var m matEntry
	if err := f.waitLocked(func() bool { m = f.mats[dataset]; return m.epoch > afterEpoch }, nil); err != nil {
		return 0, 0, err
	}
	return m.epoch, m.shuffle, nil
}

// NeedShuffle notifies the driver that a local task pulled an
// unmaterialized shuffle.
func (f *Follower) NeedShuffle(dataset int) {
	var e enc
	e.int(int64(dataset))
	f.conn.send(msgNeedShuffle, e.b)
}

// The follower is its process's transport.Directory: the driver's
// directory, reached over the control connection.

// Publish records a map output's location in the driver directory.
// Ordering is guaranteed against this executor's later TaskDone frames
// (same stream, handled in order by the driver). It reports no previous
// holder: the driver tells a displaced one to discard (msgDiscardOutput).
func (f *Follower) Publish(id transport.MapOutputID, exec int) (int, bool, error) {
	var e enc
	appendOutputID(&e, id)
	e.int(int64(exec))
	return 0, false, f.conn.send(msgRegisterOutput, e.b)
}

// Retire and RetireShuffle are no-ops: the driver retires directory
// entries on its own verdicts, a follower only its local node's.
func (f *Follower) Retire([]transport.MapOutputID)    {}
func (f *Follower) RetireShuffle(transport.ShuffleID) {}

// Lookup resolves the output's directory entry without consuming it (the
// entry lives until the consuming stage commits). found=false with nil
// error means nothing is registered — the output is definitively lost
// and lineage repair is the only way back.
func (f *Follower) Lookup(id transport.MapOutputID) (exec int, addr string, found bool, err error) {
	reqID := f.nextReq.Add(1)
	ch := make(chan lookupReply, 1)
	f.mu.Lock()
	if f.closed {
		err := f.closeErr
		f.mu.Unlock()
		return 0, "", false, err
	}
	f.lookups[reqID] = ch
	f.mu.Unlock()
	var e enc
	e.uint(reqID)
	appendOutputID(&e, id)
	if err := f.conn.send(msgLookupOutput, e.b); err != nil {
		f.mu.Lock()
		delete(f.lookups, reqID)
		f.mu.Unlock()
		return 0, "", false, err
	}
	rep, ok := <-ch
	if !ok {
		return 0, "", false, fmt.Errorf("ctl: driver connection lost during lookup")
	}
	return rep.exec, rep.addr, rep.found, nil
}
