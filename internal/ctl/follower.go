package ctl

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"deca/internal/obs"
	"deca/internal/transport"
)

// Runtime is what the engine plugs into a Follower once its mirrored
// context exists: the executor side of the shuffle lifecycle, its counters
// and its event backlog. All methods may be called concurrently.
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
	// DrainEvents removes and returns up to max buffered events (all if
	// max <= 0; none without a recorder). Every heartbeat frame carries
	// them, giving the driver a rolling cluster-wide event stream mid-job.
	DrainEvents(max int) []obs.Event
}

// StageBody runs one dispatched attempt of a stage the mirrored program
// published (AddStageBody).
type StageBody func(stage, part, attempt int) TaskResult

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

// The ends of a follower's wait other than its answer: errShutdown ends
// every wait once the driver broadcast Shutdown or the connection to it
// died (wrapping the cause); errNoBody ends a body wait whose deadline
// passed.
var (
	errShutdown = errors.New("ctl: the follower shut down")
	errNoBody   = errors.New("ctl: no stage body was published before the deadline (mirror diverged?)")
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
// and the stores behind its waits, which its waiter guards: what the
// engine's mirrored program waits on (plan, stage verdicts, action
// results, materialization announcements), what the driver's dispatched
// attempts wait on (the stage bodies the program published), the lookup
// replies, and the metrics requests the heartbeat answers.
type Follower struct {
	id     int
	conn   *rpcConn
	server *transport.DataServer

	waiter  // stopped when the connection dies or the driver broadcasts Shutdown
	rt      Runtime
	plan    []byte
	hasPlan bool
	ends    map[string]stageVerdict
	actions map[string][]byte
	mats    map[int]matEntry
	bodies  map[string]StageBody
	lookups map[uint64]*lookupReply // reqID → reply; nil while awaited
	asked   uint64                  // the highest metrics request read

	shutdownCh chan struct{} // closed when the waiter stops
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
		lookups:    make(map[uint64]*lookupReply),
		shutdownCh: make(chan struct{}),
	}

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

// runtime blocks until SetRuntime (nil once the follower is closed).
func (f *Follower) runtime() Runtime {
	f.mu.Lock()
	defer f.mu.Unlock()
	_ = f.waitLocked(func() bool { return f.rt != nil }, never)
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
// every wait has, this one ends when stageBodyTimeout passes (the mirror
// diverged and will never reach the stage).
func (f *Follower) awaitBody(key string) (StageBody, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var body StageBody
	err := f.waitLocked(func() bool { body = f.bodies[key]; return body != nil }, time.Now().Add(stageBodyTimeout))
	if errors.Is(err, errDeadline) {
		err = errNoBody
	}
	if err != nil {
		return nil, fmt.Errorf("stage %q: %w", key, err)
	}
	return body, nil
}

// markClosed ends every wait with errShutdown, wrapping cause (nil: the
// driver broadcast Shutdown).
func (f *Follower) markClosed(cause error) {
	err := errShutdown
	if cause != nil {
		err = fmt.Errorf("%w: %w", errShutdown, cause)
	}
	if f.stop(err) {
		close(f.shutdownCh)
	}
}

// Close tears the follower down (executor main, after shutdown).
func (f *Follower) Close() {
	f.markClosed(errors.New("closed"))
	f.teardown()
}

// readLoop dispatches driver frames. Quick handlers run inline; task
// execution and engine-touching handlers run on their own goroutines so
// the control stream never stalls behind a long task body.
func (f *Follower) readLoop() {
	for {
		t, payload, err := f.conn.read()
		if err != nil {
			f.markClosed(fmt.Errorf("driver connection: %w", err))
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
			go f.handleRunTask(taskID, key, stage, part, attempt)
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
			f.server.Discard(id)
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
			answer(&f.waiter, f.lookups, reqID, lookupReply{found: found, exec: exec, addr: addr})
		case msgMetricsRequest:
			reqID := dd.uint()
			if !dd.ok() {
				continue
			}
			f.mu.Lock()
			f.asked = max(f.asked, reqID)
			f.mu.Unlock()
			f.cond.Broadcast()
		case msgShutdown:
			f.markClosed(nil)
		}
	}
}

// handleRunTask runs one dispatched attempt against the body the mirrored
// program published for its stage, and answers TaskDone. A body wait that
// ends early is the attempt's failure.
func (f *Follower) handleRunTask(taskID uint64, key string, stage, part, attempt int) {
	var res TaskResult
	if body, err := f.awaitBody(key); err != nil {
		res = TaskResult{ErrMsg: err.Error()}
	} else {
		res = body(stage, part, attempt)
	}
	var e enc
	appendTaskResult(&e, taskID, res)
	f.conn.send(msgTaskDone, e.b)
}

// heartbeatLoop is the one sender of counter snapshots, so they reach the
// driver in the order taken: it beats every interval, and at once when the
// driver asks for metrics. A beat carries the highest metrics request read
// before its snapshot was taken, which tells SyncMetrics it is answered.
func (f *Follower) heartbeatLoop(interval time.Duration) {
	var answered uint64
	for {
		f.mu.Lock()
		err := f.waitLocked(func() bool { return f.asked > answered }, time.Now().Add(interval))
		answered = f.asked
		rt := f.rt
		f.mu.Unlock()
		if err != nil && !errors.Is(err, errDeadline) {
			return
		}
		var snap obs.CounterValues
		var evs []obs.Event
		if rt != nil {
			snap = rt.Snapshot()
			evs = rt.DrainEvents(heartbeatEventBatch)
		}
		if err := f.conn.send(msgHeartbeat, appendHeartbeat(answered, snap, evs)); err != nil {
			f.markClosed(fmt.Errorf("heartbeat send: %w", err))
			return
		}
	}
}

// AwaitPlan blocks until the driver registers the plan.
func (f *Follower) AwaitPlan() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.waitLocked(func() bool { return f.hasPlan }, never); err != nil {
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
	if err := f.waitLocked(func() bool { v, ok = f.ends[key]; return ok }, never); err != nil {
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
	if err := f.waitLocked(func() bool { res, ok = f.actions[key]; return ok }, never); err != nil {
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
	if err := f.waitLocked(func() bool { m = f.mats[dataset]; return m.epoch > afterEpoch }, never); err != nil {
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
// (same stream, handled in order by the driver); the driver tells a
// displaced holder to discard (msgDiscardOutput).
func (f *Follower) Publish(id transport.MapOutputID, exec int) error {
	var e enc
	appendOutputID(&e, id)
	e.int(int64(exec))
	return f.conn.send(msgRegisterOutput, e.b)
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
	var e enc
	e.uint(reqID)
	appendOutputID(&e, id)
	rep, err := roundTrip(&f.waiter, f.lookups, reqID, func() error { return f.conn.send(msgLookupOutput, e.b) })
	return rep.exec, rep.addr, rep.found, err
}
