package ctl

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deca/internal/obs"
	"deca/internal/transport"
)

// DriverConfig sizes the control plane's driver side.
type DriverConfig struct {
	// NumExecutors is how many deca-executor processes to spawn.
	NumExecutors int
	// ExecutorCmd is the argv prefix of the executor binary; the driver
	// appends "-driver <addr> -id <i> -token <t>". A trailing "--" in the
	// prefix lets wrappers (the test binary re-execing itself) separate
	// their own flags from the executor's.
	ExecutorCmd []string
	// ListenAddr is the control listener address ("127.0.0.1:0" default).
	ListenAddr string
	// HeartbeatInterval is the executor heartbeat period (default 100ms);
	// HeartbeatMisses is the liveness miss budget: an executor silent for
	// misses*interval is declared dead (default 20, i.e. 2s).
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// SpawnTimeout bounds the spawn+handshake of the whole fleet
	// (default 30s).
	SpawnTimeout time.Duration
	// OnExecutorDead fires once per executor when it is declared dead
	// (process exit, control-connection error, or heartbeat-budget
	// exhaustion). The engine feeds it straight into sched's blacklist.
	OnExecutorDead func(exec int)
	// OnNeedShuffle serves follower materialization requests: a follower
	// task pulled an unmaterialized shuffle, and the driver must run its
	// stages cluster-wide. Concurrent requests for one dataset are
	// deduplicated by the engine's memoized shuffle state.
	OnNeedShuffle func(dataset int)
	// OnEvents receives the observability events an executor's heartbeat
	// shipped (nil = events are dropped on the floor). Called from the
	// executor's read loop; implementations should just ingest and return.
	OnEvents func(exec int, evs []obs.Event)
}

func (c DriverConfig) withDefaults() DriverConfig {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 20
	}
	if c.SpawnTimeout <= 0 {
		c.SpawnTimeout = 30 * time.Second
	}
	return c
}

// execState is the driver's view of one executor process.
type execState struct {
	id   int
	cmd  *exec.Cmd
	conn *rpcConn

	dataAddr string

	mu       sync.Mutex
	alive    bool
	deadErr  error
	deadCh   chan struct{} // closed when declared dead
	lastBeat time.Time
	counters obs.CounterValues          // the latest snapshot: heartbeat or metrics reply
	pending  map[uint64]chan TaskResult // taskID → dispatch waiter
	reqs     map[uint64]chan struct{}   // reqID → SyncMetrics waiter
}

// Driver supervises the executor fleet: it spawns the processes, owns
// the control connections, tracks liveness, stores the shuffle location
// directory, and dispatches task descriptors.
type Driver struct {
	cfg   DriverConfig
	ln    net.Listener
	token string

	execs []*execState

	dirMu sync.Mutex
	dir   map[transport.MapOutputID]int // output id → executor holding it

	nextTask atomic.Uint64
	nextReq  atomic.Uint64

	closeOnce sync.Once
	closed    atomic.Bool
}

// NewDriver starts the control listener, spawns the executor fleet, and
// waits for every executor's handshake. On failure the partially-started
// fleet is torn down.
func NewDriver(cfg DriverConfig) (*Driver, error) {
	cfg = cfg.withDefaults()
	if cfg.NumExecutors <= 0 {
		return nil, fmt.Errorf("ctl: need at least one executor")
	}
	if len(cfg.ExecutorCmd) == 0 {
		return nil, fmt.Errorf("ctl: DriverConfig.ExecutorCmd is empty (where is deca-executor?)")
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("ctl: control listener: %w", err)
	}
	var tok [16]byte
	if _, err := rand.Read(tok[:]); err != nil {
		ln.Close()
		return nil, err
	}
	d := &Driver{
		cfg:   cfg,
		ln:    ln,
		token: hex.EncodeToString(tok[:]),
		dir:   make(map[transport.MapOutputID]int),
		execs: make([]*execState, cfg.NumExecutors),
	}
	for i := range d.execs {
		d.execs[i] = &execState{
			id:      i,
			deadCh:  make(chan struct{}),
			pending: make(map[uint64]chan TaskResult),
			reqs:    make(map[uint64]chan struct{}),
		}
	}

	// Collect handshakes concurrently with spawning.
	type hello struct {
		id   int
		conn *rpcConn
		addr string
	}
	hellos := make(chan hello, cfg.NumExecutors)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				rc := newRPCConn(c)
				t, payload, err := rc.read()
				if err != nil || t != msgHello {
					rc.close()
					return
				}
				dd := &dec{b: payload}
				id := int(dd.int())
				token := dd.str()
				dataAddr := dd.str()
				if !dd.ok() || token != d.token || id < 0 || id >= cfg.NumExecutors {
					rc.close()
					return
				}
				hellos <- hello{id: id, conn: rc, addr: dataAddr}
			}()
		}
	}()

	for i := 0; i < cfg.NumExecutors; i++ {
		if err := d.spawn(i); err != nil {
			d.teardown()
			return nil, err
		}
	}

	deadline := time.After(cfg.SpawnTimeout)
	seen := 0
	for seen < cfg.NumExecutors {
		select {
		case h := <-hellos:
			st := d.execs[h.id]
			st.mu.Lock()
			if st.conn != nil {
				st.mu.Unlock()
				h.conn.close() // duplicate handshake
				continue
			}
			st.conn = h.conn
			st.dataAddr = h.addr
			st.alive = true
			st.lastBeat = time.Now()
			st.mu.Unlock()
			// Welcome: the executor may proceed to wait for the plan.
			var e enc
			e.int(int64(cfg.NumExecutors))
			if err := h.conn.send(msgWelcome, e.b); err != nil {
				d.teardown()
				return nil, fmt.Errorf("ctl: welcoming executor %d: %w", h.id, err)
			}
			seen++
		case <-deadline:
			d.teardown()
			return nil, fmt.Errorf("ctl: %d/%d executors handshook within %v",
				seen, cfg.NumExecutors, cfg.SpawnTimeout)
		}
	}

	for _, st := range d.execs {
		go d.readLoop(st)
		go d.waitChild(st)
	}
	go d.heartbeatMonitor()
	return d, nil
}

// spawn starts executor i's process.
func (d *Driver) spawn(i int) error {
	argv := append(append([]string{}, d.cfg.ExecutorCmd...),
		"-driver", d.ln.Addr().String(),
		"-id", strconv.Itoa(i),
		"-token", d.token,
	)
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout = os.Stderr // keep the driver's stdout clean for reports
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("ctl: spawning executor %d (%s): %w", i, argv[0], err)
	}
	d.execs[i].cmd = cmd
	return nil
}

// teardown kills whatever was started (failed bring-up path).
func (d *Driver) teardown() {
	d.ln.Close()
	for _, st := range d.execs {
		if st.cmd != nil && st.cmd.Process != nil {
			st.cmd.Process.Kill()
			st.cmd.Wait()
		}
		if st.conn != nil {
			st.conn.close()
		}
	}
}

// markDead declares an executor dead exactly once: its pending dispatches
// fail, its process is reaped, and OnExecutorDead fires.
func (d *Driver) markDead(st *execState, cause error) {
	st.mu.Lock()
	if !st.alive {
		st.mu.Unlock()
		return
	}
	st.alive = false
	st.deadErr = cause
	close(st.deadCh)
	pending := st.pending
	st.pending = make(map[uint64]chan TaskResult)
	reqs := st.reqs
	st.reqs = make(map[uint64]chan struct{})
	st.mu.Unlock()
	if st.conn != nil {
		st.conn.close()
	}
	if st.cmd != nil && st.cmd.Process != nil {
		st.cmd.Process.Kill() // idempotent; reaped by waitChild
	}
	for _, ch := range pending {
		close(ch)
	}
	for _, ch := range reqs {
		close(ch)
	}
	// Sweep the directory: outputs homed on the dead executor are gone
	// with its process, so lookups for them must report definitively
	// missing — that miss is what triggers map-task-granular lineage
	// repair on the driver.
	d.dirMu.Lock()
	for id, exec := range d.dir {
		if exec == st.id {
			delete(d.dir, id)
		}
	}
	d.dirMu.Unlock()
	if d.cfg.OnExecutorDead != nil && !d.closed.Load() {
		d.cfg.OnExecutorDead(st.id)
	}
}

// waitChild reaps the process and declares the executor dead on exit.
func (d *Driver) waitChild(st *execState) {
	if st.cmd == nil {
		return
	}
	err := st.cmd.Wait()
	d.markDead(st, fmt.Errorf("ctl: executor %d process exited: %v", st.id, err))
}

// heartbeatMonitor declares executors whose heartbeats stopped dead.
func (d *Driver) heartbeatMonitor() {
	budget := time.Duration(d.cfg.HeartbeatMisses) * d.cfg.HeartbeatInterval
	ticker := time.NewTicker(d.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for range ticker.C {
		if d.closed.Load() {
			return
		}
		now := time.Now()
		for _, st := range d.execs {
			st.mu.Lock()
			silent := st.alive && now.Sub(st.lastBeat) > budget
			st.mu.Unlock()
			if silent {
				d.markDead(st, fmt.Errorf("ctl: executor %d missed %d heartbeats",
					st.id, d.cfg.HeartbeatMisses))
			}
		}
	}
}

// readLoop dispatches one executor's inbound control frames. Directory
// operations and task results are handled inline so their order relative
// to each other is preserved (a task's RegisterOutput frames land in the
// directory before its TaskDone is observed); blocking handlers
// (NeedShuffle) run on their own goroutines.
func (d *Driver) readLoop(st *execState) {
	for {
		t, payload, err := st.conn.read()
		if err != nil {
			d.markDead(st, fmt.Errorf("ctl: executor %d control connection: %w", st.id, err))
			return
		}
		dd := &dec{b: payload}
		switch t {
		case msgHeartbeat:
			snap, evs, ok := decodeHeartbeat(payload)
			if !ok {
				d.markDead(st, fmt.Errorf("ctl: executor %d sent a malformed heartbeat", st.id))
				return
			}
			st.mu.Lock()
			st.lastBeat = time.Now()
			st.counters = snap
			st.mu.Unlock()
			if len(evs) > 0 && d.cfg.OnEvents != nil {
				d.cfg.OnEvents(st.id, evs)
			}
		case msgTaskDone:
			taskID, res := decodeTaskResult(dd)
			if !dd.ok() {
				continue
			}
			st.mu.Lock()
			ch := st.pending[taskID]
			delete(st.pending, taskID)
			st.mu.Unlock()
			if ch != nil {
				ch <- res
			}
		case msgRegisterOutput:
			id := decodeOutputID(dd)
			from := int(dd.int())
			if !dd.ok() {
				continue
			}
			d.Publish(id, from)
		case msgLookupOutput:
			reqID := dd.uint()
			id := decodeOutputID(dd)
			if !dd.ok() {
				continue
			}
			exec, addr, found, _ := d.Lookup(id)
			var e enc
			e.uint(reqID)
			e.bool(found)
			e.int(int64(exec))
			e.str(addr)
			st.conn.send(msgLookupReply, e.b)
		case msgNeedShuffle:
			dataset := int(dd.int())
			if !dd.ok() {
				continue
			}
			if d.cfg.OnNeedShuffle != nil {
				go d.cfg.OnNeedShuffle(dataset)
			}
		case msgMetricsReply:
			reqID := dd.uint()
			snap := decodeSnapshot(dd)
			if !dd.ok() {
				continue
			}
			st.mu.Lock()
			ch := st.reqs[reqID]
			delete(st.reqs, reqID)
			st.counters = snap
			st.mu.Unlock()
			if ch != nil {
				close(ch)
			}
		}
	}
}

func decodeOutputID(d *dec) transport.MapOutputID {
	return transport.MapOutputID{
		Shuffle: transport.ShuffleID(d.int()),
		MapTask: int(d.int()),
		Reduce:  int(d.int()),
	}
}

func appendOutputID(e *enc, id transport.MapOutputID) {
	e.int(int64(id.Shuffle))
	e.int(int64(id.MapTask))
	e.int(int64(id.Reduce))
}

// The driver is the cluster's transport.Directory: Publish and Lookup
// serve the followers' RegisterOutput and LookupOutput frames, Retire and
// RetireShuffle the driver's own stage verdicts.

// Publish records a map output's location, telling the previous holder —
// when the entry moved across executors on a retry or a speculative
// re-registration — to discard its now-orphaned buffers, which is why it
// reports no previous holder for the caller to take from. Same-executor
// displacement is handled locally by the executor's own data server.
func (d *Driver) Publish(id transport.MapOutputID, exec int) (int, bool, error) {
	d.dirMu.Lock()
	prev, had := d.dir[id]
	d.dir[id] = exec
	d.dirMu.Unlock()
	if had && prev != exec {
		d.sendDiscard(prev, id)
	}
	return 0, false, nil
}

// Lookup resolves the output's holder and its data address. It is
// non-consuming: the entry survives so reduce retries and speculative
// twins can re-fetch; Retire or RetireShuffle end its lifetime.
func (d *Driver) Lookup(id transport.MapOutputID) (exec int, addr string, found bool, err error) {
	d.dirMu.Lock()
	exec, found = d.dir[id]
	d.dirMu.Unlock()
	if found && exec >= 0 && exec < len(d.execs) {
		addr = d.execs[exec].dataAddr
	}
	return exec, addr, found, nil
}

func (d *Driver) sendDiscard(exec int, id transport.MapOutputID) {
	st := d.execs[exec]
	st.mu.Lock()
	alive := st.alive
	st.mu.Unlock()
	if !alive {
		return
	}
	var e enc
	appendOutputID(&e, id)
	st.conn.send(msgDiscardOutput, e.b)
}

// Retire ends the listed outputs' lifetime after their consuming stage
// committed: each directory entry is retired and its holder told to
// discard the pinned buffer. Unknown ids (already swept by markDead or a
// racing drop) are skipped.
func (d *Driver) Retire(ids []transport.MapOutputID) {
	d.dirMu.Lock()
	var hit []transport.MapOutputID
	var holders []int
	for _, id := range ids {
		if exec, ok := d.dir[id]; ok {
			hit = append(hit, id)
			holders = append(holders, exec)
			delete(d.dir, id)
		}
	}
	d.dirMu.Unlock()
	for i, id := range hit {
		d.sendDiscard(holders[i], id)
	}
}

// RetireShuffle is DropShuffle as the directory seam spells it.
func (d *Driver) RetireShuffle(shuffle transport.ShuffleID) { d.DropShuffle(int64(shuffle)) }

// DropShuffle purges the shuffle's directory entries and tells each
// holder to discard the buffers. It returns how many entries were
// dropped.
func (d *Driver) DropShuffle(shuffle int64) int {
	d.dirMu.Lock()
	var ids []transport.MapOutputID
	var holders []int
	for id, exec := range d.dir {
		if int64(id.Shuffle) == shuffle {
			ids = append(ids, id)
			holders = append(holders, exec)
		}
	}
	for _, id := range ids {
		delete(d.dir, id)
	}
	d.dirMu.Unlock()
	for i, id := range ids {
		d.sendDiscard(holders[i], id)
	}
	return len(ids)
}

// ExecStatus is one executor's liveness, for the ops plane.
type ExecStatus struct {
	Exec     int
	Alive    bool
	LastBeat time.Time
}

// Statuses returns every executor's last-heartbeat state without any
// round trip — the rolling view heartbeats maintain, read mid-job by
// the ops endpoints.
func (d *Driver) Statuses() []ExecStatus {
	out := make([]ExecStatus, len(d.execs))
	for i, st := range d.execs {
		st.mu.Lock()
		out[i] = ExecStatus{
			Exec: i, Alive: st.alive, LastBeat: st.lastBeat,
		}
		st.mu.Unlock()
	}
	return out
}

// Counters returns the executor-resident counter values the executor last
// reported, without any round trip.
func (d *Driver) Counters(exec int) obs.CounterValues {
	st := d.execs[exec]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.counters
}

// Kill SIGKILLs the executor's process — the chaos harness's executor
// kill made real. Death is then observed through the normal channels
// (process exit, connection error).
func (d *Driver) Kill(exec int) {
	st := d.execs[exec]
	if st.cmd != nil && st.cmd.Process != nil {
		st.cmd.Process.Kill()
	}
}

// RunTask dispatches one attempt descriptor to an executor and waits for
// its result. A dead executor — at dispatch time or mid-flight — returns
// an error, which the scheduler counts as the attempt's failure. A close
// of cancel (nil = never) relays a best-effort msgCancelTask to the
// executor — the attempt's twin already won, or its stage aborted — and
// keeps waiting: the executor always answers with msgTaskDone. Per-
// connection FIFO guarantees the executor reads the RunTask frame before
// the CancelTask frame.
func (d *Driver) RunTask(exec int, key string, stage, part, attempt int, cancel <-chan struct{}) (TaskResult, error) {
	st := d.execs[exec]
	taskID := d.nextTask.Add(1)
	ch := make(chan TaskResult, 1)
	st.mu.Lock()
	if !st.alive {
		err := st.deadErr
		st.mu.Unlock()
		return TaskResult{}, fmt.Errorf("ctl: executor %d is dead: %w", exec, err)
	}
	st.pending[taskID] = ch
	st.mu.Unlock()

	var e enc
	e.uint(taskID)
	e.str(key)
	e.int(int64(stage))
	e.int(int64(part))
	e.int(int64(attempt))
	if err := st.conn.send(msgRunTask, e.b); err != nil {
		st.mu.Lock()
		delete(st.pending, taskID)
		st.mu.Unlock()
		return TaskResult{}, fmt.Errorf("ctl: dispatching to executor %d: %w", exec, err)
	}
	for {
		select {
		case res, ok := <-ch:
			if !ok {
				return TaskResult{}, fmt.Errorf("ctl: executor %d died running %s part %d attempt %d",
					exec, key, part, attempt)
			}
			return res, nil
		case <-cancel:
			var ce enc
			ce.uint(taskID)
			st.conn.send(msgCancelTask, ce.b)
			cancel = nil // fire once, then wait out the result
		}
	}
}

// broadcast sends a frame to every live executor.
func (d *Driver) broadcast(t byte, payload []byte) {
	for _, st := range d.execs {
		st.mu.Lock()
		alive := st.alive
		st.mu.Unlock()
		if alive {
			st.conn.send(t, payload)
		}
	}
}

// RegisterPlan broadcasts the job plan every executor mirrors.
func (d *Driver) RegisterPlan(spec []byte) {
	var e enc
	e.bytes(spec)
	d.broadcast(msgPlan, e.b)
}

// StageEnd broadcasts a stage's verdict.
func (d *Driver) StageEnd(key string, verdict byte, errMsg string) {
	var e enc
	e.str(key)
	e.b = append(e.b, verdict)
	e.str(errMsg)
	d.broadcast(msgStageEnd, e.b)
}

// ActionResult broadcasts an action's folded result.
func (d *Driver) ActionResult(key string, result []byte) {
	var e enc
	e.str(key)
	e.bytes(result)
	d.broadcast(msgActionResult, e.b)
}

// MaterializeBegin announces a shuffle materialization: the dataset, its
// materialization epoch, and the driver-issued shuffle id the followers
// must use for this exchange.
func (d *Driver) MaterializeBegin(dataset, epoch int, shuffle int64) {
	var e enc
	e.int(int64(dataset))
	e.int(int64(epoch))
	e.int(shuffle)
	d.broadcast(msgMaterialize, e.b)
}

// ReleaseDataset tells every executor to locally release the dataset's
// materialization of the given epoch (recovery: the next read
// re-materializes from lineage). The epoch lets a follower that already
// adopted a newer materialization ignore the late-arriving release.
func (d *Driver) ReleaseDataset(dataset, epoch int) {
	var e enc
	e.int(int64(dataset))
	e.int(int64(epoch))
	d.broadcast(msgReleaseDataset, e.b)
}

// SyncMetrics requests a fresh counter snapshot from every live executor
// and waits, up to timeout, for the replies to land where Counters reads
// them; a dead executor keeps what its last heartbeat reported.
func (d *Driver) SyncMetrics(timeout time.Duration) {
	var wg sync.WaitGroup
	for _, st := range d.execs {
		reqID := d.nextReq.Add(1)
		ch := make(chan struct{})
		st.mu.Lock()
		alive := st.alive
		if alive {
			st.reqs[reqID] = ch
		}
		st.mu.Unlock()
		if !alive {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var e enc
			e.uint(reqID)
			if err := st.conn.send(msgMetricsRequest, e.b); err != nil {
				return
			}
			select {
			case <-ch: // replied, or declared dead
			case <-time.After(timeout):
				st.mu.Lock()
				delete(st.reqs, reqID)
				st.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// Close shuts the fleet down: Shutdown broadcast, a grace period for the
// children to exit, SIGKILL for stragglers, then listener and connection
// teardown. Idempotent.
func (d *Driver) Close() {
	d.closeOnce.Do(func() {
		d.closed.Store(true)
		d.broadcast(msgShutdown, nil)
		deadline := time.Now().Add(5 * time.Second)
		for _, st := range d.execs {
			for {
				st.mu.Lock()
				alive := st.alive
				st.mu.Unlock()
				if !alive || time.Now().After(deadline) {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			if st.cmd != nil && st.cmd.Process != nil {
				st.cmd.Process.Kill()
			}
		}
		d.ln.Close()
		for _, st := range d.execs {
			if st.conn != nil {
				st.conn.close()
			}
		}
	})
}
