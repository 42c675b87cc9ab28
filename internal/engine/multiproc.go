package engine

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"deca/internal/cache"
	"deca/internal/ctl"
	"deca/internal/obs"
	"deca/internal/sched"
	"deca/internal/transport"
)

// The multi-process deployment runs the cluster as real OS processes in
// an SPMD shape: the driver and every deca-executor process build the
// *same* job plan (the mirrored program), and only the driver makes
// decisions — placement, retries, blacklisting, stage verdicts, action
// folds. Task bodies are Go closures and cannot cross process
// boundaries, so a dispatched task is only a descriptor — a stage key
// plus (stage, partition, attempt) — resolved against the body the
// mirrored program registered when it reached that stage. Action partial
// results come back as encoded bytes; the driver folds them in partition
// order and broadcasts the folded result, which every mirror adopts so
// the programs stay in lock-step (an LR mirror updates its weights with
// the very gradient the driver computed).
//
// Shuffle data never touches the control stream: map outputs register in
// the driver's location directory (an RPC), and frames move
// executor↔executor over the same transport.DataServer/DataClient data
// plane the single-process TCP transport uses.
//
// Recovery is lineage-granular: a killed executor process takes its
// registered map outputs with it, the driver's directory sweep turns
// their lookups into definitive misses, and the reduce attempt that
// observes them reports the lost MapOutputIDs back in its TaskResult.
// The driver re-runs exactly those map tasks (lineageRepair) and retries
// the reduce attempt, which re-fetches everything — serving is
// non-consuming until the stage commits. Whole-exchange re-runs
// (VerdictRetry — Spark's FetchFailed stage resubmission) remain the
// fallback when repair itself keeps failing, and an action task that
// finds its locally-owned reduce output gone (its producer died after
// the exchange) reports a MissingOutputError; the driver releases that
// materialization everywhere and the retry re-materializes it from
// lineage under the post-blacklist placement.

// maxExchangeRounds bounds how many times a multiproc exchange re-runs
// its map+reduce pair after losing consumed outputs to a dead executor.
const maxExchangeRounds = 3

// stageBodyTimeout bounds how long a dispatched task waits for the
// mirrored program to register its stage's body. A healthy mirror
// registers within the time its program takes to reach the stage; a
// diverged mirror would otherwise park the task forever.
const stageBodyTimeout = 2 * time.Minute

// MissingOutputError reports that a shuffle output this executor should
// hold locally was gone when a task tried to drain it — the executor
// that produced it died after the exchange completed. The driver reacts
// by releasing the materialization cluster-wide so the retry rebuilds it
// from lineage.
type MissingOutputError struct {
	Dataset int
	Epoch   int
	Part    int
}

func (e *MissingOutputError) Error() string {
	return fmt.Sprintf("engine: shuffle output of dataset %d (epoch %d) partition %d is not on this executor",
		e.Dataset, e.Epoch, e.Part)
}

// ctlDriver is the driver role's control-plane attachment.
type ctlDriver struct {
	c *Context
	d *ctl.Driver

	mu     sync.Mutex
	remote cache.Stats // aggregated follower cache stats (last sync)
}

// ctlFollower is the executor-process role: the mirrored program's stage
// bodies are registered here and executed when the driver dispatches
// their descriptors.
type ctlFollower struct {
	c   *Context
	ctl *ctl.Follower
	me  int

	mu     sync.Mutex
	cond   *sync.Cond
	bodies map[string]stageBody
}

// stageBody executes one dispatched attempt and returns its encoded
// result (actions) or nil (shuffle stages).
type stageBody func(t sched.Attempt, ex *Executor) ([]byte, error)

// wireDriver spawns and supervises the executor fleet and returns the
// driver-side transport facade. Executor death feeds straight into the
// scheduler's blacklist; follower NeedShuffle requests drive
// materialization.
func (c *Context) wireDriver() transport.Transport {
	d, err := ctl.NewDriver(ctl.DriverConfig{
		NumExecutors: c.conf.NumExecutors,
		ExecutorCmd:  c.conf.ExecutorCmd,
		OnExecutorDead: func(exec int) {
			c.cluster.Blacklist(exec)
		},
		OnNeedShuffle: func(dataset int) {
			// Errors surface through the stage verdicts of the
			// materialization itself; a dataset unknown here means the
			// follower diverged, which its own stages will report.
			_ = c.MaterializeShuffle(dataset)
		},
		OnEvents: func(exec int, evs []obs.Event) {
			// Follower recorders stamp their executor id on every event;
			// ingest verbatim into the rolling cluster view.
			c.view.Ingest(evs)
		},
	})
	if err != nil {
		panic(fmt.Sprintf("engine: starting multiproc control plane: %v", err))
	}
	c.driver = &ctlDriver{c: c, d: d}
	if c.conf.Chaos != nil && c.conf.Chaos.OnKill == nil {
		// The chaos harness's executor kill becomes a real SIGKILL of the
		// child process.
		c.conf.Chaos.OnKill = d.Kill
	}
	return &driverTransport{c: c}
}

// wireFollower attaches this Context to the executor process's control
// connection and returns the follower transport.
func (c *Context) wireFollower(f *ctl.Follower) transport.Transport {
	fl := &ctlFollower{c: c, ctl: f, me: f.ID(), bodies: make(map[string]stageBody)}
	fl.cond = sync.NewCond(&fl.mu)
	c.follower = fl
	trans := &followerTransport{
		c:      c,
		f:      f,
		node:   f.DataServer(),
		client: transport.NewDataClient(fetchTimeout),
		me:     f.ID(),
	}
	trans.node.SetRecorder(c.rec, int32(trans.me))
	trans.client.SetRecorder(c.rec, int32(trans.me))
	f.SetRuntime(followerRuntime{c: c})
	return trans
}

// RegisterPlan broadcasts the job plan to the executor fleet (multiproc
// driver only; a no-op otherwise).
func (c *Context) RegisterPlan(spec []byte) {
	if c.driver != nil {
		c.driver.d.RegisterPlan(spec)
	}
}

// SyncClusterMetrics pulls fresh counters from every executor process
// into the driver's metrics (shuffle records, spill, fetch locality,
// cache stats). A no-op for in-process deployments, whose counters are
// maintained directly.
func (c *Context) SyncClusterMetrics() {
	if c.driver == nil {
		return
	}
	snaps := c.driver.d.SyncMetrics(5 * time.Second)
	var sum ctl.MetricsSnapshot
	var cs cache.Stats
	for _, s := range snaps {
		sum.ShuffleRecords += s.ShuffleRecords
		sum.ShuffleSpillBytes += s.ShuffleSpillBytes
		sum.LocalShuffleFetches += s.LocalShuffleFetches
		sum.RemoteShuffleFetches += s.RemoteShuffleFetches
		sum.RemoteShuffleBytes += s.RemoteShuffleBytes
		sum.PagesServedZeroCopy += s.PagesServedZeroCopy
		sum.BytesSendfile += s.BytesSendfile
		sum.UserspaceCopyBytes += s.UserspaceCopyBytes
		sum.FetchInFlightBytes += s.FetchInFlightBytes
		cs.Hits += uint64(s.CacheHits)
		cs.Misses += uint64(s.CacheMisses)
		cs.Evictions += uint64(s.CacheEvictions)
		cs.Drops += uint64(s.CacheDrops)
		cs.SwapOutBytes += s.SwapOutBytes
		cs.SwapInBytes += s.SwapInBytes
		cs.MemBytes += s.CacheMemBytes
		cs.SwappedBytes += s.CacheSwappedBytes
	}
	c.metrics.ShuffleRecords.Store(sum.ShuffleRecords)
	c.metrics.ShuffleSpillBytes.Store(sum.ShuffleSpillBytes)
	c.metrics.LocalShuffleFetches.Store(sum.LocalShuffleFetches)
	c.metrics.RemoteShuffleFetches.Store(sum.RemoteShuffleFetches)
	c.metrics.RemoteShuffleBytes.Store(sum.RemoteShuffleBytes)
	c.metrics.PagesServedZeroCopy.Store(sum.PagesServedZeroCopy)
	c.metrics.BytesSendfile.Store(sum.BytesSendfile)
	c.metrics.ServeUserspaceCopyBytes.Store(sum.UserspaceCopyBytes)
	c.metrics.FetchInFlightBytes.Store(sum.FetchInFlightBytes)
	c.driver.mu.Lock()
	c.driver.remote = cs
	c.driver.mu.Unlock()
}

func (d *ctlDriver) cacheStats() cache.Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.remote
}

// bumpEpoch advances (driver) a dataset's materialization epoch.
func (c *Context) bumpEpoch(dataset int) int {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	c.epochs[dataset]++
	return c.epochs[dataset]
}

// setEpoch records (follower) the epoch adopted from the driver.
func (c *Context) setEpoch(dataset, epoch int) {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	if epoch > c.epochs[dataset] {
		c.epochs[dataset] = epoch
	}
}

func (c *Context) epochOf(dataset int) int {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	return c.epochs[dataset]
}

// recoverMissingOutput handles a follower's MissingOutputError: if the
// report names the dataset's *current* materialization, release it
// everywhere so the reporting task's retry re-materializes it from
// lineage under the current placement. Stale reports (a newer epoch
// already exists) are ignored.
//
// The driver's own copy is released by the followers' rule — through the
// permanent registry, under the state lock, epoch-guarded (ReleaseEpoch).
// The lock is what makes the release and the broadcast one decision: a
// report can arrive while the driver is still inside the materialization
// it names (followers go live on the reduce verdict, the driver only when
// materialize returns), and a release that found nothing to release on
// the driver yet told the followers to release would leave driver
// live@epoch / followers released@epoch — the retry's NeedShuffle is then
// memoised away and the followers wait for an epoch nobody announces.
func (c *Context) recoverMissingOutput(dataset, epoch int) {
	if c.driver == nil {
		return
	}
	if epoch != c.epochOf(dataset) {
		return
	}
	c.shufMu.Lock()
	st := c.shuffleReg[dataset]
	c.shufMu.Unlock()
	if st == nil {
		return
	}
	st.ReleaseEpoch(epoch)
	c.driver.d.ReleaseDataset(dataset, epoch)
	// Followers process the release broadcast asynchronously; a beat here
	// keeps the reporting task's immediate retry from racing it and
	// burning budget on a second missing-output round trip. (Correctness
	// does not depend on it: a stale-live materialization is also
	// released by the next epoch's Materialize announcement.)
	time.Sleep(20 * time.Millisecond)
}

// runRemoteStageOn runs a stage whose task bodies execute in the
// executor processes, over an explicit (possibly sparse) partition set:
// each attempt is an RPC carrying the stage key and the attempt
// coordinates, and the usual scheduler machinery (retries,
// blacklist-aware placement, speculation) operates on the dispatch
// outcomes. The attempt's cancel signal is relayed to the executor as a
// CancelTask frame, so a speculative loser or an aborted attempt stops
// early inside its real process. rep (optional) receives LostOutputs
// reports — a reduce attempt found map outputs definitively gone — and
// re-runs exactly those map tasks before the attempt retries. collect
// receives each task's result bytes (first successful attempt per
// partition wins).
func (c *Context) runRemoteStageOn(partIDs []int, opts sched.StageOptions, key string,
	rep *lineageRepair, collect func(part int, result []byte) error) error {
	opts.OnStart = c.stageStartHook(key, opts.OnStart)
	d := c.driver.d
	var mu sync.Mutex
	seen := make(map[int]bool, len(partIDs))
	return c.cluster.RunStageOn(partIDs, opts, func(t sched.Attempt) error {
		g0 := 0
		if rep != nil {
			g0 = rep.generation()
		}
		res, err := d.RunTask(t.Exec, key, t.Stage, t.Part, t.Attempt, t.CancelCh())
		if err != nil {
			return err
		}
		if !res.OK {
			if res.Canceled {
				return sched.ErrCanceled
			}
			if res.MissingDataset != 0 {
				c.recoverMissingOutput(res.MissingDataset, res.MissingEpoch)
			}
			taskErr := fmt.Errorf("executor %d: %s", t.Exec, res.ErrMsg)
			if rep != nil && len(res.LostOutputs) > 0 {
				if rerr := rep.repair(g0, res.LostOutputs); rerr != nil {
					return errors.Join(taskErr, rerr)
				}
			}
			return taskErr
		}
		if collect != nil {
			mu.Lock()
			defer mu.Unlock()
			if seen[t.Part] {
				return nil // a twin attempt already delivered this partition
			}
			if err := collect(t.Part, res.Result); err != nil {
				return err
			}
			seen[t.Part] = true
		}
		return nil
	})
}

// runRemoteStage is runRemoteStageOn over the dense partition set.
func (c *Context) runRemoteStage(parts int, opts sched.StageOptions, key string,
	rep *lineageRepair, collect func(part int, result []byte) error) error {
	ids := make([]int, parts)
	for i := range ids {
		ids[i] = i
	}
	return c.runRemoteStageOn(ids, opts, key, rep, collect)
}

// stageRun runs one shuffle stage in whatever role this context has:
// locally on the executor goroutines (in-process deployments), or
// dispatched to the executor fleet (multiproc driver). Followers never
// call it — their stages are driven by registered bodies. rep is the
// reduce stage's lineage-repair hook (nil elsewhere); in-process
// deployments handle repair inside the body itself.
func (c *Context) stageRun(parts int, opts sched.StageOptions, key string,
	rep *lineageRepair, local func(t sched.Attempt, ex *Executor) error) error {
	if c.driver != nil {
		return c.runRemoteStage(parts, opts, key, rep, nil)
	}
	opts.OnStart = c.stageStartHook(key, opts.OnStart)
	return c.runStage(parts, opts, local)
}

// stageStartHook chains the stage-begin observability event onto any
// existing OnStart callback (no-op when events are disabled).
func (c *Context) stageStartHook(key string, prev func(stage int)) func(stage int) {
	if c.rec == nil {
		return prev
	}
	return func(stage int) {
		if prev != nil {
			prev(stage)
		}
		c.noteStageStart(key, stage)
	}
}

// stageRunOn is stageRun over an explicit partition set — the lineage
// repair's sparse map re-run, in either role.
func (c *Context) stageRunOn(partIDs []int, opts sched.StageOptions, key string,
	local func(t sched.Attempt, ex *Executor) error) error {
	if c.driver != nil {
		return c.runRemoteStageOn(partIDs, opts, key, nil, nil)
	}
	opts.OnStart = c.stageStartHook(key, opts.OnStart)
	return c.runStageOn(partIDs, opts, local)
}

// endStage broadcasts a stage verdict to the fleet (driver; no-op
// otherwise).
func (c *Context) endStage(key string, verdict byte, err error) {
	c.recordStageVerdict(key, verdict)
	if c.driver == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	c.driver.d.StageEnd(key, verdict, msg)
}

// registerStageBody publishes (follower) the body dispatched tasks for
// the stage execute.
func (c *Context) registerStageBody(key string, body stageBody) {
	f := c.follower
	f.mu.Lock()
	f.bodies[key] = body
	f.mu.Unlock()
	f.cond.Broadcast()
}

// unregisterStageBody retires a stage's body once its verdict arrived
// (the driver never dispatches a stage's tasks after its StageEnd).
func (c *Context) unregisterStageBody(key string) {
	f := c.follower
	f.mu.Lock()
	delete(f.bodies, key)
	f.mu.Unlock()
}

// awaitStageBody blocks until the mirrored program registers the stage's
// body. The timeout guards against a diverged mirror that will never
// reach the stage.
func (f *ctlFollower) awaitStageBody(key string) (stageBody, error) {
	deadline := time.Now().Add(stageBodyTimeout)
	timer := time.AfterFunc(stageBodyTimeout, f.cond.Broadcast)
	defer timer.Stop()
	// Wake the wait loop when the control connection dies, so pending
	// tasks abort immediately instead of running out the deadline against
	// a driver that is already gone.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-f.ctl.ShutdownCh():
			f.cond.Broadcast()
		case <-stopWatch:
		}
	}()
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if body, ok := f.bodies[key]; ok {
			return body, nil
		}
		if f.ctl.Closed() {
			return nil, fmt.Errorf("engine: follower shutting down before stage %q ran", key)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("engine: no body registered for stage %q within %v (mirror diverged?)",
				key, stageBodyTimeout)
		}
		f.cond.Wait()
	}
}

// followerRuntime is the ctl.Runtime the engine plugs into the follower
// connection.
type followerRuntime struct{ c *Context }

// RunTask executes one dispatched attempt against the mirrored plan.
// cancel closes when the driver sends CancelTask for this attempt; the
// body observes it through Attempt.Canceled and stops early.
func (r followerRuntime) RunTask(key string, stage, part, attempt int, cancel <-chan struct{}) ctl.TaskResult {
	f := r.c.follower
	body, err := f.awaitStageBody(key)
	if err != nil {
		return ctl.TaskResult{ErrMsg: err.Error()}
	}
	res, err := runBodySafely(body, sched.ExternalAttempt(stage, part, attempt, f.me, cancel), r.c.execs[f.me])
	if err == nil {
		return ctl.TaskResult{OK: true, Result: res}
	}
	tr := ctl.TaskResult{ErrMsg: err.Error(), Canceled: errors.Is(err, sched.ErrCanceled)}
	var missing *MissingOutputError
	if errors.As(err, &missing) {
		tr.MissingDataset = missing.Dataset
		tr.MissingEpoch = missing.Epoch
	}
	var lost *LostOutputsError
	if errors.As(err, &lost) {
		tr.LostOutputs = lost.IDs
	}
	return tr
}

// runBodySafely converts body panics (the lazy Seq plumbing carries
// errors as panics) into error returns, so a failing task never takes
// the executor process down with it.
func runBodySafely(body stageBody, t sched.Attempt, ex *Executor) (res []byte, err error) {
	defer recoverErr(&err)
	return body(t, ex)
}

func (r followerRuntime) MaterializeDataset(dataset, epoch int) {
	// Participation path: the driver announced a materialization; run the
	// local follower exchange even when none of this executor's own tasks
	// pull the dataset. Unknown ids mean the mirrored program has not
	// built the dataset yet; its own pull path will materialize then.
	//
	c := r.c
	c.shufMu.Lock()
	st := c.shuffleReg[dataset]
	c.shufMu.Unlock()
	if st == nil {
		return
	}
	// Epoch-guarded: a live materialization of an older epoch is released
	// first (the driver released it cluster-wide before announcing this
	// one, but that broadcast may not have been processed here yet). The
	// check runs under the state lock, so it cannot misfire against a
	// concurrent materialization adopting this very epoch.
	_ = st.MaterializeEpoch(epoch)
}

func (r followerRuntime) ReleaseDataset(dataset, epoch int) {
	c := r.c
	c.shufMu.Lock()
	st := c.shuffleReg[dataset]
	c.shufMu.Unlock()
	if st == nil {
		return
	}
	// Epoch-guarded: a late-arriving recovery release must not free the
	// buffers of a newer materialization.
	st.ReleaseEpoch(epoch)
}

func (r followerRuntime) Snapshot() ctl.MetricsSnapshot {
	c := r.c
	cs := c.localCacheStats()
	var ts transport.Stats
	if c.trans != nil {
		ts = c.trans.Stats()
	}
	return ctl.MetricsSnapshot{
		ShuffleRecords:       c.metrics.ShuffleRecords.Load(),
		ShuffleSpillBytes:    c.metrics.ShuffleSpillBytes.Load(),
		LocalShuffleFetches:  c.metrics.LocalShuffleFetches.Load(),
		RemoteShuffleFetches: c.metrics.RemoteShuffleFetches.Load(),
		RemoteShuffleBytes:   c.metrics.RemoteShuffleBytes.Load(),
		CacheHits:            int64(cs.Hits),
		CacheMisses:          int64(cs.Misses),
		CacheEvictions:       int64(cs.Evictions),
		CacheDrops:           int64(cs.Drops),
		SwapOutBytes:         cs.SwapOutBytes,
		SwapInBytes:          cs.SwapInBytes,
		CacheMemBytes:        cs.MemBytes,
		PagesServedZeroCopy:  ts.PagesServedZeroCopy,
		BytesSendfile:        ts.BytesSendfile,
		UserspaceCopyBytes:   ts.UserspaceCopyBytes,
		FetchInFlightBytes:   c.metrics.FetchInFlightBytes.Load(),
		CacheSwappedBytes:    cs.SwappedBytes,
	}
}

// DrainEvents implements ctl.EventSource: each heartbeat ships the
// follower's event backlog to the driver.
func (r followerRuntime) DrainEvents(max int) []obs.Event {
	return r.c.rec.Drain(max)
}

// driverTransport is the multiproc driver's transport facade: the driver
// never hosts shuffle data, so only the directory-facing operations are
// live. Register/Fetch would mean a task body ran in the driver process —
// a bug, hence the panic.
type driverTransport struct{ c *Context }

func (t *driverTransport) Register(id transport.MapOutputID, p transport.Payload) (transport.Payload, bool) {
	panic("engine: the multiproc driver does not host shuffle data (Register)")
}

func (t *driverTransport) Fetch(id transport.MapOutputID, dst int, open transport.FrameOpen) (transport.Payload, bool, error) {
	panic("engine: the multiproc driver does not host shuffle data (Fetch)")
}

// Drop purges the shuffle's directory entries; the holders discard their
// buffers on the broadcast, so there is nothing to hand back.
func (t *driverTransport) Drop(shuffle transport.ShuffleID) []transport.Payload {
	t.c.driver.d.DropShuffle(int64(shuffle))
	return nil
}

// Commit retires the committed outputs' directory entries and tells each
// holder to discard its pinned source buffers. Nothing comes back: the
// driver hosts no data.
func (t *driverTransport) Commit(ids []transport.MapOutputID) []transport.Payload {
	t.c.driver.d.CommitOutputs(ids)
	return nil
}

// Abort is Commit with failure semantics — cross-process, both retire
// the same directory entries and holder buffers.
func (t *driverTransport) Abort(ids []transport.MapOutputID) []transport.Payload {
	t.c.driver.d.CommitOutputs(ids)
	return nil
}

func (t *driverTransport) Stats() transport.Stats {
	return transport.Stats{Registered: t.c.driver.d.Registered()}
}

func (t *driverTransport) Close() error { return nil }

// followerTransport is the executor-process transport: outputs live on
// the local data server, locations live in the driver's directory, and
// remote frames arrive over the shared data plane.
type followerTransport struct {
	c      *Context
	f      *ctl.Follower
	node   *transport.DataServer
	client *transport.DataClient
	me     int

	mu    sync.Mutex
	stats transport.Stats
}

// Register stores the output locally and publishes its location. A
// same-process displacement (task retry on this executor) hands the old
// buffers back to the caller as usual; a cross-process one is discarded
// by the old holder when the driver tells it to.
func (t *followerTransport) Register(id transport.MapOutputID, p transport.Payload) (transport.Payload, bool) {
	prev, replaced := t.node.Put(id, p)
	if err := t.f.RegisterOutput(id); err != nil {
		// The control connection is gone; the process is shutting down.
		// The local store still owns the payload; the job is failing
		// anyway through the dispatch path.
		_ = err
	}
	t.mu.Lock()
	t.stats.Registered++
	t.mu.Unlock()
	return prev, replaced
}

// Fetch resolves the output in the driver's directory (non-consuming)
// and serves it as a decoded-on-demand wire frame: local holders serve
// through DataServer.ServeLocal, remote holders over the data plane. The
// source entry stays registered either way, so retried and speculative
// attempts re-fetch the same outputs until the stage commits. A failed
// remote round-trip is a transient error (the directory entry is
// untouched); a definitive miss (found=false) means the producer died
// and only lineage repair brings the output back.
func (t *followerTransport) Fetch(id transport.MapOutputID, dst int, open transport.FrameOpen) (transport.Payload, bool, error) {
	exec, addr, found, err := t.f.LookupOutput(id)
	if err != nil {
		return transport.Payload{}, false, err
	}
	if !found {
		return transport.Payload{}, false, nil
	}
	if exec == t.me {
		p, ok, err := t.node.ServeLocal(id, open)
		if err != nil || !ok {
			return transport.Payload{}, false, err
		}
		t.mu.Lock()
		t.stats.LocalFetches++
		t.stats.LocalBytes += p.Bytes
		t.mu.Unlock()
		return p, true, nil
	}
	dec, size, ok, err := t.client.FetchInto(addr, id, open)
	if err != nil {
		return transport.Payload{}, false, err
	}
	if !ok {
		return transport.Payload{}, false, nil
	}
	t.mu.Lock()
	t.stats.RemoteFetches++
	t.stats.RemoteBytes += size
	t.mu.Unlock()
	return transport.Payload{
		Data:        dec.Data,
		SrcExecutor: exec,
		Bytes:       size,
		MemBytes:    dec.MemBytes,
	}, true, nil
}

// Drop purges this process's local entries; the driver's directory sweep
// (driverTransport.Drop) coordinates the cluster-wide purge.
func (t *followerTransport) Drop(shuffle transport.ShuffleID) []transport.Payload {
	return t.node.DropShuffle(shuffle)
}

// Commit takes this process's local entries for the committed ids and
// hands them back for release. It runs belt-and-braces with the driver's
// discard broadcasts (Take is idempotent — whoever gets there first
// wins), so a follower frees its pinned sources as soon as its own
// mirror observes the stage verdict rather than a broadcast later.
func (t *followerTransport) Commit(ids []transport.MapOutputID) []transport.Payload {
	var out []transport.Payload
	for _, id := range ids {
		if p, ok := t.node.Take(id); ok {
			out = append(out, p)
		}
	}
	return out
}

// Abort mirrors Commit: a failed consuming stage retires the same
// entries.
func (t *followerTransport) Abort(ids []transport.MapOutputID) []transport.Payload {
	return t.Commit(ids)
}

func (t *followerTransport) Stats() transport.Stats {
	t.mu.Lock()
	st := t.stats
	t.mu.Unlock()
	t.node.ServeStats(&st)
	return st
}

func (t *followerTransport) Close() error {
	t.client.Close()
	return t.node.Close()
}

// Pending exposes the local leak probe (tests).
func (t *followerTransport) Pending() int { return t.node.Pending() }

// actionKey numbers action stages in program order; mirrored programs
// issue identical sequences, so the driver's dispatches resolve against
// the right bodies.
func (c *Context) actionKey() string {
	return fmt.Sprintf("action/%d", c.nextAction.Add(1))
}

// gobEncode/gobDecode carry action partials and folded results across
// processes. Both ends run the same binary-identical program, so
// structural gob encoding of the concrete types is always consistent.
func gobEncode(v any) ([]byte, error) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func gobDecode(raw []byte, out any) error {
	return gob.NewDecoder(bytes.NewReader(raw)).Decode(out)
}

// runAction executes an action stage in whatever role this context has.
// The action is decomposed into a per-partition partial (running on the
// partition's executor, wherever that is) and a driver-side fold over
// the partials in partition order; the folded result is adopted by every
// process, so mirrored programs continue with identical values.
func runAction[P, R any](ctx *Context, parts int,
	partial func(p int, ex *Executor) (P, error),
	fold func(ps []P) R,
) (R, error) {
	return runActionAttempt(ctx, parts,
		func(t sched.Attempt, ex *Executor) (P, error) { return partial(t.Part, ex) },
		fold)
}

// runActionAttempt is runAction with the scheduler attempt visible to
// the partial — the seam side-effecting actions use to expose the
// at-least-once attempt epoch to user code.
func runActionAttempt[P, R any](ctx *Context, parts int,
	partial func(t sched.Attempt, ex *Executor) (P, error),
	fold func(ps []P) R,
) (R, error) {
	key := ctx.actionKey()
	var zero R
	run := func(t sched.Attempt, ex *Executor) (v P, err error) {
		defer recoverErr(&err)
		return partial(t, ex)
	}

	if f := ctx.follower; f != nil {
		ctx.registerStageBody(key, func(t sched.Attempt, ex *Executor) ([]byte, error) {
			v, err := run(t, ex)
			if err != nil {
				return nil, err
			}
			return gobEncode(v)
		})
		verdict, msg, err := f.ctl.AwaitStageEnd(key)
		ctx.unregisterStageBody(key)
		if err != nil {
			return zero, err
		}
		if verdict != ctl.VerdictOK {
			return zero, fmt.Errorf("engine: action %s failed at driver: %s", key, msg)
		}
		raw, err := f.ctl.AwaitActionResult(key)
		if err != nil {
			return zero, err
		}
		var out R
		if err := gobDecode(raw, &out); err != nil {
			return zero, fmt.Errorf("engine: decoding action %s result: %w", key, err)
		}
		return out, nil
	}

	ps := make([]P, parts)
	if d := ctx.driver; d != nil {
		err := ctx.runRemoteStage(parts, sched.StageOptions{}, key, nil, func(part int, raw []byte) error {
			var v P
			if err := gobDecode(raw, &v); err != nil {
				return fmt.Errorf("engine: decoding action %s partial %d: %w", key, part, err)
			}
			ps[part] = v
			return nil
		})
		if err != nil {
			ctx.endStage(key, ctl.VerdictAbort, err)
			return zero, err
		}
		out := fold(ps)
		raw, err := gobEncode(out)
		if err != nil {
			ctx.endStage(key, ctl.VerdictAbort, err)
			return zero, err
		}
		ctx.endStage(key, ctl.VerdictOK, nil)
		d.d.ActionResult(key, raw)
		return out, nil
	}

	err := ctx.runStage(parts, sched.StageOptions{}, func(t sched.Attempt, ex *Executor) error {
		v, err := run(t, ex)
		if err != nil {
			return err
		}
		ps[t.Part] = v
		return nil
	})
	if err != nil {
		return zero, err
	}
	return fold(ps), nil
}
