package engine

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"deca/internal/ctl"
	"deca/internal/obs"
	"deca/internal/sched"
	"deca/internal/transport"
)

// The multi-process deployment runs the cluster as real OS processes in
// an SPMD shape: the driver and every deca-executor process build the
// *same* job plan (the mirrored program), and only the driver decides —
// placement, retries, blacklisting, stage verdicts, action folds. Task
// bodies are closures and cannot cross processes, so a dispatched task is
// a descriptor (stage key, partition, attempt) resolved against the body
// the mirror published when it reached that stage; shuffle data never
// touches the control stream. This file is where the roles live: one
// stage runner (runStage) with a local, a driver and a follower arm, and
// the two steps around it that are role-specific by nature (beginExchange,
// adoptResult). DESIGN.md's "Stage protocol" table is the map.

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
	d *ctl.Driver

	mu sync.Mutex
	// fails counts failed dispatches and lastFail is the latest one's error
	// (withCause).
	fails    int
	lastFail error
}

// failMark and withCause carry a failure's typed cause up the stage nesting
// at the driver. Followers report task failures as text, so a stage whose
// tasks failed *because* a stage nested under it failed (an action pulling a
// shuffle whose reduce stage lost its inputs for good) would otherwise drop
// the error value the driver itself produced a moment earlier: a failing
// dispatch joins the failure recorded since it began, and becomes the latest
// failure itself. Both are no-ops off the driver, where errors arrive as
// values.
func (d *ctlDriver) failMark() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fails
}

func (d *ctlDriver) withCause(mark int, err error) error {
	if d == nil || err == nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fails != mark {
		err = errors.Join(err, d.lastFail)
	}
	d.fails, d.lastFail = d.fails+1, err
	return err
}

// wireDriver spawns and supervises the executor fleet and returns the
// driver's share of the data plane: the location directory and no node,
// since the driver hosts no shuffle data. Executor death feeds straight
// into the scheduler's blacklist; follower NeedShuffle requests drive
// materialization.
func (c *Context) wireDriver() *transport.Plane {
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
	c.driver = &ctlDriver{d: d}
	if c.conf.Chaos != nil && c.conf.Chaos.OnKill == nil {
		// The chaos harness's executor kill becomes a real SIGKILL of the
		// child process.
		c.conf.Chaos.OnKill = d.Kill
	}
	return transport.NewRemote(d, nil, fetchTimeout)
}

// wireFollower attaches this Context to the executor process's control
// connection and returns the executor's share of the data plane: its own
// node — the data server whose address the handshake advertised — behind
// the driver's directory.
func (c *Context) wireFollower(f *ctl.Follower) *transport.Plane {
	c.follower = f
	f.SetRuntime(followerRuntime{c: c})
	return transport.NewRemote(f, map[int]*transport.DataServer{f.ID(): f.DataServer()}, fetchTimeout)
}

// RegisterPlan broadcasts the job plan to the executor fleet (multiproc
// driver only; a no-op otherwise).
func (c *Context) RegisterPlan(spec []byte) {
	if c.driver != nil {
		c.driver.d.RegisterPlan(spec)
	}
}

// SyncClusterMetrics asks every executor process for a fresh counter
// vector, so the next ExecCounters/Counters read is current rather than
// one heartbeat old. A no-op for in-process deployments, whose counters
// are read in place.
func (c *Context) SyncClusterMetrics() {
	if c.driver != nil {
		c.driver.d.SyncMetrics(5 * time.Second)
	}
}

// recoverMissingOutput is the driver arm's reaction to a follower's
// MissingOutputError: if the report names the dataset's *current*
// materialization, release it everywhere so the reporting task's retry
// re-materializes it from lineage under the current placement. Stale
// reports (a newer epoch already exists) are ignored.
func (c *Context) recoverMissingOutput(dataset, epoch int) {
	if !c.releaseEverywhere(dataset, epoch) {
		return
	}
	// Followers process the release broadcast asynchronously; a beat here
	// keeps the reporting task's immediate retry from racing it and
	// burning budget on a second missing-output round trip. (Correctness
	// does not depend on it: a stale-live materialization is also
	// released by the next epoch's Materialize announcement.)
	time.Sleep(20 * time.Millisecond)
}

// releaseEverywhere is the driver's one way to end a materialization:
// its own copy, then every executor's, of the same epoch. It reports
// whether epoch is the dataset's current one; a stale epoch, or a dataset
// whose shuffle the program has not built, releases nothing anywhere.
//
// The driver's own copy is released by the followers' rule — through the
// registry, under the state lock, epoch-guarded (ReleaseEpoch).
// The lock is what makes the release and the broadcast one decision: a
// release can arrive while the driver is still inside the materialization
// it names (followers go live on the reduce verdict, the driver only when
// materialize returns), and a release that found nothing to release on
// the driver yet told the followers to release would leave driver
// live@epoch / followers released@epoch — the next NeedShuffle is then
// memoised away and the followers wait for an epoch nobody announces.
func (c *Context) releaseEverywhere(dataset, epoch int) bool {
	st := c.shuffleOf(dataset)
	if st == nil || !st.ReleaseEpoch(epoch) {
		return false
	}
	c.driver.d.ReleaseDataset(dataset, epoch)
	return true
}

// taskBody runs one attempt of one task on ex. P is the partial an action
// task hands back to the deciding process; the tasks of shuffle stages
// leave their results on the executor that built them (noPartial).
type taskBody[P any] func(t sched.Attempt, ex *Executor) (P, error)

// noPartial adapts a body that has nothing to hand back.
func noPartial(fn func(t sched.Attempt, ex *Executor) error) taskBody[struct{}] {
	return func(t sched.Attempt, ex *Executor) (struct{}, error) { return struct{}{}, fn(t, ex) }
}

// stage names one stage of the mirrored program: the key every role meets
// on, the partition ids its tasks run over, whether a completed task may
// be re-run (sched.StageOptions.Idempotent), and — on a reduce stage — who
// re-runs map tasks whose outputs an attempt finds lost.
type stage struct {
	key        string
	parts      []int
	idempotent bool
	rep        *lineageRepair
}

// denseParts is the partition set of a full stage: every id in [0, n).
func denseParts(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// runStage runs one stage to its verdict in whatever role this context
// has, and is the only code that knows the role. The deciding roles
// dispatch the tasks, then record and announce the verdict; a follower
// publishes the body for the driver's descriptors to resolve against and
// follows the verdict the driver broadcasts. ps, when non-nil, receives
// each partition's partial at the deciding process — as a Go value when the
// task ran here, gob-encoded across processes — and marks the stage as one
// whose tasks hand a result back.
func runStage[P any](c *Context, st stage, ps []P, body taskBody[P]) error {
	f := c.follower
	if f == nil {
		err := dispatch(c, st, ps, body)
		c.endStage(st.key, err)
		return err
	}
	keys := []string{st.key}
	f.AddStageBody(st.key, onWire(c, body, ps != nil))
	if st.rep != nil {
		// The driver's lineage repair dispatches lost map tasks against the
		// map stage's key while this stage's attempts are still running.
		keys = append(keys, st.rep.maps.key)
		f.AddStageBody(st.rep.maps.key, onWire(c, st.rep.body, false))
	}
	verdict, msg, err := f.AwaitStageEnd(st.key)
	f.DropStageBodies(keys...)
	if err == nil && verdict != ctl.VerdictOK {
		err = fmt.Errorf("engine: stage %s failed at driver: %s", st.key, msg)
	}
	return err
}

// onWire is a body as a follower publishes it: the attempt runs on this
// process's executor, a panic (the lazy Seq plumbing carries errors as
// panics) becomes the attempt's error rather than the executor process's
// end, the partial, when the stage hands one back, is gob-encoded for the
// trip to the driver, and the outcome is a ctl.TaskResult (taskResult).
func onWire[P any](c *Context, body taskBody[P], partial bool) ctl.StageBody {
	me := c.follower.ID()
	return func(stage, part, attempt int) ctl.TaskResult {
		return taskResult(func() (raw []byte, err error) {
			defer recoverErr(&err)
			v, err := body(sched.Attempt{Stage: stage, Part: part, Attempt: attempt, Exec: me}, c.execs[me])
			if err != nil || !partial {
				return nil, err
			}
			return gobEncode(v)
		}())
	}
}

// taskResult is an attempt's outcome as a follower reports it: the typed
// causes the driver acts on travel as TaskResult fields (taskError turns
// them back into the error types the local arm sees), the rest as text.
func taskResult(raw []byte, err error) ctl.TaskResult {
	if err == nil {
		return ctl.TaskResult{OK: true, Result: raw}
	}
	res := ctl.TaskResult{ErrMsg: err.Error()}
	var missing *MissingOutputError
	if errors.As(err, &missing) {
		res.MissingDataset, res.MissingEpoch = missing.Dataset, missing.Epoch
	}
	var lost *LostOutputsError
	if errors.As(err, &lost) {
		res.LostOutputs = lost.IDs
	}
	return res
}

// dispatch runs a stage's tasks through the scheduler (retries,
// blacklist-aware placement) without settling a verdict — runStage's
// deciding arms, and the lineage repair's re-dispatch inside a still-open
// exchange. The local arm runs the body on this process's executor
// goroutines; the driver arm ships each attempt as a descriptor and turns
// the TaskResult back into the error value the local arm would have seen.
// Either way a failed attempt that names lost map outputs gets exactly
// those map tasks re-run before the scheduler retries it.
func dispatch[P any](c *Context, st stage, ps []P, body taskBody[P]) error {
	opts := sched.StageOptions{
		Idempotent: st.idempotent,
		OnStart:    func(id int) { c.noteStageStart(st.key, id) },
	}
	mark := c.driver.failMark()
	run := func(t sched.Attempt) (v P, err error) {
		defer recoverErr(&err)
		return body(t, c.execs[t.Exec])
	}
	if d := c.driver; d != nil {
		run = func(t sched.Attempt) (v P, err error) {
			res, err := d.d.RunTask(t.Exec, st.key, t.Stage, t.Part, t.Attempt)
			if err != nil {
				return v, err
			}
			if !res.OK {
				if res.MissingDataset != 0 {
					c.recoverMissingOutput(res.MissingDataset, res.MissingEpoch)
				}
				return v, taskError(t.Exec, res)
			}
			if ps != nil {
				if err := gobDecode(res.Result, &v); err != nil {
					return v, fmt.Errorf("engine: decoding stage %s partial %d: %w", st.key, t.Part, err)
				}
			}
			return v, nil
		}
	}
	err := c.cluster.RunStageOn(st.parts, opts, func(t sched.Attempt) error {
		g0 := st.rep.generation()
		v, err := run(t)
		if err != nil {
			var lost *LostOutputsError
			if errors.As(err, &lost) {
				if rerr := st.rep.repair(g0, lost.IDs); rerr != nil {
					return errors.Join(err, rerr)
				}
			}
			return err
		}
		if ps != nil {
			ps[t.Part] = v // a task's attempts run one at a time and action stages take no AfterAttempt faults: one success per part
		}
		return nil
	})
	return c.driver.withCause(mark, err)
}

// taskError is a failed remote attempt as an error value: the typed causes
// a follower reported in TaskResult fields come back as the error types
// the local arm sees.
func taskError(exec int, res ctl.TaskResult) error {
	if len(res.LostOutputs) > 0 {
		return fmt.Errorf("executor %d: %w", exec, &LostOutputsError{IDs: res.LostOutputs})
	}
	return fmt.Errorf("executor %d: %s", exec, res.ErrMsg)
}

// endStage settles a stage at the deciding process: the verdict is
// recorded and, on a multiproc driver, broadcast to the fleet.
func (c *Context) endStage(key string, err error) {
	c.recordStageVerdict(key, err)
	if c.driver == nil {
		return
	}
	verdict, msg := ctl.VerdictOK, ""
	if err != nil {
		verdict, msg = ctl.VerdictAbort, err.Error()
	}
	c.driver.d.StageEnd(key, verdict, msg)
}

// beginExchange opens one materialization of a shuffled dataset whose
// current one is epoch prev — the one step of an exchange that differs by
// role. The deciding roles issue the shuffle id and the next epoch
// (announced to the fleet by a driver); a follower asks the driver to run
// the materialization (it deduplicates) and adopts what the driver
// announces — local counters could drift under concurrent
// materializations, the broadcast cannot. The dataset's shuffle state
// keeps the epoch (it calls this under its lock).
func (c *Context) beginExchange(dataset, prev int) (transport.ShuffleID, int, error) {
	if f := c.follower; f != nil {
		f.NeedShuffle(dataset)
		epoch, shuffle, err := f.AwaitMaterialize(dataset, prev)
		return transport.ShuffleID(shuffle), epoch, err
	}
	shuffle, epoch := c.shuffleID(), prev+1
	if c.driver != nil {
		c.driver.d.MaterializeBegin(dataset, epoch, int64(shuffle))
	}
	return shuffle, epoch, nil
}

// followerRuntime is the ctl.Runtime the engine plugs into the follower
// connection.
type followerRuntime struct{ c *Context }

// MaterializeDataset is the participation path: the driver announced a
// materialization, so the local follower exchange runs even when none of
// this executor's own tasks pull the dataset. Unknown ids mean the mirrored
// program has not built the dataset yet; its own pull path will
// materialize then. Epoch-guarded: a live materialization of an older
// epoch is released first (the driver released it cluster-wide before
// announcing this one, but that broadcast may not have been processed here
// yet), under the state lock, so the check cannot misfire against a
// concurrent materialization adopting this very epoch.
func (r followerRuntime) MaterializeDataset(dataset, epoch int) {
	if st := r.c.shuffleOf(dataset); st != nil {
		_ = st.MaterializeEpoch(epoch)
	}
}

// ReleaseDataset is epoch-guarded too: a late-arriving recovery release
// must not free the buffers of a newer materialization.
func (r followerRuntime) ReleaseDataset(dataset, epoch int) {
	if st := r.c.shuffleOf(dataset); st != nil {
		st.ReleaseEpoch(epoch)
	}
}

// Snapshot ships everything this process counted, not just the set of the
// executor it hosts: a reduce task books the spill of a buffer it fetched
// on the buffer's source executor (noteSpill), whose set here no other
// process reads. The driver sees the sum under this executor's id, so the
// cluster figure equals an in-process run's.
func (r followerRuntime) Snapshot() obs.CounterValues {
	return r.c.Counters()
}

// DrainEvents hands each heartbeat the follower's event backlog to ship
// to the driver.
func (r followerRuntime) DrainEvents(max int) []obs.Event {
	return r.c.rec.Drain(max)
}

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

// adoptResult makes an action's fold the value every mirrored program
// continues with — the step after the action's stage that differs by role.
// The deciding roles fold the partials in partition order (a driver then
// broadcasts the result); a follower adopts the broadcast, so an LR mirror
// updates its weights with the very gradient the driver computed.
func adoptResult[P, R any](c *Context, key string, ps []P, fold func(ps []P) R) (out R, err error) {
	if f := c.follower; f != nil {
		raw, err := f.AwaitActionResult(key)
		if err == nil {
			err = gobDecode(raw, &out)
		}
		if err != nil {
			return out, fmt.Errorf("engine: adopting action %s result: %w", key, err)
		}
		return out, nil
	}
	out = fold(ps)
	if d := c.driver; d != nil {
		// The verdict is already out, so an unencodable result is broadcast
		// as no bytes at all: the mirrors fail decoding instead of waiting.
		raw, err := gobEncode(out)
		d.d.ActionResult(key, raw)
		if err != nil {
			return out, fmt.Errorf("engine: encoding action %s result: %w", key, err)
		}
	}
	return out, nil
}
