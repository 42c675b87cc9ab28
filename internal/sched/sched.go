// Package sched is the fault-tolerant task scheduler behind the engine's
// stages. It replaces the engine's original inline runTasks loop with a
// Spark-shaped recovery model: every (stage, partition) runs as a chain of
// task *attempts*, one at a time, with a per-task retry budget; repeated
// attempt failures on one executor blacklist it cluster-wide, after which
// placement re-routes that executor's partitions to the surviving ones.
// Retry, blacklist and the engine's lineage re-run of lost map outputs are
// the whole recovery story: a task never has two attempts in flight.
//
// The package is engine-agnostic: it schedules opaque attempt bodies over
// integer executor ids. It keeps its own per-executor counts (Counters),
// which the engine pulls into each executor's counter vector, and records
// its attempt, retry and blacklist events into the obs spine
// (Config.Recorder). The engine adapts bodies to its Executor objects and
// wires the deterministic fault-injection harness (internal/chaos) in
// through the FaultInjector seam, so every recovery path is testable
// without real faults.
package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"deca/internal/obs"
)

// FaultInjector is the seam for deterministic fault injection
// (internal/chaos implements it). Both methods may return an injected
// error.
type FaultInjector interface {
	// BeforeAttempt runs before the attempt body.
	BeforeAttempt(stage, part, attempt, exec int) error
	// AfterAttempt runs after a successful attempt body, on idempotent
	// stages only (their side effects replace under re-execution);
	// an error fails the attempt *after* its side effects landed (the
	// "executor died before reporting success" case — the retry's
	// re-registration then displaces the completed attempt's outputs).
	AfterAttempt(stage, part, attempt, exec int) error
}

// Config sizes a Cluster.
type Config struct {
	// NumExecutors is the executor count (placement domain).
	NumExecutors int
	// SlotsPerExecutor bounds concurrently running attempts per executor
	// per stage (stage-local slots: nested stages never deadlock against
	// the slots their parents hold).
	SlotsPerExecutor int
	// MaxTaskRetries is the number of retry attempts each task gets after
	// its first failure (so a task runs at most MaxTaskRetries+1 times).
	// Negative means no retries.
	MaxTaskRetries int
	// MaxExecutorFailures blacklists an executor once this many attempts
	// have failed on it. 0 disables blacklisting. The last healthy
	// executor is never blacklisted.
	MaxExecutorFailures int
	// Recorder receives the scheduler's events: each attempt's start and
	// finish, retries and blacklistings (nil = none).
	Recorder *obs.Recorder
	// Faults is the fault-injection seam (nil = no injected faults).
	Faults FaultInjector
}

func (c Config) withDefaults() Config {
	if c.NumExecutors <= 0 {
		c.NumExecutors = 1
	}
	if c.SlotsPerExecutor <= 0 {
		c.SlotsPerExecutor = 1
	}
	if c.MaxTaskRetries < 0 {
		c.MaxTaskRetries = 0
	}
	return c
}

// Cluster holds the scheduler state that outlives a single stage:
// executor health (failure counts, blacklist), the per-executor counts and
// the stage id counter.
// Placement policy lives here so the engine's cache-block affinity and
// the stage scheduler always agree on where a partition runs. A blacklist
// is permanent for the cluster's lifetime.
type Cluster struct {
	conf      Config
	nextStage atomic.Int64

	mu         sync.Mutex
	execs      []executorState // by executor id
	numHealthy int
}

// executorState is what the cluster keeps for one executor.
type executorState struct {
	ExecutorState              // health, under Cluster.mu
	counts        obs.Counters // only the scheduler's rows move
}

// NewCluster builds a cluster with every executor healthy.
func NewCluster(conf Config) *Cluster {
	conf = conf.withDefaults()
	execs := make([]executorState, conf.NumExecutors)
	for e := range execs {
		execs[e].Exec = e
	}
	return &Cluster{conf: conf, execs: execs, numHealthy: conf.NumExecutors}
}

// Counters reads what the scheduler counted against one executor: task
// attempts run and failed (retries are attempts too), retries launched,
// and blacklistings. Every other counter reads 0.
func (c *Cluster) Counters(exec int) obs.CounterValues { return c.execs[exec].counts.Load() }

// Place is the affinity rule: partition p lives on executor p mod N while
// that executor is healthy. When its home executor is blacklisted, p is
// re-placed deterministically over the healthy executors; partitions
// whose homes are healthy never move, so surviving executors keep their
// cache locality.
//
//deca:pure
func (c *Cluster) Place(part int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.conf.NumExecutors
	home := part % n
	if !c.execs[home].Blacklisted {
		return home
	}
	// Never empty: the last healthy executor is never blacklisted.
	candidates := make([]int, 0, n)
	for e := 0; e < n; e++ {
		if !c.execs[e].Blacklisted {
			candidates = append(candidates, e)
		}
	}
	return candidates[part%len(candidates)]
}

// Blacklisted reports whether the executor is blacklisted.
func (c *Cluster) Blacklisted(exec int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.execs[exec].Blacklisted
}

// Blacklist removes the executor from placement immediately (an operator
// drain, or a test forcing re-placement). It reports whether the
// blacklist took effect: the last healthy executor is never blacklisted.
func (c *Cluster) Blacklist(exec int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blacklistLocked(exec)
}

// blacklistLocked removes exec from placement, counts and records it, and
// reports whether it did: never an executor already out, never the last
// healthy one.
func (c *Cluster) blacklistLocked(exec int) bool {
	x := &c.execs[exec]
	if x.Blacklisted || c.numHealthy <= 1 {
		return false
	}
	x.Blacklisted, x.BlacklistedAt = true, time.Now()
	c.numHealthy--
	x.counts[obs.ExecutorsBlacklisted].Add(1)
	c.conf.Recorder.Record(obs.Event{Kind: obs.KindExecutorBlacklisted, Exec: int32(exec)})
	return true
}

// recordFailure counts a failed attempt against its executor and
// blacklists it at the configured threshold.
func (c *Cluster) recordFailure(exec int) {
	x := &c.execs[exec]
	x.counts[obs.TasksFailed].Add(1)
	if c.conf.MaxExecutorFailures <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	x.Failures++
	if x.Failures >= c.conf.MaxExecutorFailures {
		c.blacklistLocked(exec)
	}
}

// ExecutorState is one executor's health snapshot, for the ops plane's
// /executors view.
type ExecutorState struct {
	Exec          int       `json:"exec"`
	Failures      int       `json:"failures"`
	Blacklisted   bool      `json:"blacklisted"`
	BlacklistedAt time.Time `json:"blacklisted_at,omitzero"` // when it left placement
}

// States snapshots every executor's health: attempt-failure count and
// blacklist membership.
func (c *Cluster) States() []ExecutorState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ExecutorState, len(c.execs))
	for e := range out {
		out[e] = c.execs[e].ExecutorState
	}
	return out
}

// StageOptions selects per-stage scheduling behaviour.
type StageOptions struct {
	// Idempotent marks the stage's tasks as safe to re-run after one of
	// their attempts succeeded: their side effects must replace, not add
	// up. Map stages qualify because map-output registration replaces
	// (Transport.Register displaces, and the displaced buffers are
	// released). Only idempotent stages take AfterAttempt faults.
	Idempotent bool
	// OnStart, when set, receives the scheduler-assigned stage id before
	// any attempt launches — the seam observability uses to correlate a
	// caller-side stage name with the ids attempt events carry.
	OnStart func(stage int)
}

// Attempt identifies one execution of one task, handed to the stage body.
type Attempt struct {
	Stage   int
	Part    int
	Attempt int // 1-based; a task's attempts run one after another in this order
	Exec    int
}

// RunStage executes body once per partition index in [0, parts), placing
// each attempt via the cluster affinity (blacklist-aware), bounding
// concurrency to SlotsPerExecutor per executor, and retrying failed
// attempts up to the task budget. Per task, only the final attempt's
// error survives into the joined stage error (earlier failures are in the
// recorded events); tasks that never succeeded report their attempt count
// and final executor.
func (c *Cluster) RunStage(parts int, opts StageOptions, body func(Attempt) error) error {
	ids := make([]int, parts)
	for p := range ids {
		ids[p] = p
	}
	return c.RunStageOn(ids, opts, body)
}

// RunStageOn is RunStage over an explicit partition-id set: each attempt's
// Part is taken from partIDs rather than a dense [0, parts) range. It is
// the lineage-repair entry point — re-running exactly the map tasks whose
// registered outputs were lost re-enters the original map body with the
// original partition numbers, so the repaired outputs register under their
// original MapOutputIDs.
func (c *Cluster) RunStageOn(partIDs []int, opts StageOptions, body func(Attempt) error) error {
	s := &stage{
		c:    c,
		id:   int(c.nextStage.Add(1)),
		opts: opts,
		sems: make([]chan struct{}, c.conf.NumExecutors),
	}
	for i := range s.sems {
		s.sems[i] = make(chan struct{}, c.conf.SlotsPerExecutor)
	}
	if opts.OnStart != nil {
		opts.OnStart(s.id)
	}
	errs := make([]error, len(partIDs))
	var wg sync.WaitGroup
	wg.Add(len(partIDs))
	for i, part := range partIDs {
		go func() {
			defer wg.Done()
			errs[i] = s.run(part, body)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
