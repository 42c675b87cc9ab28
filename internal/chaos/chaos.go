// Package chaos is a deterministic, seeded fault-injection harness for
// the engine's fault-tolerance subsystem. It plugs into the scheduler
// through the sched.FaultInjector seam (task-level faults: injected
// attempt failures, post-success failures that model an executor dying
// before reporting, and a mid-stage executor kill); the engine consults
// it before each map-output fetch (FetchFault: retryable errors and lost
// outputs) and after each merged one (MergeFault). Every decision is a
// pure hash of the seed and the
// fault's coordinates — (stage, partition, attempt) for tasks, (output
// id, try) for fetches — so a given seed injects the same faults on every
// run regardless of goroutine scheduling, and every recovery path is
// testable under -race without real sockets flaking.
//
// The executor kill models a Spark executor whose *compute* dies while
// its shuffle files survive on an external shuffle service: attempts
// placed on the dead executor fail (driving the scheduler's blacklist),
// but map outputs it registered earlier stay fetchable.
package chaos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"deca/internal/transport"
)

// ErrInjected marks every chaos-injected fault; errors.Is(err, ErrInjected)
// distinguishes injected faults from organic ones in tests.
var ErrInjected = errors.New("chaos: injected fault")

// Injector decides, deterministically from its seed, which task attempts
// and fetches fail. Configure the exported fields before the run starts;
// they must not change while a job executes.
type Injector struct {
	// Seed drives every hash-based decision.
	Seed int64

	// TaskFailureRate is the probability an attempt fails before its body
	// runs, decided independently per (stage, part, attempt) — so retries
	// of an unlucky task reroll.
	TaskFailureRate float64
	// FailAfterRate is the probability a *successful* attempt is failed
	// after its side effects landed (the executor died before reporting):
	// the retry's map-output re-registration then displaces the completed
	// attempt's buffers. The scheduler applies it only to idempotent (map)
	// stages, whose side effects replace.
	FailAfterRate float64
	// FailAfterMatch, when non-nil, replaces FailAfterRate (tests).
	FailAfterMatch func(stage, part, attempt, exec int) bool

	// KillExecutor, when ≥ 0, kills that executor after KillAfter
	// attempts have started on it: every later attempt placed there fails
	// immediately. In-process, outputs it already registered stay
	// fetchable (external shuffle service semantics); the multi-process
	// deployment additionally SIGKILLs the real executor process through
	// OnKill, so its outputs die with it and recovery must re-run the
	// producing stage.
	KillExecutor int
	KillAfter    int
	// OnKill, when set, fires exactly once — when the executor kill first
	// trips. The multiproc engine wires it to the process supervisor's
	// SIGKILL.
	OnKill func(exec int)

	// MergeFailMatch, when non-nil, fails a reduce attempt *mid-merge* —
	// after it has already consumed `consumed` map outputs — modeling the
	// executor dying partway through the merge. The engine consults it
	// from the reduce body after every merged output. Under the
	// stage-commit protocol such a failure is retryable: the consumed
	// outputs are still pinned and the retry re-fetches them.
	MergeFailMatch func(stage, part, attempt, consumed int) bool

	// FetchFailureRate is the probability a given map-output fetch try
	// fails with a retryable error, decided independently per (output id,
	// try) — the transport-level retry then recovers deterministically.
	FetchFailureRate float64
	// FailFetchN, when > 0, fails the Nth Fetch call (1-based, counted
	// across the run) exactly once. Which output that is depends on
	// goroutine scheduling; use FetchFailureRate for scheduling-independent
	// injection.
	FailFetchN int64
	// LoseOutput, when non-nil, turns every fetch of a matching output into
	// a definitive miss — the output's holder keeps dying, so lineage repair
	// re-runs the map task and the loss repeats (tests: a repair that cannot
	// converge must fail the job, not hang it).
	LoseOutput func(id transport.MapOutputID) bool

	killStarted atomic.Int64
	killFired   atomic.Bool
	fetchCount  atomic.Int64

	mu         sync.Mutex
	fetchTries map[transport.MapOutputID]int
}

// New returns an injector with no faults configured (KillExecutor -1).
func New(seed int64) *Injector {
	return &Injector{Seed: seed, KillExecutor: -1}
}

// roll hashes the seed and fault coordinates into a uniform [0, 1).
//
//deca:pure
func (i *Injector) roll(label string, a, b, c int64) float64 {
	h := uint64(i.Seed) * 0x9e3779b97f4a7c15
	for _, ch := range []byte(label) {
		h = (h ^ uint64(ch)) * 0x100000001b3
	}
	for _, v := range []int64{a, b, c} {
		h ^= uint64(v) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// BeforeAttempt implements sched.FaultInjector: executor kill, then
// injected attempt failure.
func (i *Injector) BeforeAttempt(stage, part, attempt, exec int) error {
	if i.KillExecutor >= 0 && exec == i.KillExecutor {
		if i.killStarted.Add(1) > int64(i.KillAfter) {
			if i.OnKill != nil && i.killFired.CompareAndSwap(false, true) {
				i.OnKill(exec)
			}
			return fmt.Errorf("%w: executor %d is dead (stage %d task %d attempt %d)",
				ErrInjected, exec, stage, part, attempt)
		}
	}
	if i.TaskFailureRate > 0 &&
		i.roll("task", int64(stage), int64(part), int64(attempt)) < i.TaskFailureRate {
		return fmt.Errorf("%w: task failure (stage %d task %d attempt %d on executor %d)",
			ErrInjected, stage, part, attempt, exec)
	}
	return nil
}

// AfterAttempt implements sched.FaultInjector: fail a completed attempt
// after its side effects (registrations) landed.
//
//deca:pure
func (i *Injector) AfterAttempt(stage, part, attempt, exec int) error {
	hit := false
	if i.FailAfterMatch != nil {
		hit = i.FailAfterMatch(stage, part, attempt, exec)
	} else if i.FailAfterRate > 0 {
		hit = i.roll("after", int64(stage), int64(part), int64(attempt)) < i.FailAfterRate
	}
	if !hit {
		return nil
	}
	return fmt.Errorf("%w: executor %d died after stage %d task %d attempt %d completed",
		ErrInjected, exec, stage, part, attempt)
}

// MergeFault decides whether a reduce attempt that has merged `consumed`
// map outputs dies here (MergeFailMatch exact targeting; tests).
//
//deca:pure
func (i *Injector) MergeFault(stage, part, attempt, consumed int) error {
	if i.MergeFailMatch == nil || !i.MergeFailMatch(stage, part, attempt, consumed) {
		return nil
	}
	return fmt.Errorf("%w: reduce attempt died mid-merge (stage %d task %d attempt %d, %d outputs consumed)",
		ErrInjected, stage, part, attempt, consumed)
}

// FetchFault decides whether this fetch try fails, before the transport
// is consulted: an injected error is retryable (Transport.Fetch's
// contract) and lost=true is a definitive miss (LoseOutput). Either fires
// before any wire byte moves, so the registered output is never consumed
// or half-decoded by it. Each output id keeps its own try counter, so a
// fetch that failed rerolls on retry.
//
//deca:pure
func (i *Injector) FetchFault(id transport.MapOutputID) (lost bool, err error) {
	n := i.fetchCount.Add(1)
	if i.FailFetchN > 0 && n == i.FailFetchN {
		return false, fmt.Errorf("%w: fetch %d (%v) dropped", ErrInjected, n, id)
	}
	if i.FetchFailureRate > 0 {
		i.mu.Lock()
		if i.fetchTries == nil {
			i.fetchTries = make(map[transport.MapOutputID]int)
		}
		try := i.fetchTries[id]
		i.fetchTries[id] = try + 1
		i.mu.Unlock()
		if i.roll("fetch", int64(id.Shuffle), int64(id.MapTask)<<20|int64(id.Reduce), int64(try)) < i.FetchFailureRate {
			return false, fmt.Errorf("%w: fetch of %v (try %d) dropped", ErrInjected, id, try+1)
		}
	}
	return i.LoseOutput != nil && i.LoseOutput(id), nil
}
