package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"deca/internal/obs"
)

// stage is one RunStage invocation: stage-local worker slots, per-task
// state, and the successful-attempt durations the straggler monitor
// thresholds against.
type stage struct {
	c    *Cluster
	id   int
	opts StageOptions
	sems []chan struct{}

	tasks []*taskState
	wg    sync.WaitGroup // primary attempt chains
	// specWg tracks speculative attempts separately: the monitor launches
	// them while RunStage may already be in wg.Wait, and adding to a
	// WaitGroup concurrently with a Wait that can hit zero is a misuse.
	specWg sync.WaitGroup

	durMu     sync.Mutex
	durations []time.Duration
	doneCount int
}

// taskState is one task's state shared across its attempts. The task
// lifecycle: attempts run until one succeeds (done) or the primary chain
// exhausts its budget with no speculative attempt still in flight
// (failed). done and failed are terminal and mutually exclusive.
type taskState struct {
	part int

	mu       sync.Mutex
	done     bool
	failed   bool
	err      error
	doneCh   chan struct{} // closed on either terminal state (attempt cancel signal)
	attempts int           // attempt numbers issued (retries + speculation)

	running      int       // attempts currently executing a body
	primaryExec  int       // executor of the running primary attempt
	runningSince time.Time // when the running primary attempt started

	specLaunched bool
	specWait     chan struct{} // closed when the speculative attempt finishes
}

func (t *taskState) isDone() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// issueAttempt hands out the next attempt number (1-based, unique across
// the task's retries and speculative duplicates).
func (t *taskState) issueAttempt() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempts++
	return t.attempts
}

// complete marks the task done; it reports whether this caller won (a
// twin attempt may have completed it first).
func (t *taskState) complete() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || t.failed {
		return false
	}
	t.done = true
	close(t.doneCh)
	return true
}

// fail marks the task terminally failed with err.
func (t *taskState) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || t.failed {
		return
	}
	t.failed = true
	t.err = err
	close(t.doneCh)
}

// noteRunning/noteStopped maintain the straggler monitor's view of the
// task: how many attempts are executing, and since when the primary runs.
func (t *taskState) noteRunning(exec int, speculative bool, start time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.running++
	if !speculative {
		t.primaryExec = exec
		t.runningSince = start
	}
}

func (t *taskState) noteStopped() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.running--
}

// primary runs a task's attempt chain: place, run, and on failure retry
// within the budget. idx indexes s.tasks; the task's partition id may
// differ on sparse (lineage-repair) stages. If a speculative duplicate is
// still in flight when the budget runs out, the verdict waits for it —
// the duplicate may yet complete the task.
func (s *stage) primary(idx int, body func(Attempt) error) {
	defer s.wg.Done()
	t := s.tasks[idx]
	maxAttempts := s.c.conf.MaxTaskRetries + 1
	var lastErr error
	var lastExec, lastAttempt int
	attempts := 0
	for try := 1; try <= maxAttempts; try++ {
		if t.isDone() {
			return
		}
		exec := s.c.Place(t.part)
		attempt := t.issueAttempt()
		if try > 1 {
			s.note(obs.TaskRetries, obs.KindTaskRetry, t.part, attempt, exec, 0)
		}
		err := s.runAttempt(t, attempt, exec, false, body)
		if err == nil || t.isDone() {
			return
		}
		lastErr, lastExec, lastAttempt = err, exec, attempt
		attempts = try
	}
	t.mu.Lock()
	specWait := t.specWait
	t.mu.Unlock()
	if specWait != nil {
		<-specWait
		if t.isDone() {
			return
		}
	}
	t.fail(fmt.Errorf("task %d: failed after %d attempts, final attempt %d on executor %d: %w",
		t.part, attempts, lastAttempt, lastExec, lastErr))
}

// speculative runs a straggler's single duplicate attempt. Its error (if
// any) is not retried and does not consume the task's budget — the
// primary chain owns that — but it is counted and held against the
// executor like any failed attempt.
func (s *stage) speculative(t *taskState, avoid int, body func(Attempt) error) {
	defer s.specWg.Done()
	defer close(t.specWait)
	s.c.mu.Lock()
	exec := s.c.placeLocked(t.part, avoid)
	s.c.mu.Unlock()
	attempt := t.issueAttempt()
	s.note(obs.SpeculativeLaunched, obs.KindTaskSpeculate, t.part, attempt, exec, 0)
	_ = s.runAttempt(t, attempt, exec, true, body)
}

// runAttempt executes one attempt: acquire the executor's stage-local
// slot, run the injected-fault hooks around the body, and settle the
// outcome. A nil return means the task is done (this attempt won or a
// twin did); a non-nil return is this attempt's failure, already counted.
func (s *stage) runAttempt(t *taskState, attempt, exec int, speculative bool, body func(Attempt) error) error {
	s.sems[exec] <- struct{}{}
	defer func() { <-s.sems[exec] }()
	if t.isDone() {
		return nil // the twin won while this attempt queued
	}
	var spec int64
	if speculative {
		spec = 1
	}
	s.note(obs.TasksRun, obs.KindTaskStart, t.part, attempt, exec, spec)
	a := Attempt{
		Stage: s.id, Part: t.part, Attempt: attempt, Exec: exec,
		Speculative: speculative, cancel: t.doneCh,
	}
	start := time.Now()
	t.noteRunning(exec, speculative, start)
	err := s.attemptBody(a, body)
	dur := time.Since(start)
	t.noteStopped()
	s.recordFinish(a, dur, err)
	if err == nil {
		if t.complete() {
			s.recordDuration(dur)
			if speculative {
				s.note(obs.SpeculativeWon, obs.KindSpeculativeWon, t.part, attempt, exec, 0)
			}
		}
		return nil
	}
	if errors.Is(err, ErrCanceled) && t.isDone() {
		return nil // the loser of a speculative race bailed out cleanly
	}
	s.c.recordFailure(exec)
	return err
}

// note counts k against exec and records the event of kind for the
// attempt, under this stage's id; b is the event's B.
func (s *stage) note(k obs.Counter, kind obs.Kind, part, attempt, exec int, b int64) {
	s.c.execs[exec].counts[k].Add(1)
	s.c.conf.Recorder.Record(obs.Event{
		Kind: kind, Exec: int32(exec),
		Stage: int32(s.id), Part: int32(part), Attempt: int32(attempt), B: b,
	})
}

// maxEventErrLen bounds the error string a finish event carries, so one
// failing stage cannot bloat the ring.
const maxEventErrLen = 256

// recordFinish records the attempt's finish: its runtime and whether its
// body returned an error (a canceled loser of a speculative race included).
func (s *stage) recordFinish(a Attempt, d time.Duration, err error) {
	if s.c.conf.Recorder == nil {
		return
	}
	var failed int64
	var msg string
	if err != nil {
		failed = 1
		msg = err.Error()
		if len(msg) > maxEventErrLen {
			msg = msg[:maxEventErrLen]
		}
	}
	s.c.conf.Recorder.Record(obs.Event{
		Kind: obs.KindTaskFinish, Exec: int32(a.Exec),
		Stage: int32(a.Stage), Part: int32(a.Part), Attempt: int32(a.Attempt),
		A: int64(d), B: failed, Key: msg,
	})
}

// attemptBody wraps the body in the fault-injection hooks. AfterAttempt
// faults — "the executor died after its side effects landed" — only fire
// on speculatable stages, whose bodies are idempotent under re-execution
// (map-output re-registration displaces and releases; a reduce stage,
// speculatable when speculation is on, re-fetches inputs that stay
// registered until the stage commits). Action attempts fold into shared
// result slots, so re-running a *completed* one double-counts; faulting
// them after success would guarantee a wrong answer rather than exercise
// recovery.
func (s *stage) attemptBody(a Attempt, body func(Attempt) error) error {
	if f := s.c.conf.Faults; f != nil {
		if err := f.BeforeAttempt(a.Stage, a.Part, a.Attempt, a.Exec, a.cancel); err != nil {
			return err
		}
	}
	if err := body(a); err != nil {
		return err
	}
	if f := s.c.conf.Faults; f != nil && s.opts.Speculatable {
		if err := f.AfterAttempt(a.Stage, a.Part, a.Attempt, a.Exec); err != nil {
			return err
		}
	}
	return nil
}

// recordDuration logs a winning attempt's runtime for the straggler
// threshold.
func (s *stage) recordDuration(d time.Duration) {
	s.durMu.Lock()
	s.durations = append(s.durations, d)
	s.doneCount++
	s.durMu.Unlock()
}

// monitor is the straggler watchdog for speculatable stages: once
// speculationQuantile of the tasks have finished, any task whose current
// primary attempt has been running longer than speculationMultiplier ×
// the median successful runtime (floored at speculationMinRuntime) gets
// one speculative duplicate on another executor.
func (s *stage) monitor(stop <-chan struct{}, done chan<- struct{}, body func(Attempt) error) {
	defer close(done)
	ticker := time.NewTicker(speculationInterval)
	defer ticker.Stop()
	need := int(math.Ceil(speculationQuantile * float64(len(s.tasks)))) // ≥ 2: a monitor runs only over several tasks
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			s.maybeSpeculate(need, body)
		}
	}
}

func (s *stage) maybeSpeculate(need int, body func(Attempt) error) {
	s.durMu.Lock()
	done := s.doneCount
	durs := slices.Clone(s.durations)
	s.durMu.Unlock()
	if done < need || done >= len(s.tasks) || len(durs) == 0 {
		return
	}
	slices.Sort(durs)
	median := durs[len(durs)/2]
	threshold := max(time.Duration(speculationMultiplier*float64(median)), speculationMinRuntime)
	now := time.Now()
	for _, t := range s.tasks {
		t.mu.Lock()
		// A candidate has a primary attempt running past the threshold and
		// no duplicate yet.
		launch := !t.done && !t.failed && !t.specLaunched &&
			t.running > 0 && now.Sub(t.runningSince) > threshold
		avoid := t.primaryExec
		if launch {
			t.specLaunched = true
			t.specWait = make(chan struct{})
		}
		t.mu.Unlock()
		if launch {
			s.specWg.Add(1)
			go s.speculative(t, avoid, body)
		}
	}
}
