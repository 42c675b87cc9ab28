package sched

import (
	"fmt"
	"time"

	"deca/internal/obs"
)

// stage is one RunStage invocation: its id, options and stage-local
// worker slots.
type stage struct {
	c    *Cluster
	id   int
	opts StageOptions
	sems []chan struct{}
}

// run is one task's attempt chain: place, run, and on failure retry
// within the budget. The next attempt starts only after the last one
// returned, so a task never has two attempts in flight and its attempt
// numbers run 1, 2, … in order. part is the task's partition id, which
// may be sparse on lineage-repair stages.
func (s *stage) run(part int, body func(Attempt) error) error {
	maxAttempts := s.c.conf.MaxTaskRetries + 1
	var err error
	var exec int
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		exec = s.c.Place(part)
		if attempt > 1 {
			s.note(obs.TaskRetries, obs.KindTaskRetry, part, attempt, exec)
		}
		if err = s.runAttempt(Attempt{Stage: s.id, Part: part, Attempt: attempt, Exec: exec}, body); err == nil {
			return nil
		}
	}
	return fmt.Errorf("task %d: failed after %d attempts, final attempt %d on executor %d: %w",
		part, maxAttempts, maxAttempts, exec, err)
}

// runAttempt executes one attempt: acquire the executor's stage-local
// slot, run the injected-fault hooks around the body, and record the
// outcome. A non-nil return is this attempt's failure, already counted
// against its executor.
func (s *stage) runAttempt(a Attempt, body func(Attempt) error) error {
	s.sems[a.Exec] <- struct{}{}
	defer func() { <-s.sems[a.Exec] }()
	s.note(obs.TasksRun, obs.KindTaskStart, a.Part, a.Attempt, a.Exec)
	start := time.Now()
	err := s.attemptBody(a, body)
	s.recordFinish(a, time.Since(start), err)
	if err != nil {
		s.c.recordFailure(a.Exec)
	}
	return err
}

// note counts k against exec and records the event of kind for the
// attempt, under this stage's id.
func (s *stage) note(k obs.Counter, kind obs.Kind, part, attempt, exec int) {
	s.c.execs[exec].counts[k].Add(1)
	s.c.conf.Recorder.Record(obs.Event{
		Kind: kind, Exec: int32(exec),
		Stage: int32(s.id), Part: int32(part), Attempt: int32(attempt),
	})
}

// maxEventErrLen bounds the error string a finish event carries, so one
// failing stage cannot bloat the ring.
const maxEventErrLen = 256

// recordFinish records the attempt's finish: its runtime and whether its
// body returned an error.
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
// on idempotent stages, whose bodies replace their side effects when
// re-run (map-output re-registration displaces and releases). A reduce
// attempt keeps its merged output and an action attempt folds into a
// shared result slot, so re-running a *completed* one would keep two
// outputs or double-count; faulting them after success would guarantee a
// wrong answer rather than exercise recovery.
func (s *stage) attemptBody(a Attempt, body func(Attempt) error) error {
	if f := s.c.conf.Faults; f != nil {
		if err := f.BeforeAttempt(a.Stage, a.Part, a.Attempt, a.Exec); err != nil {
			return err
		}
	}
	if err := body(a); err != nil {
		return err
	}
	if f := s.c.conf.Faults; f != nil && s.opts.Idempotent {
		if err := f.AfterAttempt(a.Stage, a.Part, a.Attempt, a.Exec); err != nil {
			return err
		}
	}
	return nil
}
