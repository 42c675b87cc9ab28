package sched

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deca/internal/chaos"
	"deca/internal/obs"
)

// count sums what c counted of k over every executor.
func count(c *Cluster, k obs.Counter) int64 {
	var n int64
	for e := range c.conf.NumExecutors {
		n += c.Counters(e)[k]
	}
	return n
}

func TestRetryRecoversWithinBudget(t *testing.T) {
	rec := obs.NewRecorder(0)
	c := NewCluster(Config{
		NumExecutors: 2, SlotsPerExecutor: 2, MaxTaskRetries: 3, Recorder: rec,
	})
	var fails atomic.Int64
	stage := -1
	err := c.RunStage(4, StageOptions{OnStart: func(id int) { stage = id }}, func(a Attempt) error {
		if a.Part == 1 && fails.Add(1) <= 2 {
			return fmt.Errorf("flaky")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stage should recover: %v", err)
	}
	if got := count(c, obs.TaskRetries); got != 2 {
		t.Errorf("retried = %d, want 2", got)
	}
	if got := count(c, obs.TasksFailed); got != 2 {
		t.Errorf("failed = %d, want 2 (once per attempt)", got)
	}
	if got := count(c, obs.TasksRun); got != 6 {
		t.Errorf("started = %d, want 6", got)
	}
	// Each retry is recorded under the stage, task and attempt it launched.
	var retries []obs.Event
	for _, e := range rec.Drain(0) {
		if e.Kind == obs.KindTaskRetry {
			retries = append(retries, e)
		}
	}
	if len(retries) != 2 {
		t.Fatalf("%d retry events, want 2", len(retries))
	}
	for i, e := range retries {
		if e.Stage != int32(stage) || e.Part != 1 || e.Attempt != int32(i+2) {
			t.Errorf("retry event %d: stage %d part %d attempt %d, want stage %d part 1 attempt %d",
				i, e.Stage, e.Part, e.Attempt, stage, i+2)
		}
	}
}

func TestBudgetExhaustionNamesAttemptAndExecutor(t *testing.T) {
	c := NewCluster(Config{NumExecutors: 3, SlotsPerExecutor: 1, MaxTaskRetries: 2})
	err := c.RunStage(4, StageOptions{}, func(a Attempt) error {
		if a.Part == 2 {
			return fmt.Errorf("hard-boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected stage failure")
	}
	msg := err.Error()
	for _, want := range []string{"task 2", "failed after 3 attempts", "final attempt 3", "on executor 2", "hard-boom"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestAttemptNumbersAreSequential(t *testing.T) {
	c := NewCluster(Config{NumExecutors: 1, SlotsPerExecutor: 1, MaxTaskRetries: 2})
	var attempts []int
	var mu sync.Mutex
	_ = c.RunStage(1, StageOptions{}, func(a Attempt) error {
		mu.Lock()
		attempts = append(attempts, a.Attempt)
		mu.Unlock()
		return fmt.Errorf("boom")
	})
	want := []int{1, 2, 3}
	if len(attempts) != len(want) {
		t.Fatalf("attempts = %v, want %v", attempts, want)
	}
	for i := range want {
		if attempts[i] != want[i] {
			t.Errorf("attempts = %v, want %v", attempts, want)
			break
		}
	}
}

func TestBlacklistReplacesOnlyDeadExecutorsPartitions(t *testing.T) {
	c := NewCluster(Config{
		NumExecutors: 4, SlotsPerExecutor: 2,
		MaxTaskRetries: 3, MaxExecutorFailures: 2,
	})
	// Executor 1 fails every attempt placed on it; after two failures it
	// is blacklisted and its partitions re-place.
	err := c.RunStage(8, StageOptions{}, func(a Attempt) error {
		if a.Exec == 1 {
			return fmt.Errorf("exec-1-broken")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stage should recover by re-placing: %v", err)
	}
	if !c.Blacklisted(1) {
		t.Error("executor 1 not blacklisted")
	}
	if got := count(c, obs.ExecutorsBlacklisted); got != 1 {
		t.Errorf("blacklist events = %d, want 1", got)
	}
	// Partitions with healthy homes keep their affinity; executor 1's
	// partitions land on a healthy executor, deterministically.
	for p := 0; p < 8; p++ {
		got := c.Place(p)
		if p%4 != 1 {
			if got != p%4 {
				t.Errorf("partition %d moved to %d despite healthy home %d", p, got, p%4)
			}
		} else if got == 1 {
			t.Errorf("partition %d still placed on blacklisted executor", p)
		}
	}
}

func TestLastHealthyExecutorIsNeverBlacklisted(t *testing.T) {
	c := NewCluster(Config{
		NumExecutors: 2, SlotsPerExecutor: 1,
		MaxTaskRetries: 5, MaxExecutorFailures: 1,
	})
	// Every attempt everywhere fails: executor health must bottom out at
	// one survivor, and the stage must fail rather than hang.
	err := c.RunStage(2, StageOptions{}, func(a Attempt) error {
		return fmt.Errorf("everything-burns")
	})
	if err == nil {
		t.Fatal("expected stage failure")
	}
	if got := count(c, obs.ExecutorsBlacklisted); got != 1 {
		t.Errorf("blacklisted = %d, want 1 (never the last healthy executor)", got)
	}
	healthy := 0
	for e := 0; e < 2; e++ {
		if !c.Blacklisted(e) {
			healthy++
		}
	}
	if healthy != 1 {
		t.Errorf("healthy executors = %d, want 1", healthy)
	}
}

// errInjector fails chosen attempts before/after the body.
type errInjector struct {
	before func(stage, part, attempt, exec int) error
	after  func(stage, part, attempt, exec int) error
}

func (i errInjector) BeforeAttempt(stage, part, attempt, exec int) error {
	if i.before == nil {
		return nil
	}
	return i.before(stage, part, attempt, exec)
}

func (i errInjector) AfterAttempt(stage, part, attempt, exec int) error {
	if i.after == nil {
		return nil
	}
	return i.after(stage, part, attempt, exec)
}

func TestAfterAttemptFailureRetriesDespiteSideEffects(t *testing.T) {
	var bodies atomic.Int64
	c := NewCluster(Config{
		NumExecutors: 2, SlotsPerExecutor: 1, MaxTaskRetries: 2,
		Faults: errInjector{after: func(_, part, attempt, _ int) error {
			if part == 0 && attempt == 1 {
				return errors.New("died after reporting")
			}
			return nil
		}},
	})
	// AfterAttempt faults only apply to idempotent stages — the ones whose
	// side effects replace under re-execution.
	err := c.RunStage(2, StageOptions{Idempotent: true}, func(a Attempt) error {
		bodies.Add(1)
		return nil
	})
	if err != nil {
		t.Fatalf("stage failed: %v", err)
	}
	if got := bodies.Load(); got != 3 {
		t.Errorf("bodies ran %d times, want 3 (task 0 re-ran after its side effects landed)", got)
	}
	if got := count(c, obs.TaskRetries); got != 1 {
		t.Errorf("retried = %d, want 1", got)
	}
	// On a non-idempotent stage the same injector fires nothing.
	bodies.Store(0)
	if err := c.RunStage(2, StageOptions{}, func(a Attempt) error {
		bodies.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := bodies.Load(); got != 2 {
		t.Errorf("non-idempotent stage ran bodies %d times, want 2 (no AfterAttempt faults)", got)
	}
}

// attemptLog passes both hooks on to the injector it wraps. It records
// each attempt number under its (stage, part), in the order the attempts
// arrived, and counts the faults the injector returned: task failures
// before an attempt on a live executor (deadExec's are kill faults), and
// failures after one.
type attemptLog struct {
	FaultInjector
	deadExec   int
	mu         sync.Mutex
	seen       map[[2]int][]int
	taskFaults int
	after      int
}

func (l *attemptLog) BeforeAttempt(stage, part, attempt, exec int) error {
	l.mu.Lock()
	k := [2]int{stage, part}
	l.seen[k] = append(l.seen[k], attempt)
	l.mu.Unlock()
	err := l.FaultInjector.BeforeAttempt(stage, part, attempt, exec)
	if err != nil && exec != l.deadExec {
		l.mu.Lock()
		l.taskFaults++
		l.mu.Unlock()
	}
	return err
}

func (l *attemptLog) AfterAttempt(stage, part, attempt, exec int) error {
	err := l.FaultInjector.AfterAttempt(stage, part, attempt, exec)
	if err != nil {
		l.mu.Lock()
		l.after++
		l.mu.Unlock()
	}
	return err
}

// TestStageStress hammers retries and blacklisting together under -race:
// chaos fails a share of attempts before their body, fails some first
// attempts after it, and kills executor 3, whose failures then blacklist
// it. Whatever fails, a task has one attempt in flight at a time: no body
// runs beside another of its own task, and each task's attempts are
// numbered 1..n in the order they ran. The transport's one-Register-per-id
// and the exchange's one-output-per-part comments rest on this.
func TestStageStress(t *testing.T) {
	inj := chaos.New(44)
	inj.TaskFailureRate = 0.05
	inj.FailAfterMatch = func(_, part, attempt, _ int) bool { return part%8 == 1 && attempt == 1 }
	inj.KillExecutor, inj.KillAfter = 3, 4
	var killed atomic.Bool
	inj.OnKill = func(int) { killed.Store(true) }
	log := &attemptLog{FaultInjector: inj, deadExec: inj.KillExecutor, seen: make(map[[2]int][]int)}
	c := NewCluster(Config{
		NumExecutors: 4, SlotsPerExecutor: 4,
		MaxTaskRetries: 8, MaxExecutorFailures: 6,
		Faults: log,
	})
	var running sync.Map // {stage, part} of every body in flight
	for round := 0; round < 5; round++ {
		err := c.RunStage(32, StageOptions{Idempotent: true}, func(a Attempt) error {
			k := [2]int{a.Stage, a.Part}
			if _, twin := running.LoadOrStore(k, a.Attempt); twin {
				t.Errorf("stage %d task %d: attempt %d's body ran beside another attempt's", a.Stage, a.Part, a.Attempt)
				return nil
			}
			defer running.Delete(k)
			time.Sleep(time.Duration(a.Part%3) * time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatalf("round %d failed: %v", round, err)
		}
	}
	if log.taskFaults == 0 || log.after == 0 || !killed.Load() {
		t.Errorf("task failures %d, after-attempt failures %d, kill fired %v; every kind of fault must fire",
			log.taskFaults, log.after, killed.Load())
	}
	if !c.Blacklisted(3) {
		t.Error("the killed executor was never blacklisted")
	}
	if count(c, obs.TasksRun) < 5*32 {
		t.Errorf("started = %d, want ≥ %d", count(c, obs.TasksRun), 5*32)
	}
	if len(log.seen) != 5*32 {
		t.Errorf("%d tasks reached BeforeAttempt, want %d", len(log.seen), 5*32)
	}
	for k, attempts := range log.seen {
		for i, a := range attempts {
			if a != i+1 {
				t.Errorf("stage %d task %d ran attempts %v, want 1..%d in order", k[0], k[1], attempts, len(attempts))
				break
			}
		}
	}
}

func TestPlaceIsStableWithoutBlacklist(t *testing.T) {
	c := NewCluster(Config{NumExecutors: 3})
	for p := 0; p < 9; p++ {
		if got := c.Place(p); got != p%3 {
			t.Errorf("Place(%d) = %d, want %d", p, got, p%3)
		}
	}
}

func TestRunStageOnSparsePartitions(t *testing.T) {
	c := NewCluster(Config{NumExecutors: 3, SlotsPerExecutor: 2})
	want := []int{2, 5, 11}
	seen := make(map[int]int)
	var mu sync.Mutex
	err := c.RunStageOn(want, StageOptions{}, func(a Attempt) error {
		mu.Lock()
		seen[a.Part]++
		mu.Unlock()
		if a.Exec != c.Place(a.Part) {
			t.Errorf("part %d placed on %d, want affinity %d", a.Part, a.Exec, c.Place(a.Part))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(want) {
		t.Fatalf("ran %d distinct partitions, want %d (%v)", len(seen), len(want), seen)
	}
	for _, p := range want {
		if seen[p] != 1 {
			t.Errorf("partition %d ran %d times, want 1", p, seen[p])
		}
	}
}

// TestConfigSurface ratchets the scheduler's settings. The ceiling only
// goes down; a raise states its reason here, as the CI line ratchets do.
// (12 -> 7 when probation was deleted and Speculation{Enabled, Quantile,
// Multiplier, MinRuntime, Interval} became Speculate over constants; 7 -> 6
// when speculative execution, which no run turned on, was deleted.)
func TestConfigSurface(t *testing.T) {
	if n := leafFields(reflect.TypeOf(Config{})); n > 6 {
		t.Errorf("sched.Config has %d settable values, the ceiling is 6", n)
	}
}

// leafFields counts the settable values of a config struct; a field whose
// type is itself a struct of settings counts by its own fields.
func leafFields(t reflect.Type) int {
	n := 0
	for i := range t.NumField() {
		if f := t.Field(i).Type; f.Kind() == reflect.Struct {
			n += leafFields(f)
		} else {
			n++
		}
	}
	return n
}
