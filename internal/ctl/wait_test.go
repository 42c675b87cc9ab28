package ctl

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"deca/internal/obs"
)

// nopRuntime is a Runtime with no shuffles, nothing counted and no events.
type nopRuntime struct{}

func (nopRuntime) MaterializeDataset(int, int) {}
func (nopRuntime) ReleaseDataset(int, int)     {}
func (nopRuntime) Snapshot() obs.CounterValues { return obs.CounterValues{} }
func (nopRuntime) DrainEvents(int) []obs.Event { return nil }

// scriptedFollower connects a bare Follower — no engine, so nothing ever
// publishes a stage body — to a ScriptedDriver; the test's cleanup tears
// both down.
func scriptedFollower(t *testing.T) (*ScriptedDriver, *Follower) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *ScriptedDriver, 1)
	go func() {
		d, err := AcceptScripted(ln, 1)
		if err != nil {
			t.Error(err)
		}
		accepted <- d
	}()
	f, err := NewFollower(FollowerConfig{DriverAddr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	drv := <-accepted
	if drv == nil {
		t.FailNow()
	}
	t.Cleanup(drv.Close)
	f.SetRuntime(nopRuntime{})
	return drv, f
}

// dispatch runs one attempt of key through the scripted driver on its own
// goroutine; the channel yields its result.
func dispatch(drv *ScriptedDriver, key string) <-chan TaskResult {
	done := make(chan TaskResult, 1)
	go func() { done <- drv.RunTask(key, 1, 0, 1) }()
	return done
}

// pending fails the test if a wait the test expects to be parked has ended.
func pending[T any](t *testing.T, what string, ch <-chan T) {
	t.Helper()
	select {
	case v := <-ch:
		t.Fatalf("%s ended before anything ended it: %+v", what, v)
	case <-time.After(50 * time.Millisecond):
	}
}

// within returns what ch yields inside bound, or fails the test.
func within[T any](t *testing.T, what string, ch <-chan T, bound time.Duration) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(bound):
		t.Fatalf("%s still waiting after %v", what, bound)
	}
	var zero T
	return zero
}

// TestWaitsEndWithoutTheirAnswer: every follower-side wait runs through
// waitLocked, and each way it can end without its answer arriving answers
// within a bound. A dispatched attempt whose stage body is never published
// fails once the body deadline passes, naming the stage; and the driver's
// Shutdown broadcast ends the mirrored program's pending waits and the
// attempts' alike.
func TestWaitsEndWithoutTheirAnswer(t *testing.T) {
	t.Run("body deadline", func(t *testing.T) {
		defer func(d time.Duration) { stageBodyTimeout = d }(stageBodyTimeout)
		stageBodyTimeout = 100 * time.Millisecond
		drv, _ := scriptedFollower(t)
		start := time.Now()
		res := within(t, "the attempt", dispatch(drv, "x/never/published"), 5*time.Second)
		if res.OK || !strings.Contains(res.ErrMsg, errNoBody.Error()) ||
			!strings.Contains(res.ErrMsg, "x/never/published") {
			t.Errorf("result = %+v, want the body deadline's error naming the stage", res)
		}
		if waited := time.Since(start); waited < stageBodyTimeout {
			t.Errorf("the attempt gave up after %v, before the %v deadline", waited, stageBodyTimeout)
		}
	})

	t.Run("shutdown", func(t *testing.T) {
		drv, f := scriptedFollower(t)
		verdict := make(chan error, 1)
		go func() {
			_, _, err := f.AwaitStageEnd("x/never/ended")
			verdict <- err
		}()
		attempt := dispatch(drv, "x/never/published")
		pending(t, "the verdict wait", verdict)
		pending(t, "the attempt", attempt)
		drv.Shutdown()
		if err := within(t, "the verdict wait", verdict, time.Second); !errors.Is(err, errShutdown) {
			t.Errorf("AwaitStageEnd = %v, want %v", err, errShutdown)
		}
		if res := within(t, "the attempt", attempt, time.Second); res.OK || !strings.Contains(res.ErrMsg, errShutdown.Error()) {
			t.Errorf("result = %+v, want the shutdown's error", res)
		}
		within(t, "ShutdownCh", f.ShutdownCh(), time.Second)
	})
}
