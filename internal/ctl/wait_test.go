package ctl

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"deca/internal/obs"
	"deca/internal/transport"
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
// the waiter, and each way it can end without its answer arriving answers
// within a bound. A dispatched attempt whose stage body is never published
// fails once the body deadline passes, naming the stage; the driver's
// Shutdown broadcast ends the mirrored program's pending waits and the
// attempts' alike; and a directory lookup the driver never answers ends on
// Shutdown and on the connection dropping.
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
	for name, end := range map[string]func(*rpcConn){
		"lookup, shutdown":        func(rc *rpcConn) { rc.send(msgShutdown, nil) },
		"lookup, connection drop": func(rc *rpcConn) { rc.close() },
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			accepted := make(chan *rpcConn, 1)
			go func() { accepted <- acceptFollower(t, ln, appendWelcome(1, heartbeatInterval)) }()
			f, err := NewFollower(FollowerConfig{DriverAddr: ln.Addr().String()})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rc := <-accepted
			if rc == nil {
				t.FailNow()
			}
			defer rc.close()
			go func() { // answers nothing
				for {
					if _, _, err := rc.read(); err != nil {
						return
					}
				}
			}()
			lookup := make(chan error, 1)
			go func() {
				_, _, _, err := f.Lookup(transport.MapOutputID{Shuffle: 1, MapTask: 2, Reduce: 3})
				lookup <- err
			}()
			pending(t, "the lookup", lookup)
			end(rc)
			if err := within(t, "the lookup", lookup, time.Second); !errors.Is(err, errShutdown) {
				t.Errorf("Lookup = %v, want %v", err, errShutdown)
			}
		})
	}
}

// pipeDriver is a Driver of one executor whose control connection is a
// net.Pipe; the test plays the executor on the returned end.
func pipeDriver(t *testing.T) (*Driver, *rpcConn) {
	near, far := net.Pipe()
	st := &execState{id: 0, conn: newRPCConn(near), done: make(map[uint64]*TaskResult)}
	d := &Driver{execs: []*execState{st}}
	done := make(chan struct{})
	go func() { d.readLoop(st); close(done) }()
	t.Cleanup(func() { far.Close(); <-done })
	return d, newRPCConn(far)
}

// TestDriverWaitsEndWithoutTheirAnswer: the driver's waits on an executor
// run through its waiter too. A dispatch and a metrics sync in flight end
// within a bound of the executor's connection closing; a metrics sync
// against a live executor that never beats ends at its deadline and keeps
// the vector the last heartbeat left.
func TestDriverWaitsEndWithoutTheirAnswer(t *testing.T) {
	t.Run("executor death", func(t *testing.T) {
		d, peer := pipeDriver(t)
		read := make(chan byte, 2)
		go func() {
			for range 2 {
				typ, _, err := peer.read()
				if err != nil {
					return
				}
				read <- typ
			}
		}()
		task := make(chan error, 1)
		go func() {
			_, err := d.RunTask(0, "x/1/1/map", 2, 0, 1)
			task <- err
		}()
		synced := make(chan struct{})
		go func() { d.SyncMetrics(time.Minute); close(synced) }()
		within(t, "the first frame", read, time.Second)
		within(t, "the second frame", read, time.Second)
		pending(t, "the dispatch", task)
		pending(t, "the metrics sync", synced)
		peer.close()
		if err := within(t, "the dispatch", task, time.Second); err == nil {
			t.Error("RunTask succeeded on a dead executor")
		}
		within(t, "the metrics sync", synced, time.Second)
	})

	t.Run("deadline", func(t *testing.T) {
		d, peer := pipeDriver(t)
		go func() { // alive, but never beats
			for {
				if _, _, err := peer.read(); err != nil {
					return
				}
			}
		}()
		old := obs.CounterValues{obs.ShuffleRecords: 5}
		d.execs[0].counters = old
		const timeout = 100 * time.Millisecond
		start := time.Now()
		d.SyncMetrics(timeout)
		if waited := time.Since(start); waited < timeout || waited > time.Second {
			t.Errorf("SyncMetrics returned after %v, want its %v deadline", waited, timeout)
		}
		if got := d.Counters(0); got != old {
			t.Errorf("counters = %v, want the last heartbeat's %v", got, old)
		}
	})
}
