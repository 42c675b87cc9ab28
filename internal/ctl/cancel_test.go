package ctl

import (
	"flag"
	"os"
	"testing"
	"time"

	"deca/internal/obs"
)

// TestMain doubles as a minimal follower binary: the driver spawns
// `env DECA_CTL_HELPER=1 <test-binary> -driver ...`, and the re-exec'd
// test process runs cancelHelperMain instead of the suite — the same
// race-instrumented build on both sides of the control connection.
func TestMain(m *testing.M) {
	if os.Getenv("DECA_CTL_HELPER") == "1" {
		os.Exit(cancelHelperMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// nopRuntime is a Runtime with no shuffles and nothing counted.
type nopRuntime struct{}

func (nopRuntime) MaterializeDataset(int, int) {}
func (nopRuntime) ReleaseDataset(int, int)     {}
func (nopRuntime) Snapshot() obs.CounterValues { return obs.CounterValues{} }

// publishEchoBodies publishes the helper process's two stages: a "block"
// attempt parks on its cancel signal — the shape of a speculative loser
// mid-merge — and reports Canceled once the driver's CancelTask lands; an
// "after" attempt completes at once, echoing its stage key.
func publishEchoBodies(f *Follower) {
	f.AddStageBody("block", func(_, _, _ int, cancel <-chan struct{}) TaskResult {
		<-cancel
		return TaskResult{Canceled: true, ErrMsg: "canceled by driver"}
	})
	f.AddStageBody("after", func(int, int, int, <-chan struct{}) TaskResult {
		return TaskResult{OK: true, Result: []byte("after")}
	})
}

func cancelHelperMain(args []string) int {
	fs := flag.NewFlagSet("ctl-helper", flag.ContinueOnError)
	driver := fs.String("driver", "", "")
	id := fs.Int("id", -1, "")
	token := fs.String("token", "", "")
	fs.String("data-addr", "", "") // accepted, unused here
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, err := NewFollower(FollowerConfig{DriverAddr: *driver, ID: *id, Token: *token})
	if err != nil {
		return 1
	}
	defer f.Close()
	f.SetRuntime(nopRuntime{})
	publishEchoBodies(f)
	<-f.ShutdownCh()
	return 0
}

// TestCancelTaskCrossProcess: a dispatched task whose attempt is
// cancelled driver-side gets a CancelTask frame, the *running* body in
// the real executor process observes it and stops, and its Canceled
// result crosses back — with the connection healthy for the next
// dispatch. This is the wire contract reduce speculation's losers rely
// on.
func TestCancelTaskCrossProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a follower process")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	d, err := NewDriver(DriverConfig{
		NumExecutors: 1,
		ExecutorCmd:  []string{"env", "DECA_CTL_HELPER=1", self},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cancel := make(chan struct{})
	type out struct {
		res TaskResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := d.RunTask(0, "block", 1, 0, 1, cancel)
		done <- out{res, err}
	}()
	// The remote body parks on its cancel signal, so the dispatch must
	// still be in flight (the conn's FIFO orders RunTask before
	// CancelTask; the sleep only makes a premature return observable).
	time.Sleep(50 * time.Millisecond)
	select {
	case o := <-done:
		t.Fatalf("RunTask returned before cancellation: %+v, %v", o.res, o.err)
	default:
	}
	close(cancel)
	var o out
	select {
	case o = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled task never returned its result")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	if !o.res.Canceled || o.res.OK {
		t.Errorf("result = %+v, want Canceled", o.res)
	}

	// The cancellation must not poison the connection or leak the task's
	// registry entry: the next dispatch completes normally.
	res, err := d.RunTask(0, "after", 1, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || string(res.Result) != "after" {
		t.Errorf("follow-up result = %+v, want OK 'after'", res)
	}
}
