package ctl_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"deca/internal/ctl"
	"deca/internal/decompose"
	"deca/internal/engine"
	"deca/internal/obs"
	"deca/internal/serial"
	"deca/internal/shuffle"
)

// scriptedMirror connects a real Follower, with the real engine mirrored
// on top of it, to a ScriptedDriver; the test's cleanup tears all three
// down.
func scriptedMirror(t *testing.T) (*ctl.ScriptedDriver, *engine.Context) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *ctl.ScriptedDriver, 1)
	go func() {
		d, err := ctl.AcceptScripted(ln, 1)
		if err != nil {
			t.Error(err)
		}
		accepted <- d
	}()
	f, err := ctl.NewFollower(ctl.FollowerConfig{DriverAddr: ln.Addr().String(), ID: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	drv := <-accepted
	if drv == nil {
		t.FailNow()
	}
	t.Cleanup(drv.Close)
	ctx := engine.New(engine.Config{
		NumExecutors: 1, Parallelism: 2, Mode: engine.ModeDeca,
		SpillDir: t.TempDir(), CtlFollower: f,
	})
	t.Cleanup(ctx.Close)
	return drv, ctx
}

// TestFollowerTreatsUnknownVerdictsAsAbort drives a real Follower — and
// the real engine mirrored on top of it — from a scripted driver through
// one exchange, and answers the reduce stage with a verdict byte that is
// not VerdictOK: 2, the retired whole-exchange retry, and 9, which never
// meant anything. Either way the follower must treat it as an abort — the
// merged reduce outputs it already holds are released, its registered map
// outputs dropped, and the mirrored action returns an error — rather than
// commit, or wait for a round that will never come.
func TestFollowerTreatsUnknownVerdictsAsAbort(t *testing.T) {
	for _, verdict := range []byte{2, 9} {
		t.Run(fmt.Sprintf("verdict-%d", verdict), func(t *testing.T) {
			drv, ctx := scriptedMirror(t)
			const parts = 2
			var pairs []decompose.Pair[int64, int64]
			for i := int64(0); i < 300; i++ {
				pairs = append(pairs, engine.KV(i%17, i))
			}
			ops := engine.PairOps[int64, int64]{
				Key: shuffle.Int64Key(), KeySer: serial.Int64{}, ValSer: serial.Int64{},
				KeyCodec: decompose.Int64Codec{}, ValCodec: decompose.Int64Codec{}, Partitions: parts,
			}
			red := engine.ReduceByKey(engine.Parallelize(ctx, pairs, parts), ops,
				func(a, b int64) int64 { return a + b })
			mirror := make(chan error, 1)
			go func() {
				_, err := engine.CollectMap(red)
				mirror <- err
			}()

			// The action's tasks pull the shuffle and park inside its
			// materialization until the exchange below settles.
			actions := make([]ctl.TaskResult, parts)
			var wg sync.WaitGroup
			for p := 0; p < parts; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					actions[p] = drv.RunTask("action/1", 1, p, 1)
				}()
			}
			var dataset int
			select {
			case dataset = <-drv.NeedShuffle:
			case <-time.After(10 * time.Second):
				t.Fatal("the follower never asked for the shuffle")
			}
			drv.Materialize(dataset, 1, 1)
			for _, phase := range []string{"map", "reduce"} {
				key := "x/1/1/" + phase
				for p := 0; p < parts; p++ {
					if res := drv.RunTask(key, 2, p, 1); !res.OK {
						t.Fatalf("%s task %d: %s", phase, p, res.ErrMsg)
					}
				}
				if phase == "map" {
					drv.StageEnd(key, ctl.VerdictOK, "")
				}
			}
			if drv.Registered() != parts*parts {
				t.Fatalf("directory holds %d outputs, want %d", drv.Registered(), parts*parts)
			}
			if ctx.Counters()[obs.PageBytesInUse] == 0 {
				t.Fatal("the follower holds no pages before the verdict; the test proves nothing")
			}

			drv.StageEnd("x/1/1/reduce", verdict, "peer says so")
			wg.Wait()
			for p, res := range actions {
				if res.OK || !strings.Contains(res.ErrMsg, "x/1/1/reduce") {
					t.Errorf("action task %d: ok=%v err=%q, want a failure naming the reduce stage", p, res.OK, res.ErrMsg)
				}
			}
			drv.StageEnd("action/1", ctl.VerdictAbort, "tasks failed")
			select {
			case err := <-mirror:
				if err == nil {
					t.Error("the mirrored action succeeded")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the mirrored action never returned")
			}
			if n := ctx.Counters()[obs.PageBytesInUse]; n != 0 {
				t.Errorf("%d bytes of pages still held after the abort", n)
			}
			if st := ctx.Executors()[0].Memory().Counters(); st[obs.PageGroupsLive] != 0 {
				t.Errorf("%d page groups still live after the abort", st[obs.PageGroupsLive])
			}
			if n := ctx.Counters()[obs.ShuffleOutputsPinned]; n != 0 {
				t.Errorf("%d map outputs still registered after the abort", n)
			}
		})
	}
}
