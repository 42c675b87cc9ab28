package engine

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deca/internal/ctl"
	"deca/internal/decompose"
)

// TestMain doubles as a minimal deca-executor for this package's
// multiproc tests: the driver spawns `env DECA_ENGINE_HELPER=1
// <test-binary> -driver ...`, and the re-exec'd process mirrors the program
// the plan names instead of running the suite. (The full executor main
// lives in internal/workloads, which this package cannot import.)
func TestMain(m *testing.M) {
	if os.Getenv("DECA_ENGINE_HELPER") == "1" {
		os.Exit(helperExecutor(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// mirrorPrograms are the jobs a helper executor can mirror. The plan is
// "<program>\n<spill dir>"; every program runs under programConfig, and a
// program that returns nil keeps the executor alive until shutdown.
var mirrorPrograms = map[string]func(ctx *Context) error{
	"recovery": func(ctx *Context) error {
		_, err := recoveryProgram(ctx, nil)
		return err
	},
	// release is recovery with a program-order ReleaseShuffle before
	// action 1, which the mirror reaches only once it holds the epoch the
	// driver re-materialized after its own release (see
	// TestMultiprocProgramOrderRelease).
	"release": func(ctx *Context) error {
		_, err := recoveryProgram(ctx, func(action, dataset int) {
			if action == 1 {
				awaitLive(ctx, dataset, 2)
				ctx.ReleaseShuffle(dataset)
			}
		})
		return err
	},
	"lookup": func(ctx *Context) error {
		_, _, _, err := lookupProgram(ctx)
		return err
	},
	"roles": func(ctx *Context) error {
		_, _, err := rolesProgram(ctx)
		return err
	},
	"unconverged": mirrorUnconverged,
	"count": func(ctx *Context) error {
		_, _, _, err := countProgram(ctx, new(atomic.Int64))
		return err
	},
}

// programCtx starts a Context of deployment kind under program's config;
// a multiproc driver's helper executors mirror program.
func programCtx(t *testing.T, program string, kind TransportKind) *Context {
	t.Helper()
	conf := programConfig(program, t.TempDir())
	conf.TransportKind = kind
	if kind == TransportMultiproc {
		if testing.Short() {
			t.Skip("spawns executor processes")
		}
		self, err := os.Executable()
		if err != nil {
			t.Fatal(err)
		}
		conf.ExecutorCmd = []string{"env", "DECA_ENGINE_HELPER=1", self}
	}
	ctx := New(conf)
	t.Cleanup(ctx.Close)
	ctx.RegisterPlan([]byte(program + "\n" + conf.SpillDir))
	return ctx
}

const recoveryExecutors, recoveryActions = 2, 3

func recoveryConfig(spillDir string) Config {
	return Config{NumExecutors: recoveryExecutors, Parallelism: 2, Mode: ModeDeca, SpillDir: spillDir}
}

// programConfig is the config every process of a mirrored program runs
// under: recoveryConfig, with a threshold that makes "roles" spill its
// shuffle buffers so its counter comparison covers spill accounting, and
// "count" so its merged containers hold runs when they are counted.
func programConfig(program, spillDir string) Config {
	conf := recoveryConfig(spillDir)
	if program == "roles" || program == "count" {
		conf.ShuffleSpillThreshold = 256
	}
	return conf
}

// recoveryProgram is the mirrored job: one shuffled dataset, collected
// recoveryActions times. between (driver only) runs before each action.
func recoveryProgram(ctx *Context, between func(action, dataset int)) ([]map[int64]int64, error) {
	var pairs []decompose.Pair[int64, int64]
	for i := int64(0); i < 400; i++ {
		pairs = append(pairs, KV(i%23, i))
	}
	red := ReduceByKey(Parallelize(ctx, pairs, 4), int64Ops(4), func(a, b int64) int64 { return a + b })
	var outs []map[int64]int64
	for a := 0; a < recoveryActions; a++ {
		if between != nil {
			between(a, red.ID())
		}
		out, err := CollectMap(red)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}

func helperExecutor(args []string) int {
	fs := flag.NewFlagSet("engine-helper", flag.ContinueOnError)
	driver := fs.String("driver", "", "")
	id := fs.Int("id", -1, "")
	token := fs.String("token", "", "")
	if fs.Parse(args) != nil {
		return 2
	}
	f, err := ctl.NewFollower(ctl.FollowerConfig{DriverAddr: *driver, ID: *id, Token: *token})
	if err != nil {
		fmt.Fprintln(os.Stderr, "engine-helper:", err)
		return 1
	}
	defer f.Close()
	plan, err := f.AwaitPlan()
	if err != nil {
		return 1
	}
	program, spillDir, _ := strings.Cut(string(plan), "\n")
	conf := programConfig(program, spillDir)
	conf.CtlFollower = f
	if program == "unconverged" {
		conf.Chaos = loseMapTaskZero()
	}
	ctx := New(conf)
	defer ctx.Close()
	if err := mirrorPrograms[program](ctx); err != nil {
		fmt.Fprintln(os.Stderr, "engine-helper: mirror:", err)
		return 1
	}
	<-f.ShutdownCh()
	return 0
}

// TestMultiprocRecoveryReleaseDuringMaterialize pins the cause of the
// TestMultiprocReduceKillLineageRepair hang. A MissingOutput report for
// the *current* epoch can reach the driver while it is still inside that
// epoch's materialization: followers go live on the reduce verdict, the
// driver only when materialize returns. The recovery release must then
// still release the driver's copy (after the materialization settles) —
// not find nothing to release, broadcast the release anyway, and leave
// driver live / followers released, where the next pull's NeedShuffle is
// memoised away and the followers wait for an epoch nobody announces.
func TestMultiprocRecoveryReleaseDuringMaterialize(t *testing.T) {
	ctx := programCtx(t, "recovery", TransportMultiproc)

	// Epoch 1 materializes under action 0. Before action 1 a first
	// recovery releases it everywhere, so action 1 re-materializes as
	// epoch 2 — and in the window after that epoch's reduce verdict a
	// report naming epoch 2 arrives, on its own goroutine as real reports
	// do. The hook holds the window open until the report has either gone
	// through or is parked on the materialization's lock.
	ctx.testAfterReduceVerdict = func(ds, epoch int) {
		if epoch != 2 {
			return
		}
		reported := make(chan struct{})
		go func() {
			ctx.recoverMissingOutput(ds, epoch)
			close(reported)
		}()
		select {
		case <-reported:
		case <-time.After(100 * time.Millisecond):
		}
	}
	between := func(action, dataset int) {
		if action == 1 {
			ctx.recoverMissingOutput(dataset, 1)
		}
	}
	runRecoveryProgram(t, ctx, between)
}

// runRecoveryProgram runs the driver's side of recoveryProgram under a
// 20 s bound: every action must collect the same answer, and a follower
// left waiting for a materialization the driver believes it already has
// hangs the job past the bound.
func runRecoveryProgram(t *testing.T, ctx *Context, between func(action, dataset int)) {
	t.Helper()
	type result struct {
		outs []map[int64]int64
		err  error
	}
	done := make(chan result, 1)
	go func() {
		outs, err := recoveryProgram(ctx, between)
		done <- result{outs, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		for a, out := range r.outs {
			if !reflect.DeepEqual(out, r.outs[0]) {
				t.Errorf("action %d collected a different answer after recovery", a)
			}
		}
	case <-time.After(20 * time.Second):
		t.Fatal("job hung: a follower is waiting for a materialization the driver believes it already has")
	}
}

// awaitLive blocks until this process holds the dataset's materialization
// of epoch live; a mirror that never does is a broken test.
func awaitLive(ctx *Context, dataset, epoch int) {
	st := ctx.shuffleOf(dataset).(*shuffleState[decompose.Pair[int64, int64]])
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st.mu.Lock()
		live := st.live && st.epoch == epoch
		st.mu.Unlock()
		if live {
			return
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("dataset %d never went live at epoch %d here", dataset, epoch))
		}
	}
}

// TestMultiprocProgramOrderRelease pins the cause of the
// TestMultiprocSIGKILLPageRank hang. The driver releases a shuffled
// dataset in program order and re-materializes it (as epoch 2) before the
// next action — in PageRank, recovery re-materializing the adjacency
// shuffle after the cache blocks built from it died with an executor. A
// mirror lags its driver, so it can reach the same program-order release
// only after it went live at epoch 2. If that release freed the mirror's
// copy, the next action's drain would ask for the dataset again, the
// driver (live at epoch 2) would memoise the request away, and the mirror
// would wait for an epoch nobody announces. A follower therefore never
// releases on its own: the driver's release reaches it as an epoch-guarded
// broadcast.
func TestMultiprocProgramOrderRelease(t *testing.T) {
	ctx := programCtx(t, "release", TransportMultiproc)
	runRecoveryProgram(t, ctx, func(action, dataset int) {
		if action == 1 {
			ctx.ReleaseShuffle(dataset)
			if err := ctx.MaterializeShuffle(dataset); err != nil {
				t.Error(err)
			}
		}
	})
}
