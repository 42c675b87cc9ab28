package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"deca/internal/chaos"
	"deca/internal/decompose"
	"deca/internal/obs"
	"deca/internal/transport"
)

// rolesProgram is the job every deployment runs in TestRoleEquivalence: a
// grouped shuffle over an aggregated one (so one exchange materializes
// inside another's map stage), collected, plus a partition-level action.
// Group order within a partition is a map walk, so the result is returned
// normalized: key → sorted values.
func rolesProgram(ctx *Context) (map[int64][]int64, []int, error) {
	var pairs []decompose.Pair[int64, int64]
	for i := int64(0); i < 600; i++ {
		pairs = append(pairs, KV(i%37, i))
	}
	red := ReduceByKey(Parallelize(ctx, pairs, 4), int64Ops(4), func(a, b int64) int64 { return a + b })
	byBucket := Map(red, func(kv decompose.Pair[int64, int64]) decompose.Pair[int64, int64] {
		return KV(kv.Key%5, kv.Value)
	})
	groups, err := Collect(GroupByKey(byBucket, int64Ops(4)))
	if err != nil {
		return nil, nil, err
	}
	out := make(map[int64][]int64)
	for _, g := range groups {
		out[g.Key] = slices.Sorted(slices.Values(g.Value))
	}
	squares, err := RunPartitionsCollect(ctx, 4, func(p int) (int, error) { return p * p, nil })
	return out, squares, err
}

// stageVerdicts is the ordered (stage key, verdict) list the deciding
// process recorded, read from its cluster view.
func stageVerdicts(ctx *Context) []string {
	ctx.drainLocalEvents()
	var out []string
	for _, e := range ctx.view.Events() {
		if e.Kind == obs.KindStageVerdict {
			out = append(out, fmt.Sprintf("%s=%d", e.Key, e.A))
		}
	}
	return out
}

// TestRoleEquivalence runs one job in-process, over TCP and across real
// executor processes: the answers are identical, and so is the ordered
// list of stage keys and verdicts — every role meets on the same keys, and
// the one runner records the same protocol whichever arm ran the tasks.
// The data plane did the same work too: the cluster counters that describe
// it are equal, whichever process kept them and however they reached the
// driver — spill included, which a reduce task books on the executor whose
// buffer it fetched, in whichever process it runs.
func TestRoleEquivalence(t *testing.T) {
	wantVerdicts := []string{
		"x/2/1/map=0", "x/2/1/reduce=0", // the aggregation, inside...
		"x/1/1/map=0", "x/1/1/reduce=0", // ...the grouping's map stage
		"action/1=0", "action/2=0",
	}
	var wantGroups map[int64][]int64
	var wantPlane [4]int64
	for i, kind := range []TransportKind{TransportInProcess, TransportTCP, TransportMultiproc} {
		t.Run(kind.String(), func(t *testing.T) {
			ctx := programCtx(t, "roles", kind)
			groups, squares, err := rolesProgram(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if wantGroups == nil {
				wantGroups = groups
			}
			if !reflect.DeepEqual(groups, wantGroups) {
				t.Errorf("groups differ from the first deployment's")
			}
			if want := []int{0, 1, 4, 9}; !slices.Equal(squares, want) {
				t.Errorf("RunPartitionsCollect = %v, want %v", squares, want)
			}
			if got := stageVerdicts(ctx); !slices.Equal(got, wantVerdicts) {
				t.Errorf("stage verdicts = %v, want %v", got, wantVerdicts)
			}
			ctx.SyncClusterMetrics()
			v := ctx.Counters()
			plane := [4]int64{v[obs.ShuffleRecords], v[obs.LocalShuffleFetches] + v[obs.RemoteShuffleFetches],
				v[obs.PagesServedZeroCopy], v[obs.ShuffleSpillBytes]}
			if i == 0 {
				wantPlane = plane
			}
			if plane != wantPlane || slices.Contains(plane[:], 0) {
				t.Errorf("records, fetches, zero-copy pages, spill bytes = %v, want the first deployment's %v, none zero", plane, wantPlane)
			}
			// Every executor's page manager allocated, and the driver's
			// /memory serves that row per executor, whichever process it
			// was counted in.
			w := httptest.NewRecorder()
			(&opsServer{c: ctx}).handleMemory(w, nil)
			var mem struct {
				Executors []map[string]int64 `json:"executors"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &mem); err != nil {
				t.Fatalf("/memory: %v", err)
			}
			execs := ctx.ExecCounters()
			if len(mem.Executors) != len(execs) {
				t.Fatalf("/memory has %d rows for %d executors", len(mem.Executors), len(execs))
			}
			for i, v := range execs {
				row := mem.Executors[i]
				// A warm test process cuts no fresh span: its pages are reused.
				if n := v[obs.PagesAllocated] + v[obs.PagesReused]; n <= 0 || row["pages_allocated"]+row["pages_reused"] != n {
					t.Errorf("executor %d: PagesAllocated + PagesReused = %d, /memory pages_allocated + pages_reused = %d; want the same, > 0",
						i, n, row["pages_allocated"]+row["pages_reused"])
				}
			}
		})
	}
}

// loseMapTaskZero is the chaos schedule of the unconverged-repair test:
// every fetch of map task 0's outputs is a definitive miss, so each lineage
// repair re-registers them only for the next attempt to lose them again.
func loseMapTaskZero() *chaos.Injector {
	inj := chaos.New(1)
	inj.LoseOutput = func(id transport.MapOutputID) bool { return id.MapTask == 0 }
	return inj
}

func unconvergedProgram(ctx *Context) error {
	_, err := recoveryProgram(ctx, nil)
	return err
}

// mirrorUnconverged is the executor side of the multiproc variant: the job
// fails here too, and the executor then publishes its leak ledgers where
// the test can read them.
func mirrorUnconverged(ctx *Context) error {
	if err := unconvergedProgram(ctx); err == nil {
		return errors.New("the mirrored job succeeded")
	}
	me := ctx.follower.ID()
	ledger := fmt.Sprintf("groups=%d bytes=%d pending=%d", ctx.execs[me].mem.Counters()[obs.PageGroupsLive],
		ctx.Counters()[obs.PageBytesInUse], ctx.Counters()[obs.ShuffleOutputsPinned])
	return os.WriteFile(filepath.Join(ctx.conf.SpillDir, fmt.Sprintf("ledger-%d", me)), []byte(ledger), 0o644)
}

// TestUnconvergedRepairFailsTheJob: when a map output is lost again after
// every repair, the reduce stage runs out of task retries and the job
// fails with the typed error naming the shuffle — where a whole-exchange
// retry round used to start — and it fails clean: no hang, no live page
// group on any executor, nothing left registered.
func TestUnconvergedRepairFailsTheJob(t *testing.T) {
	check := func(t *testing.T, ctx *Context) {
		done := make(chan error, 1)
		go func() { done <- unconvergedProgram(ctx) }()
		var err error
		select {
		case err = <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("job hung instead of failing")
		}
		var lost *LostOutputsError
		if !errors.As(err, &lost) {
			t.Fatalf("job error is not a *LostOutputsError: %v", err)
		}
		if lost.IDs[0].MapTask != 0 || !strings.Contains(err.Error(), "shuffle 1 ") {
			t.Errorf("error does not name shuffle 1 / map task 0: %v", err)
		}
		if n := ctx.Counters()[obs.LineageMapReruns]; n == 0 {
			t.Error("no lineage repair was attempted before giving up")
		}
	}
	t.Run("inprocess", func(t *testing.T) {
		ctx := chaosCtx(t, TransportInProcess, loseMapTaskZero(), nil)
		check(t, ctx)
		assertNoLeaks(t, ctx)
		assertNoSpillFiles(t, ctx.conf.SpillDir)
	})
	t.Run("multiproc", func(t *testing.T) {
		ctx := programCtx(t, "unconverged", TransportMultiproc)
		check(t, ctx)
		// The driver's directory holds nothing of the failed shuffle...
		if n := ctx.driver.d.DropShuffle(1); n != 0 {
			t.Errorf("%d outputs of the failed shuffle still in the driver's directory", n)
		}
		// ...and every executor settled its own ledgers.
		for exec := 0; exec < recoveryExecutors; exec++ {
			path := filepath.Join(ctx.conf.SpillDir, fmt.Sprintf("ledger-%d", exec))
			var ledger []byte
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
				if ledger, _ = os.ReadFile(path); len(ledger) > 0 {
					break
				}
			}
			if want := "groups=0 bytes=0 pending=0"; string(ledger) != want {
				t.Errorf("executor %d ledger = %q, want %q", exec, ledger, want)
			}
		}
	})
}
