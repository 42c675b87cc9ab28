package workloads

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"testing"
	"time"

	"deca/internal/chaos"
	"deca/internal/engine"
	"deca/internal/obs"
)

// TestMain doubles as the deca-executor binary for multiproc tests: the
// driver spawns `env DECA_EXECUTOR_HELPER=1 <test-binary> -driver ...`,
// and the re-exec'd test process runs the real executor main instead of
// the test suite — so the child is the same race-instrumented build as
// the driver.
func TestMain(m *testing.M) {
	if os.Getenv("DECA_EXECUTOR_HELPER") == "1" {
		os.Exit(ExecutorMain(os.Args[1:], os.Stderr))
	}
	os.Exit(m.Run())
}

// helperExecutorCmd builds the ExecutorCmd argv that re-execs this test
// binary in executor mode.
func helperExecutorCmd(t *testing.T) []string {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	return []string{"env", "DECA_EXECUTOR_HELPER=1", self}
}

// multiprocDeadline bounds one multiproc test. These tests finish in
// about a second; one that waits on a process that will never answer
// would otherwise sit until the package's global timeout. A hung test
// cannot be failed from outside its goroutine, so past the deadline the
// test binary goes down the way testing's own timeout takes it down: a
// panic naming the test, with every goroutine's stack.
const multiprocDeadline = 60 * time.Second

func withDeadline(t *testing.T) {
	t.Helper()
	timer := time.AfterFunc(multiprocDeadline, func() {
		debug.SetTraceback("all")
		panic(fmt.Sprintf("%s still running after %v", t.Name(), multiprocDeadline))
	})
	t.Cleanup(func() { timer.Stop() })
}

// deployedCfg is the config the multiproc tests run under in deployment
// kind; a multiproc one spawns this test binary as its executors.
func deployedCfg(t *testing.T, execs int, kind engine.TransportKind) Config {
	cfg := Config{
		Mode:          engine.ModeDeca,
		NumExecutors:  execs,
		Parallelism:   2,
		Partitions:    2 * execs,
		SpillDir:      t.TempDir(),
		TransportKind: kind,
		Seed:          7,
	}
	if kind == engine.TransportMultiproc {
		cfg.ExecutorCmd = helperExecutorCmd(t)
	}
	return cfg
}

// TestMultiprocEquivalence: WC, LR and PR across two real deca-executor
// processes produce the same answers as the in-process cluster — WC
// exactly (its float folds are integer-valued), LR/PR to float
// tolerance.
func TestMultiprocEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns executor processes")
	}
	withDeadline(t)
	wcParams := WCParams{DistinctKeys: 2_000, WordsPerLine: 8, Lines: 3_000}
	lrParams := LRParams{Points: 4_000, Dim: 8, Iterations: 3}
	prParams := GraphParams{Vertices: 1_000, Edges: 6_000, Skew: 1.1, Iterations: 3}

	type variant struct {
		name  string
		run   func(cfg Config) (Result, error)
		exact bool
	}
	variants := []variant{
		{"WC", func(cfg Config) (Result, error) { return WordCount(cfg, wcParams) }, true},
		{"LR", func(cfg Config) (Result, error) { return LogisticRegression(cfg, lrParams) }, false},
		{"PR", func(cfg Config) (Result, error) { return PageRank(cfg, prParams) }, false},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			local, err := v.run(deployedCfg(t, 2, engine.TransportInProcess))
			if err != nil {
				t.Fatalf("inprocess: %v", err)
			}
			multi, err := v.run(deployedCfg(t, 2, engine.TransportMultiproc))
			if err != nil {
				t.Fatalf("multiproc: %v", err)
			}
			if v.exact {
				if multi.Checksum != local.Checksum {
					t.Errorf("checksum: multiproc %v != inprocess %v", multi.Checksum, local.Checksum)
				}
			} else if math.Abs(multi.Checksum-local.Checksum) > 1e-6*math.Abs(local.Checksum) {
				t.Errorf("checksum: multiproc %v !~ inprocess %v", multi.Checksum, local.Checksum)
			}
			// The executors' rows sync back to the driver's record.
			if v.name != "LR" && multi.Counters[obs.PagesServedZeroCopy] == 0 {
				t.Error("multiproc run synced no zero-copy serve pages to the driver")
			}
			if multi.Counters[obs.PagesAllocated] == 0 {
				t.Error("multiproc run's record holds no pages the executors allocated")
			}
		})
	}
}

// logRecovery prints how the run recovered: task retries and lineage map
// re-runs are the only two mechanisms there are.
func logRecovery(t *testing.T, res Result) {
	t.Helper()
	t.Logf("recovery: retries=%d failed=%d lineage=%d blacklisted=%d", res.Counters[obs.TaskRetries],
		res.Counters[obs.TasksFailed], res.Counters[obs.LineageMapReruns], res.Counters[obs.ExecutorsBlacklisted])
}

// TestMultiprocSIGKILL is the multiproc analogue of TestExecutorKill:
// the chaos harness kills executor 1 after two attempts started on it —
// which here SIGKILLs the real deca-executor process mid-job, taking its
// registered map outputs and reduce outputs with it. The driver must
// blacklist it (heartbeats stop, the control connection drops), re-run
// whatever was lost, and still produce byte-identical WC output.
func TestMultiprocSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns executor processes")
	}
	withDeadline(t)
	params := WCParams{DistinctKeys: 3_000, WordsPerLine: 8, Lines: 5_000}

	clean, err := WordCount(deployedCfg(t, 3, engine.TransportInProcess), params)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	cfg := deployedCfg(t, 3, engine.TransportMultiproc)
	inj := chaos.New(11)
	inj.KillExecutor = 1
	inj.KillAfter = 2
	cfg.Chaos = inj
	cfg.MaxTaskRetries = 5
	cfg.MaxExecutorFailures = 2
	res, err := WordCount(cfg, params)
	if err != nil {
		t.Fatalf("multiproc with SIGKILL: %v", err)
	}
	logRecovery(t, res)
	if res.Checksum != clean.Checksum {
		t.Errorf("checksum after SIGKILL = %v, want %v", res.Checksum, clean.Checksum)
	}
	if res.Counters[obs.ExecutorsBlacklisted] == 0 {
		t.Errorf("no executor was blacklisted after a real SIGKILL")
	}
}

// TestMultiprocSIGKILLPageRank kills an executor process mid-way through
// an iterative job, at two points. Early ("adjacency"), the dead process
// takes its adjacency cache blocks with it, and the rebuilt blocks need the
// *released* grouped shuffle — lineage re-materialization (NeedShuffle on a
// fresh epoch) across real processes. Late ("iteration"), it takes its
// partitions of an iteration's sums, which the next iteration probes where
// they lie: the retry re-materializes them from the iteration before,
// released too, and so on back to the adjacency shuffle — the lineage chain
// a lost iteration walks.
func TestMultiprocSIGKILLPageRank(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns executor processes")
	}
	params := GraphParams{Vertices: 800, Edges: 5_000, Skew: 1.1, Iterations: 3}

	clean, err := PageRank(deployedCfg(t, 3, engine.TransportInProcess), params)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, c := range []struct {
		name      string
		killAfter int // attempts started on the executor before it dies
	}{{"adjacency", 8}, {"iteration", 22}} {
		t.Run(c.name, func(t *testing.T) {
			withDeadline(t)
			cfg := deployedCfg(t, 3, engine.TransportMultiproc)
			inj := chaos.New(13)
			inj.KillExecutor = 1
			inj.KillAfter = c.killAfter
			cfg.Chaos = inj
			cfg.MaxTaskRetries = 5
			cfg.MaxExecutorFailures = 2
			res, err := PageRank(cfg, params)
			if err != nil {
				t.Fatalf("multiproc PR with SIGKILL: %v", err)
			}
			logRecovery(t, res)
			if math.Abs(res.Checksum-clean.Checksum) > 1e-6*math.Abs(clean.Checksum) {
				t.Errorf("checksum after SIGKILL = %v, want ~%v", res.Checksum, clean.Checksum)
			}
			if res.Counters[obs.ExecutorsBlacklisted] == 0 {
				t.Errorf("no executor was blacklisted: the chaos kill never fired")
			}
		})
	}
}

// TestMultiprocReduceKillLineageRepair is the acceptance scenario across
// real processes: an executor process is SIGKILLed on a reduce attempt —
// after its map attempts registered their outputs — so the surviving
// reduce attempts observe definitive misses for exactly that process's
// map outputs. The driver must repair by lineage (re-running only the
// lost map tasks, visible as LineageMapReruns), blacklist the dead
// process, and still produce byte-identical WC output.
func TestMultiprocReduceKillLineageRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns executor processes")
	}
	withDeadline(t)
	params := WCParams{DistinctKeys: 3_000, WordsPerLine: 8, Lines: 5_000}

	clean, err := WordCount(deployedCfg(t, 3, engine.TransportInProcess), params)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// 3 executors, 6 partitions: executor 1 draws 2 action attempts, then
	// 2 map attempts, then 2 reduce attempts. KillAfter=5 lets the first
	// five start and fires on its second reduce attempt — after both its
	// map tasks registered outputs, so the loss is precisely their
	// registrations.
	cfg := deployedCfg(t, 3, engine.TransportMultiproc)
	inj := chaos.New(17)
	inj.KillExecutor = 1
	inj.KillAfter = 5
	cfg.Chaos = inj
	cfg.MaxTaskRetries = 5
	cfg.MaxExecutorFailures = 2
	res, err := WordCount(cfg, params)
	if err != nil {
		t.Fatalf("multiproc with reduce-stage SIGKILL: %v", err)
	}
	logRecovery(t, res)
	if res.Checksum != clean.Checksum {
		t.Errorf("checksum after reduce-stage SIGKILL = %v, want %v", res.Checksum, clean.Checksum)
	}
	if res.Counters[obs.ExecutorsBlacklisted] == 0 {
		t.Fatalf("the SIGKILLed executor was never blacklisted")
	}
	if n := res.Counters[obs.LineageMapReruns]; n == 0 {
		t.Errorf("no lineage map re-runs: recovery fell back to a whole-exchange re-run")
	} else if n > 2 {
		t.Errorf("LineageMapReruns = %d, want <= 2 (only the dead executor's map tasks)", n)
	}
}

// TestSyncClusterMetricsIdempotent: the heartbeat answering a sync
// replaces the driver's copy of the executor's vector, so pulling the
// cluster's counters twice — duplicate delivery, or an ops scrape racing
// the end-of-run sync — leaves the cluster figures unchanged rather than
// doubled. The job runs against a hand-held context so the cluster is
// still up for the second sync.
func TestSyncClusterMetricsIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns executor processes")
	}
	withDeadline(t)
	params := WCParams{DistinctKeys: 2_000, WordsPerLine: 8, Lines: 3_000}
	cfg := deployedCfg(t, 2, engine.TransportMultiproc).withDefaults()
	ctx := cfg.newEngine()
	defer ctx.Close()
	raw, err := json.Marshal(PlanSpec{Workload: "wc", Config: cfg, WC: params})
	if err != nil {
		t.Fatal(err)
	}
	ctx.RegisterPlan(raw)
	if _, err := wcBody(cfg, params)(ctx); err != nil {
		t.Fatal(err)
	}

	ctx.SyncClusterMetrics()
	first := ctx.Counters()
	if first[obs.ShuffleRecords] == 0 {
		t.Fatal("no shuffle records after a multiproc WC — sync pulled nothing")
	}
	ctx.SyncClusterMetrics()
	if second := ctx.Counters(); second != first {
		t.Errorf("duplicate sync changed counters: %v -> %v", first, second)
	}
}

// TestMultiprocFetchFaultChaos: Config.FetchFailureRate travels in the
// plan, so each *executor process* builds its own deterministic injector
// and fails fetches inside the data plane where they actually happen;
// per-fetch retries (and task retries above them) must still converge on
// the byte-identical answer.
func TestMultiprocFetchFaultChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns executor processes")
	}
	withDeadline(t)
	params := WCParams{DistinctKeys: 2_000, WordsPerLine: 8, Lines: 3_000}

	clean, err := WordCount(deployedCfg(t, 2, engine.TransportInProcess), params)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	cfg := deployedCfg(t, 2, engine.TransportMultiproc)
	cfg.FetchFailureRate = 0.25
	cfg.MaxTaskRetries = 5
	res, err := WordCount(cfg, params)
	if err != nil {
		t.Fatalf("multiproc with executor-side fetch faults: %v", err)
	}
	logRecovery(t, res)
	if res.Checksum != clean.Checksum {
		t.Errorf("checksum under fetch faults = %v, want %v", res.Checksum, clean.Checksum)
	}
}
