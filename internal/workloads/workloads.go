// Package workloads implements the paper's five benchmark applications
// (Table 1) on the engine, each runnable in the three execution modes the
// evaluation compares:
//
//	WordCount (WC)           two stages, aggregated shuffle, no cache
//	LogisticRegression (LR)  single stage, static cache, no shuffle
//	KMeans                   two stages, static cache, aggregated shuffle
//	PageRank (PR)            multi-stage, static cache, grouped+aggregated
//	ConnectedComponents (CC) like PR with min-label propagation
//
// Every workload returns a Result with the wall time, GC cost, the run's
// counter vector and an output checksum, so tests can assert that all three
// modes compute identical answers and benches can print paper-style rows.
package workloads

import (
	"encoding/json"
	"fmt"
	"time"

	"deca/internal/chaos"
	"deca/internal/ctl"
	"deca/internal/engine"
	"deca/internal/gcstats"
	"deca/internal/obs"
)

// Config sizes one workload run. It is also the multiproc plan's wire
// form (PlanSpec JSON-encodes it as is), so a field that only means
// something on the driver is tagged `json:"-"` and every other field
// reaches the executor processes without being copied by hand.
type Config struct {
	Mode engine.Mode
	// NumExecutors shards the engine into a local cluster (0/1 = the
	// single-executor engine); workload code is placement-oblivious.
	NumExecutors int
	Parallelism  int
	Partitions   int
	// MemoryBudget bounds cache+shuffle bytes (0 = unlimited); the
	// cache/shuffle split follows StorageFraction as in Table 4.
	MemoryBudget    int64
	StorageFraction float64
	PageSize        int
	SpillDir        string
	// ShuffleSpillThreshold forces shuffle spilling at a per-buffer byte
	// bound (<0 disables; 0 derives from budget).
	ShuffleSpillThreshold int64
	// TransportKind selects the deployment (default in-process executors
	// and registry; engine.TransportTCP moves wire frames over loopback
	// sockets; engine.TransportMultiproc runs each executor as a spawned
	// deca-executor process, ExecutorCmd its argv prefix, required then).
	TransportKind engine.TransportKind `json:"-"`
	ExecutorCmd   []string             `json:"-"`
	// MaxTaskRetries / MaxExecutorFailures tune the fault-tolerant
	// scheduler (0 = engine defaults; see engine.Config).
	MaxTaskRetries      int
	MaxExecutorFailures int
	// Chaos injects deterministic faults (nil = none).
	Chaos *chaos.Injector `json:"-"`
	// FetchFailureRate injects transient data-plane fetch faults *inside
	// the executor processes* of a multiproc run (each executor builds a
	// chaos injector from the plan). In-process deployments just set it
	// on the driver injector.
	FetchFailureRate float64
	Seed             int64
	// Follower marks this process as one executor mirroring the plan —
	// set by RunPlan, never by applications.
	Follower *ctl.Follower `json:"-"`
	// OpsAddr serves the driver's live HTTP ops plane (/metrics, /stages,
	// /executors, /memory, /trace) on this address for the run's
	// duration. Driver-side only — it is never mirrored into executor
	// processes.
	OpsAddr string `json:"-"`
	// TraceOut writes the run's event spine as Chrome trace-event JSON
	// to this file when the engine closes (driver-side only).
	TraceOut string `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	if c.Partitions <= 0 {
		// The engine's default: one partition per task slot of the cluster.
		c.Partitions = c.Parallelism * max(c.NumExecutors, 1)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// chaosInjector resolves the injector the engine runs under: the
// explicit one, or one built from FetchFailureRate — the knob a
// multiproc plan can carry to executor processes, where data-plane
// faults actually happen.
func (c Config) chaosInjector() *chaos.Injector {
	if c.Chaos != nil {
		if c.FetchFailureRate > 0 && c.Chaos.FetchFailureRate == 0 {
			c.Chaos.FetchFailureRate = c.FetchFailureRate
		}
		return c.Chaos
	}
	if c.FetchFailureRate <= 0 {
		return nil
	}
	inj := chaos.New(c.Seed)
	inj.FetchFailureRate = c.FetchFailureRate
	return inj
}

func (c Config) newEngine() *engine.Context {
	return engine.New(engine.Config{
		NumExecutors:          c.NumExecutors,
		Parallelism:           c.Parallelism,
		NumPartitions:         c.Partitions,
		Mode:                  c.Mode,
		PageSize:              c.PageSize,
		MemoryBudget:          c.MemoryBudget,
		StorageFraction:       c.StorageFraction,
		SpillDir:              c.SpillDir,
		ShuffleSpillThreshold: c.ShuffleSpillThreshold,
		TransportKind:         c.TransportKind,
		MaxTaskRetries:        c.MaxTaskRetries,
		MaxExecutorFailures:   c.MaxExecutorFailures,
		Chaos:                 c.chaosInjector(),
		ExecutorCmd:           c.ExecutorCmd,
		CtlFollower:           c.Follower,
		OpsAddr:               c.OpsAddr,
		TraceOut:              c.TraceOut,
	})
}

// Result is one workload execution's outcome.
type Result struct {
	Name     string
	Mode     engine.Mode
	Wall     time.Duration
	GC       gcstats.Delta
	Checksum float64
	// Counters is the run's counter vector, read once the job returned:
	// the record every report reads its counts from.
	Counters obs.CounterValues

	// Ten of Counters' figures by name, copied in run for their one
	// reader, bench/e2e's measure.go; the benchmark change that re-points
	// it at Counters (ROADMAP 2b) deletes them.
	CacheBytes, SwapBytes, ShuffleSpillBytes                    int64
	RemoteShuffleFetches, RemoteShuffleBytes                    int64
	PagesServedZeroCopy, BytesSendfile, ServeUserspaceCopyBytes int64
	TasksFailed, TaskRetries                                    int64
}

func (r Result) String() string {
	return fmt.Sprintf("%s[%s]: exec=%v gc=%.3fs (%.1f%%) cache=%.1fMB spill=%.1fMB checksum=%.6g",
		r.Name, r.Mode, r.Wall.Round(time.Millisecond),
		r.GC.GCCPUSeconds, 100*r.GC.GCRatio(),
		float64(r.Counters.CacheBytes())/(1<<20), float64(r.Counters[obs.CacheSwapOutBytes]+r.Counters[obs.ShuffleSpillBytes])/(1<<20),
		r.Checksum)
}

// run executes body under GC instrumentation. body returns the checksum.
// In a follower process the body is the mirrored program: it executes
// under driver dispatch and the result is the driver's business.
func run(name string, cfg Config, spec PlanSpec, body func(ctx *engine.Context) (float64, error)) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Follower != nil {
		return runFollower(name, cfg, body)
	}
	ctx := cfg.newEngine()
	defer ctx.Close()
	if cfg.TransportKind == engine.TransportMultiproc {
		spec.Config = cfg
		raw, err := json.Marshal(spec)
		if err != nil {
			return Result{}, fmt.Errorf("%s: encoding plan: %w", name, err)
		}
		ctx.RegisterPlan(raw)
	}

	gcstats.ForceGC()
	before := gcstats.Read()
	start := time.Now()
	checksum, err := body(ctx)
	wall := time.Since(start)
	delta := gcstats.Read().Sub(before)
	if err != nil {
		return Result{}, fmt.Errorf("%s[%v]: %w", name, cfg.Mode, err)
	}
	// Multiproc: have the executor processes report their final counters
	// before the cluster vector is read (a no-op otherwise).
	ctx.SyncClusterMetrics()
	v := ctx.Counters()
	return Result{
		Name: name, Mode: cfg.Mode, Wall: wall, GC: delta, Checksum: checksum, Counters: v,
		CacheBytes: v.CacheBytes(), SwapBytes: v[obs.CacheSwapOutBytes], ShuffleSpillBytes: v[obs.ShuffleSpillBytes],
		RemoteShuffleFetches: v[obs.RemoteShuffleFetches], RemoteShuffleBytes: v[obs.RemoteShuffleBytes],
		PagesServedZeroCopy: v[obs.PagesServedZeroCopy], BytesSendfile: v[obs.BytesSendfile],
		ServeUserspaceCopyBytes: v[obs.ServeUserspaceCopyBytes], TasksFailed: v[obs.TasksFailed], TaskRetries: v[obs.TaskRetries],
	}, nil
}

// runFollower runs the mirrored program inside one executor process: the
// body's stages execute only when the driver dispatches their tasks, and
// its action results are the driver's broadcasts. The context stays up
// until the driver shuts the fleet down — the data plane and counter
// snapshots must outlive the program itself.
func runFollower(name string, cfg Config, body func(ctx *engine.Context) (float64, error)) (Result, error) {
	ctx := cfg.newEngine()
	_, err := body(ctx)
	if err != nil {
		// The mirrored program diverged (or followed a driver abort). Do
		// not linger heartbeating with no bodies to register — every task
		// the driver placed here would burn the full stage-body timeout.
		// Dropping the control connection makes the driver declare this
		// executor dead immediately and blacklist it, so the job either
		// fails fast with the root cause or recovers on the survivors.
		cfg.Follower.Close()
		ctx.Close()
		return Result{}, fmt.Errorf("%s[%v] (mirror): %w", name, cfg.Mode, err)
	}
	<-cfg.Follower.ShutdownCh()
	ctx.Close()
	return Result{Name: name, Mode: cfg.Mode}, nil
}
