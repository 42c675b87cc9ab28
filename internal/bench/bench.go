// Package bench regenerates every table and figure of the paper's
// evaluation (§6) at laptop scale. Each experiment has a runner that
// executes the relevant workloads in the compared modes and renders a
// paper-style report: the qualitative claim from the paper, then the
// measured rows. Absolute numbers differ from the paper (Go runtime,
// scaled datasets); the *shape* — who wins, by what rough factor, where
// the crossovers sit — is the reproduction target, recorded in
// EXPERIMENTS.md.
package bench

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"deca/internal/chaos"
	"deca/internal/engine"
	"deca/internal/gcstats"
	"deca/internal/obs"
	"deca/internal/workloads"
)

// Options tunes experiment size and the cluster every experiment runs on.
type Options struct {
	// Scale multiplies dataset sizes; 1.0 is the default laptop scale
	// (every experiment in seconds), tests use ~0.05.
	Scale float64
	// Base is the workload config every experiment's engine starts from;
	// deca-bench binds its cluster flags straight into it: NumExecutors
	// (0/1 = single executor; deploy runs at least 2, faults at least 4),
	// Parallelism (0 = 4), SpillDir, TransportKind (the deployment) and
	// ExecutorCmd (the deploy experiment sweeps deployments itself and only
	// needs ExecutorCmd), MaxTaskRetries, FetchFailureRate (under multiproc it
	// travels in the plan, so the faults fire inside the executor
	// processes), OpsAddr and TraceOut (runs with several engines overwrite
	// the file, so it holds the last one). Mode and Seed are each
	// experiment's own; Partitions stays the workloads default, one per
	// task slot of the cluster.
	Base workloads.Config
	// ChaosSeed seeds the deterministic fault injector (deca-bench
	// -chaos-seed); 0 selects seed 1 when FailureRate asks for chaos.
	ChaosSeed int64
	// FailureRate injects a per-attempt task failure probability into
	// every experiment's engine (deca-bench -failure-rate). The faults
	// experiment sweeps its own rates regardless.
	FailureRate float64
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Base.Parallelism <= 0 {
		o.Base.Parallelism = 4
	}
	if o.Base.NumExecutors <= 0 {
		o.Base.NumExecutors = 1
	}
	return o
}

// scaled multiplies n by the scale factor with a floor of 1.
func (o Options) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 1 {
		return 1
	}
	return v
}

// Report is one experiment's rendered result.
type Report struct {
	ID         string   `json:"id"`
	Title      string   `json:"title"`
	PaperClaim string   `json:"paper_claim"`
	Rows       []string `json:"rows"`
	// Metrics are the machine-readable counterpart of Rows: one entry
	// per measured run, written to BENCH_<id>.json by deca-bench -json.
	Metrics []Metric `json:"metrics"`
}

// Metric is one measured run in machine-readable form. Checksum is the
// answer digest, so two bench runs can be diffed for result drift, not
// just speed. Counters is a workload run's counter vector (its nonzero
// rows by name), and MinorFaults and SysMS the kernel's charge for it
// (gcstats.Delta: first touches of pages, system CPU; reported, never
// gated); a hand-built row has none, and Bytes is the byte figure some
// measure instead (wire's frame sizes, table6's cached sizes). PeakRSSMB
// is the process's resident high-water mark (VmHWM; 0 where the kernel
// does not say) when the row was recorded: a mark of the whole deca-bench
// process so far, not of the one run, so it only rises down a report —
// compare it row for row between two reports of an experiment.
type Metric struct {
	Name        string           `json:"name"`
	Mode        string           `json:"mode,omitempty"`
	WallMS      float64          `json:"wall_ms"`
	GCSec       float64          `json:"gc_sec"`
	Bytes       int64            `json:"bytes,omitempty"`
	Checksum    float64          `json:"checksum"`
	PeakRSSMB   float64          `json:"peak_rss_mb"`
	MinorFaults uint64           `json:"minor_faults,omitempty"`
	SysMS       float64          `json:"sys_ms,omitempty"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// Key names a row as deca-benchdiff matches it: a comparison records one
// row per mode under one name (fig9b: "lr-n500000" for Spark, SparkSer and
// Deca).
func (m Metric) Key() string {
	if m.Mode == "" {
		return m.Name
	}
	return m.Name + " [" + m.Mode + "]"
}

// ChecksumClose is the same-answer rule of a series and of deca-benchdiff:
// float checksums agree to 1e-6 relative, because cross-partition folds
// are scheduler-order sensitive.
func ChecksumClose(got, want float64) bool {
	return math.Abs(got-want) <= 1e-6*math.Abs(want)
}

func (r *Report) add(format string, args ...any) {
	r.Rows = append(r.Rows, fmt.Sprintf(format, args...))
}

// record captures a workload result as a metric row alongside whatever
// rendered Rows the experiment adds.
func (r *Report) record(name string, res workloads.Result) {
	r.metric(Metric{
		Name:        name,
		Mode:        res.Mode.String(),
		WallMS:      float64(res.Wall) / float64(time.Millisecond),
		GCSec:       res.GC.GCCPUSeconds,
		MinorFaults: res.GC.MinorFaults,
		SysMS:       float64(res.GC.SysCPU) / float64(time.Millisecond),
		Counters:    res.Counters.Named(),
		Checksum:    res.Checksum,
	})
}

// metric appends a hand-built metric for experiments that measure
// something other than a workloads.Result (throughputs, sweeps), stamped
// with the process's peak RSS so far.
func (r *Report) metric(m Metric) {
	m.PeakRSSMB = float64(gcstats.ReadProcMem().PeakRSS) / (1 << 20)
	r.Metrics = append(r.Metrics, m)
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	for _, row := range r.Rows {
		b.WriteString("  ")
		b.WriteString(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is one report: its id and title, declared here once, and the
// runner that measures its rows.
type Experiment struct {
	ID, Title string
	run       func(Options, *Report) error
}

// Run runs the experiment and returns its report.
func (e Experiment) Run(o Options) (*Report, error) {
	rep := &Report{ID: e.ID, Title: e.Title}
	if err := e.run(o.withDefaults(), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// All returns every experiment in paper order. The titles are the ones
// the committed baselines carry.
func All() []Experiment {
	return []Experiment{
		{"fig8a", "WC object-lifetime timeline (sampled)", Fig8aWCLifetime},
		{"fig8b", "WC execution time vs data size and key cardinality", Fig8bWordCount},
		{"fig9a", "LR cached-object lifetime timeline (sampled)", Fig9aLRLifetime},
		{"fig9b", "LR exec time + cache size across dataset sizes (10-dim)", Fig9bLR},
		{"fig9c", "KMeans exec time + cache size across dataset sizes (10-dim)", Fig9cKMeans},
		{"fig9d", "High-dimensional (4096-dim) LR and KMeans", Fig9dHighDim},
		{"fig10a", "PageRank on power-law graphs", Fig10aPageRank},
		{"fig10b", "ConnectedComponents on power-law graphs", Fig10bCC},
		{"table3", "GC time and Deca's reduction per application", Table3GCReduction},
		{"table4", "GC tuning vs Deca", Table4GCTuning},
		{"table5", "Microbenchmark: heap-size regimes and per-object ser/deser", Table5Micro},
		{"table6", "SQL: filtering and group-by over rows / columnar / Deca pages", Table6SQL},
		{"deploy", "Deployment: in-process vs TCP frames vs real executor processes", DeployComparison},
		{"faults", "Fault tolerance: wall time and recomputed attempts vs injected failure rate", FaultTolerance},
		{"wire", "Wire format: container encode/decode throughput, Deca vs Object", WireThroughput},
		{"ablation-pagesize", "Page-size sweep for the LR cache", AblationPageSize},
		{"ablation-value-reuse", "SFST in-place value reuse vs boxed combine values", AblationValueReuse},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// fmtDur renders a duration compactly.
func fmtDur(d time.Duration) string { return d.Round(time.Millisecond).String() }

// speedup formats a/b as "N.Nx".
func speedup(base, other time.Duration) string {
	if other <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(base)/float64(other))
}

// mb renders bytes as MB with one decimal.
func mb(b int64) string { return fmt.Sprintf("%.1fMB", float64(b)/(1<<20)) }

// baseCfg builds a workload config for the given mode from Base, wiring in
// the global chaos flags: every engine the experiment builds gets its own
// injector (fresh counters) with the same seed, so runs stay repeatable.
func (o Options) baseCfg(mode engine.Mode) workloads.Config {
	cfg := o.Base
	cfg.Mode = mode
	cfg.Seed = 1
	if cfg.TransportKind == engine.TransportMultiproc && cfg.NumExecutors < 2 {
		// A single-process "cluster" of one child defeats the point;
		// multiproc runs always get at least two executor processes.
		cfg.NumExecutors = 2
	}
	if o.FailureRate > 0 {
		inj := chaos.New(o.chaosSeed())
		inj.TaskFailureRate = o.FailureRate
		cfg.Chaos = inj
	}
	return cfg
}

// chaosSeed resolves the injector seed (default 1).
func (o Options) chaosSeed() int64 { return cmp.Or(o.ChaosSeed, 1) }

// job is a workloads entry point bound to its parameters: what a
// comparison runs under each mode or configuration.
type job func(workloads.Config) (workloads.Result, error)

// The jobs, one constructor a workload. (A generic binder would be one
// function, but its instances make the linker treat workloads.Result as
// reflected and link Result.String into deca-bench.)
func wcJob(p workloads.WCParams) job {
	return func(cfg workloads.Config) (workloads.Result, error) { return workloads.WordCount(cfg, p) }
}

func lrJob(p workloads.LRParams) job {
	return func(cfg workloads.Config) (workloads.Result, error) { return workloads.LogisticRegression(cfg, p) }
}

func kmeansJob(p workloads.KMeansParams) job {
	return func(cfg workloads.Config) (workloads.Result, error) { return workloads.KMeans(cfg, p) }
}

func prJob(p workloads.GraphParams) job {
	return func(cfg workloads.Config) (workloads.Result, error) { return workloads.PageRank(cfg, p) }
}

func ccJob(p workloads.GraphParams) job {
	return func(cfg workloads.Config) (workloads.Result, error) { return workloads.ConnectedComponents(cfg, p) }
}

// app is a job under the name its rows carry.
type app struct {
	name string
	run  job
}

var (
	allModes  = []engine.Mode{engine.ModeSpark, engine.ModeSparkSer, engine.ModeDeca}
	sparkDeca = []engine.Mode{engine.ModeSpark, engine.ModeDeca}
)

// sweep runs j once in each of modes, on baseCfg(mode) as tune (if not
// nil) changes it, and records each run under name in mode order. A
// failed run is left out of the report and the results; once every mode
// ran, the failures are returned, each named by its row and mode.
func (o Options) sweep(rep *Report, name string, modes []engine.Mode, tune func(*workloads.Config), j job) ([]workloads.Result, error) {
	var runs []workloads.Result
	var errs []error
	for _, mode := range modes {
		cfg := o.baseCfg(mode)
		if tune != nil {
			tune(&cfg)
		}
		res, err := j(cfg)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s [%v]: %w", name, mode, err))
			continue
		}
		rep.record(name, res)
		runs = append(runs, res)
	}
	return runs, errors.Join(errs...)
}

// storage is a sweep's tune that gives the cache frac of the memory
// budget, and sets the budget to the given bytes unless they are 0.
func storage(frac float64, budget int64) func(*workloads.Config) {
	return func(cfg *workloads.Config) {
		cfg.StorageFraction = frac
		if budget > 0 {
			cfg.MemoryBudget = budget
		}
	}
}

// walls renders a sweep's wall time per mode and the first mode's over
// the last's.
func walls(runs []workloads.Result) string {
	var b strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&b, "%v=%-9s ", r.Mode, fmtDur(r.Wall))
	}
	fmt.Fprintf(&b, "speedup=%s", speedup(runs[0].Wall, runs[len(runs)-1].Wall))
	return b.String()
}

// sweepRows is a sweep that renders one row per run it recorded.
func (o Options) sweepRows(rep *Report, name string, modes []engine.Mode, tune func(*workloads.Config), j job) error {
	runs, err := o.sweep(rep, name, modes, tune, j)
	for _, r := range runs {
		rep.add("  %-24s exec=%-9s gc=%6.3fs swap=%s", name+" ["+r.Mode.String()+"]",
			fmtDur(r.Wall), r.GC.GCCPUSeconds, mb(r.Counters[obs.CacheSwapOutBytes]))
	}
	return err
}

// series runs one job under several configurations and holds every run
// to the first run's answer: a deployment, a transport or a fault moves
// bytes and processes around, never answers.
type series struct {
	rep  *Report
	job  job
	runs int
	want float64
}

// run runs the series' job on cfg, fails unless its checksum is the first
// run's within ChecksumClose, and records and renders it under name.
func (s *series) run(name string, cfg workloads.Config) error {
	res, err := s.job(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if s.runs++; s.runs == 1 {
		s.want = res.Checksum
	} else if !ChecksumClose(res.Checksum, s.want) {
		return fmt.Errorf("%s: checksum %g, but the series' first run's is %g", name, res.Checksum, s.want)
	}
	s.rep.record(name, res)
	c := res.Counters
	s.rep.add("%-22s exec=%-9s retries=%-4d failed=%-4d blacklisted=%d remote-fetches=%-5d remote=%-9s checksum=%.6g",
		name, fmtDur(res.Wall), c[obs.TaskRetries], c[obs.TasksFailed], c[obs.ExecutorsBlacklisted],
		c[obs.RemoteShuffleFetches], mb(c[obs.RemoteShuffleBytes]), res.Checksum)
	return nil
}

// cluster is the Deca config of a cluster of at least n executors.
func (o Options) cluster(n int) workloads.Config {
	cfg := o.baseCfg(engine.ModeDeca)
	cfg.NumExecutors = max(o.Base.NumExecutors, n)
	return cfg
}

// clusterApps are the jobs deploy and faults move across deployments and
// failure rates.
func (o Options) clusterApps() (wc, lr, pr app) {
	wc = app{"WC", wcJob(workloads.WCParams{DistinctKeys: o.scaled(100_000), WordsPerLine: 10, Lines: o.scaled(100_000)})}
	lr = app{"LR", lrJob(workloads.LRParams{Points: o.scaled(200_000), Dim: 10, Iterations: 5})}
	pr = app{"PR", prJob(workloads.GraphParams{Vertices: int64(o.scaled(20_000)), Edges: o.scaled(100_000), Skew: 1.2, Iterations: 3})}
	return wc, lr, pr
}

// noExecutorBin is the row of an experiment whose multiproc rows need a
// deca-executor binary it was not given.
const noExecutorBin = "(multiproc rows skipped: no deca-executor binary — run deca-bench -transport multiproc, or pass -executor-bin)"
