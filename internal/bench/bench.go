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
	"fmt"
	"strings"
	"time"

	"deca/internal/chaos"
	"deca/internal/engine"
	"deca/internal/gcstats"
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
	// Parallelism (0 = 4), SpillDir, TransportKind, Deploy and ExecutorCmd
	// (the deploy experiment sweeps deployments itself and only needs
	// ExecutorCmd), MaxTaskRetries, FetchFailureRate (under multiproc it
	// travels in the plan, so the faults fire inside the executor
	// processes), OpsAddr and TraceOut (runs with several engines overwrite
	// the file, so it holds the last one). Mode, Partitions and Seed are
	// each experiment's own.
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
// rows by name); a hand-built row has none, and Bytes is the byte figure
// some measure instead (wire's frame sizes, table6's cached sizes).
// PeakRSSMB is the process's resident high-water mark (VmHWM; 0 where the
// kernel does not say) when the row was recorded: a mark of the whole
// deca-bench process so far, not of the one run, so it only rises down a
// report — compare it row for row between two reports of an experiment.
type Metric struct {
	Name      string           `json:"name"`
	Mode      string           `json:"mode,omitempty"`
	WallMS    float64          `json:"wall_ms"`
	GCSec     float64          `json:"gc_sec"`
	Bytes     int64            `json:"bytes,omitempty"`
	Checksum  float64          `json:"checksum"`
	PeakRSSMB float64          `json:"peak_rss_mb"`
	Counters  map[string]int64 `json:"counters,omitempty"`
}

func (r *Report) add(format string, args ...any) {
	r.Rows = append(r.Rows, fmt.Sprintf(format, args...))
}

// record captures a workload result as a metric row alongside whatever
// rendered Rows the experiment adds.
func (r *Report) record(name string, res workloads.Result) {
	r.metric(Metric{
		Name:     name,
		Mode:     res.Mode.String(),
		WallMS:   float64(res.Wall) / float64(time.Millisecond),
		GCSec:    res.GC.GCCPUSeconds,
		Counters: res.Counters.Named(),
		Checksum: res.Checksum,
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

// Experiment pairs an id with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig8a", "WC shuffle-object lifetime timeline", Fig8aWCLifetime},
		{"fig8b", "WC execution time vs data and key size", Fig8bWordCount},
		{"fig9a", "LR cached-object lifetime timeline", Fig9aLRLifetime},
		{"fig9b", "LR execution time and cache size", Fig9bLR},
		{"fig9c", "KMeans execution time and cache size", Fig9cKMeans},
		{"fig9d", "High-dimensional (Amazon-style) LR/KMeans", Fig9dHighDim},
		{"fig10a", "PageRank on power-law graphs", Fig10aPageRank},
		{"fig10b", "ConnectedComponents on power-law graphs", Fig10bCC},
		{"table3", "GC time reduction per application", Table3GCReduction},
		{"table4", "GC tuning: storage fraction and collector aggressiveness", Table4GCTuning},
		{"table5", "Single-process microbenchmark and ser/deser costs", Table5Micro},
		{"table6", "SQL queries: rows vs columnar vs Deca", Table6SQL},
		{"deploy", "Deployment: in-process vs TCP frames vs executor processes", DeployComparison},
		{"faults", "Fault tolerance: wall time and recomputed attempts vs failure rate", FaultTolerance},
		{"wire", "Wire format: container encode/decode throughput, Deca vs Object", WireThroughput},
		{"ablation-pagesize", "Page-size sweep (design-choice ablation)", AblationPageSize},
		{"ablation-value-reuse", "SFST value reuse vs boxed combines (ablation)", AblationValueReuse},
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
func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// speedup formats a/b as "N.Nx".
func speedup(base, other time.Duration) string {
	if other <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(base)/float64(other))
}

// mb renders bytes as MB with one decimal.
func mb(b int64) string {
	return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
}

// baseCfg builds a workload config for the given mode from Base, wiring in
// the global chaos flags: every engine the experiment builds gets its own
// injector (fresh counters) with the same seed, so runs stay repeatable.
func (o Options) baseCfg(mode engine.Mode) workloads.Config {
	cfg := o.Base
	cfg.Mode = mode
	cfg.Seed = 1
	if cfg.Deploy == engine.DeployMultiproc && cfg.NumExecutors < 2 {
		// A single-process "cluster" of one child defeats the point;
		// multiproc runs always get at least two executor processes.
		cfg.NumExecutors = 2
	}
	cfg.Partitions = cfg.Parallelism * cfg.NumExecutors
	if o.FailureRate > 0 {
		inj := chaos.New(o.chaosSeed())
		inj.TaskFailureRate = o.FailureRate
		cfg.Chaos = inj
	}
	return cfg
}

// chaosSeed resolves the injector seed (default 1).
func (o Options) chaosSeed() int64 {
	if o.ChaosSeed != 0 {
		return o.ChaosSeed
	}
	return 1
}
