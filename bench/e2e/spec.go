package main

import (
	"fmt"
	"io"
	"strings"

	"deca/internal/engine"
	"deca/internal/workloads"
)

// workers is the number of task slots every job runs on: executors ×
// parallelism = 2 on every workload, the core count of the reference
// box. It is frozen here, never derived from the machine.
const workers = 2

// workload is one benchmark workload: a Deca-mode job with frozen
// parameters, the reason it exists, and the guards that prove the run
// exercised the layers it was chosen for.
type workload struct {
	Name string
	Why  string
	// Kind selects the job: "wc", "lr" or "pr".
	Kind string
	Cfg  workloads.Config
	WC   workloads.WCParams
	LR   workloads.LRParams
	PR   workloads.GraphParams
	// ExpectWallS is the job wall measured at the parent commit on the
	// 2-core reference box; the per-job deadline is 10× this.
	ExpectWallS float64
	Guards      []guard
}

// guard is a condition on one job's counters; a violation fails the job.
type guard struct {
	Metric string
	// Positive demands > 0; otherwise the counter must be exactly 0.
	Positive bool
}

func zero(m string) guard     { return guard{Metric: m} }
func positive(m string) guard { return guard{Metric: m, Positive: true} }

// specs are the five workloads at scale 1. Sizes were tuned so one job
// takes 0.9-1.4 s on the reference box (see README "Workloads").
var specs = []workload{
	{
		Name: "wc-shuffle",
		Why:  "Fig. 8b: WordCount over TCP, no spill; shuffle fill/encode/decode/merge and transport serve/fetch do the work, cache does none",
		Kind: "wc",
		Cfg: workloads.Config{NumExecutors: 2, Parallelism: 1, Partitions: 4,
			TransportKind: engine.TransportTCP, ShuffleSpillThreshold: -1},
		WC:          workloads.WCParams{Lines: 320_000, WordsPerLine: 10, DistinctKeys: 640_000},
		ExpectWallS: 1.5,
		Guards:      []guard{zero("shuffle.spill_mb"), positive("transport.remote_mb")},
	},
	{
		Name: "wc-spill",
		Why:  "same input with a 4 MiB spill threshold: shuffle writes and re-merges runs, transport ships files by sendfile instead of pages",
		Kind: "wc",
		Cfg: workloads.Config{NumExecutors: 2, Parallelism: 1, Partitions: 4,
			TransportKind: engine.TransportTCP, ShuffleSpillThreshold: 4 << 20},
		WC:          workloads.WCParams{Lines: 320_000, WordsPerLine: 10, DistinctKeys: 640_000},
		ExpectWallS: 1.2,
		Guards:      []guard{positive("shuffle.spill_mb"), positive("transport.sendfile_mb")},
	},
	{
		Name:        "lr-cache",
		Why:         "Fig. 9b in-memory regime: decompose, cache and page scans do the work; shuffle and transport stay idle, so data-plane changes predict no change here",
		Kind:        "lr",
		Cfg:         workloads.Config{NumExecutors: 1, Parallelism: 2, Partitions: 4},
		LR:          workloads.LRParams{Points: 800_000, Dim: 10, Iterations: 60},
		ExpectWallS: 1.4,
		Guards:      []guard{zero("cache.swap_out_mb"), zero("transport.remote_mb"), positive("cache.resident_mb")},
	},
	{
		Name: "lr-swap",
		Why:  "Fig. 9b spilling regime: the cache is half the data, so every pass evicts, swaps out and swaps in every block; guards enforced budgets",
		Kind: "lr",
		Cfg: workloads.Config{NumExecutors: 1, Parallelism: 2, Partitions: 16,
			MemoryBudget: 60 << 20, StorageFraction: 0.9},
		LR:          workloads.LRParams{Points: 1_200_000, Dim: 10, Iterations: 20},
		ExpectWallS: 1.3,
		Guards:      []guard{positive("cache.swap_out_mb")},
	},
	{
		Name: "pr-iter",
		Why:  "Fig. 10a: PageRank, ~40 short stages over in-process transport; per-stage engine/sched cost, DecaGroup + DecaAgg, cached adjacency, a container lifetime per iteration",
		Kind: "pr",
		Cfg: workloads.Config{NumExecutors: 2, Parallelism: 1, Partitions: 4,
			ShuffleSpillThreshold: -1},
		PR:          workloads.GraphParams{Vertices: 70_000, Edges: 700_000, Skew: 0.6, Iterations: 10},
		ExpectWallS: 1.4,
		Guards:      []guard{positive("transport.remote_fetches"), positive("cache.resident_mb")},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range specs {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks a workload for smoke tests: record counts, key spaces
// and byte budgets all scale, iteration and partition counts do not.
func (w workload) scaled(scale float64) workload {
	if scale == 1 {
		return w
	}
	n := func(v int) int { return max(int(float64(v)*scale), w.Cfg.Partitions) }
	b := func(v int64) int64 {
		if v <= 0 {
			return v
		}
		return max(int64(float64(v)*scale), 4<<10)
	}
	w.WC.Lines, w.WC.DistinctKeys = n(w.WC.Lines), n(w.WC.DistinctKeys)
	w.LR.Points = n(w.LR.Points)
	w.PR.Vertices, w.PR.Edges = int64(n(int(w.PR.Vertices))), n(w.PR.Edges)
	w.Cfg.MemoryBudget = b(w.Cfg.MemoryBudget)
	w.Cfg.ShuffleSpillThreshold = b(w.Cfg.ShuffleSpillThreshold)
	w.ExpectWallS = max(w.ExpectWallS*scale, 0.5)
	return w
}

// params renders the frozen parameters for -list and the run header.
func (w workload) params() string {
	c := w.Cfg
	s := fmt.Sprintf("%d executors x %d workers, %d partitions, transport=%s", c.NumExecutors, c.Parallelism, c.Partitions, c.TransportKind)
	if c.MemoryBudget > 0 {
		s += fmt.Sprintf(", budget=%dMiB storage=%.1f", c.MemoryBudget>>20, c.StorageFraction)
	}
	if c.ShuffleSpillThreshold > 0 {
		s += fmt.Sprintf(", spill-threshold=%dKiB", c.ShuffleSpillThreshold>>10)
	}
	switch w.Kind {
	case "wc":
		s += fmt.Sprintf("; WordCount lines=%d words/line=%d keys=%d", w.WC.Lines, w.WC.WordsPerLine, w.WC.DistinctKeys)
	case "lr":
		s += fmt.Sprintf("; LogisticRegression points=%d dim=%d iterations=%d", w.LR.Points, w.LR.Dim, w.LR.Iterations)
	case "pr":
		s += fmt.Sprintf("; PageRank vertices=%d edges=%d skew=%.1f iterations=%d", w.PR.Vertices, w.PR.Edges, w.PR.Skew, w.PR.Iterations)
	}
	return s
}

// metric describes one reported number. The same catalogue is written in
// BENCHMARK.json; a test keeps the two and a run's output in step.
type metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it is a regression; 0 for per-layer ones.
	Bound float64
	What  string
}

// layer is the module a per-layer metric belongs to: its name prefix.
func (m metric) layer() string {
	name, _, _ := strings.Cut(m.Name, ".")
	return name
}

var endToEnd = []metric{
	{"job_wall_s", "s", "lower", 0.25, "input to verified result, median over the timed jobs"},
	{"job_cpu_s", "s", "lower", 0.25, "process user+sys CPU per job (getrusage delta)"},
	{"heap_alloc_mb", "MB", "lower", 0.03, "Go-heap bytes allocated per job"},
	{"heap_allocs_m", "M", "lower", 0.02, "Go-heap objects allocated per job, millions"},
	{"peak_heap_mb", "MB", "lower", 0.20, "max live heap-object bytes, sampled every 10 ms"},
	{"setup_s", "s", "lower", 0.25, "temp dir + warm-up job, median of three set-ups (the first from process start)"},
}

var perLayer = []metric{
	{"datagen.gen_s", "s", "lower", 0, "input generation inside the job"},
	{"datagen.records_m", "M", "higher", 0, "records generated"},
	{"decompose.encode_ns_rec", "ns/rec", "lower", 0, "workload codec into a page group"},
	{"decompose.decode_ns_rec", "ns/rec", "lower", 0, "workload codec out of a page group"},
	{"memory.alloc_ns_page", "ns/page", "lower", 0, "fresh page from the Go heap"},
	{"memory.reuse_ns_page", "ns/page", "lower", 0, "page from the manager pool"},
	{"memory.release_us_group", "us/group", "lower", 0, "release of an 8-page group"},
	{"memory.snapshot_mb_s", "MB/s", "higher", 0, "Group.Snapshot throughput"},
	{"memory.restore_mb_s", "MB/s", "higher", 0, "Manager.RestoreGroup throughput"},
	{"cache.put_s", "s", "lower", 0, "NewDecaBlock + Put over all blocks"},
	{"cache.scan_s", "s", "lower", 0, "one Get + page-walk pass over all blocks"},
	{"cache.swap_out_mb_s", "MB/s", "higher", 0, "DecaBlock.SwapOut throughput"},
	{"cache.swap_in_mb_s", "MB/s", "higher", 0, "DecaBlock.SwapIn throughput"},
	{"cache.resident_mb", "MB", "lower", 0, "cache footprint after materialisation (job counter)"},
	{"cache.swap_out_mb", "MB", "lower", 0, "bytes swapped out (job counter)"},
	{"shuffle.fill_s", "s", "lower", 0, "map-side Put into per-reducer buffers"},
	{"shuffle.fill_mrec_s", "M/s", "higher", 0, "records filled per second, millions"},
	{"shuffle.spill_s", "s", "lower", 0, "buffer Spill calls"},
	{"shuffle.encode_s", "s", "lower", 0, "EncodeSegments on the serving side"},
	{"shuffle.decode_s", "s", "lower", 0, "DecodeDeca* into the destination manager"},
	{"shuffle.merge_s", "s", "lower", 0, "MergeFrom on the reduce side"},
	{"shuffle.drain_s", "s", "lower", 0, "Drain of merged buffers"},
	{"shuffle.frame_mb", "MB", "lower", 0, "wire frame bytes of the replayed exchanges"},
	{"shuffle.spill_mb", "MB", "lower", 0, "shuffle bytes spilled (job counter)"},
	{"transport.fetch_s", "s", "lower", 0, "Fetch minus encode and decode: serve, wire, copy"},
	{"transport.fetch_mb_s", "MB/s", "higher", 0, "frame bytes per fetch second"},
	{"transport.remote_mb", "MB", "lower", 0, "cross-executor frame bytes (job counter)"},
	{"transport.remote_fetches", "count", "lower", 0, "cross-executor fetches (job counter)"},
	{"transport.zero_copy_pages", "count", "higher", 0, "pages served in place (job counter)"},
	{"transport.sendfile_mb", "MB", "higher", 0, "spill bytes served by sendfile (job counter)"},
	{"transport.userspace_copy_mb", "MB", "lower", 0, "frame bytes staged in user space (job counter)"},
	{"engine.stage_overhead_us", "us/stage", "lower", 0, "RunPartitions of no-op bodies"},
	{"engine.tasks_failed", "count", "lower", 0, "failed task attempts (job counter)"},
	{"engine.task_retries", "count", "lower", 0, "retried task attempts (job counter)"},
	{"engine.unexplained_share", "ratio", "lower", 0, "1 - replay busy seconds / (traced job wall x workers)"},
	{"sched.dispatch_us_task", "us/task", "lower", 0, "Cluster.RunStage with empty bodies"},
	{"obs.record_ns_event", "ns/event", "lower", 0, "Recorder.Record into a full ring"},
	{"gcstats.gc_cpu_s", "s", "lower", 0, "GC CPU seconds of the traced job"},
	{"gcstats.gc_cycles", "count", "lower", 0, "GC cycles of the traced job"},
	{"gcstats.pause_ms", "ms", "lower", 0, "stop-the-world pause total of the traced job"},
	{"gcstats.peak_heap_objects_m", "M", "lower", 0, "max live heap objects, millions, sampled every 10 ms"},
	{"workloads.spark_wall_s", "s", "lower", 0, "the same job in ModeSpark, one sample"},
	{"workloads.speedup_vs_spark", "ratio", "higher", 0, "spark wall / deca wall, one sample"},
	{"workloads.gc_reduction_vs_spark", "ratio", "higher", 0, "1 - deca GC CPU / spark GC CPU (Table 3), one sample"},
	{"bench.trace_overhead_pct", "%", "lower", 0, "job with the event-spine export on vs the plain job before it"},
}

// interaction is one row of the predicted-interaction table: which
// end-to-end metrics a group of layer metrics should move, on which
// workloads, and where the prediction is no change.
type interaction struct {
	Layer []string
	Moves []string
	On    []string
	NotOn []string
}

var interactions = []interaction{
	{[]string{"shuffle.fill_s", "shuffle.merge_s", "shuffle.drain_s"}, []string{"job_wall_s", "job_cpu_s"},
		[]string{"wc-shuffle", "pr-iter"}, []string{"lr-cache", "lr-swap"}},
	{[]string{"shuffle.encode_s", "shuffle.decode_s", "transport.fetch_s", "transport.userspace_copy_mb"}, []string{"job_wall_s", "heap_alloc_mb"},
		[]string{"wc-shuffle"}, []string{"lr-cache", "lr-swap"}},
	{[]string{"shuffle.spill_s", "transport.sendfile_mb"}, []string{"job_wall_s", "peak_heap_mb"},
		[]string{"wc-spill"}, []string{"wc-shuffle"}},
	{[]string{"cache.scan_s", "decompose.decode_ns_rec"}, []string{"job_wall_s"},
		[]string{"lr-cache"}, []string{"wc-shuffle", "wc-spill"}},
	{[]string{"cache.swap_out_mb", "cache.swap_out_mb_s", "cache.swap_in_mb_s"}, []string{"job_wall_s", "job_cpu_s"},
		[]string{"lr-swap"}, []string{"lr-cache"}},
	{[]string{"decompose.encode_ns_rec", "datagen.gen_s"}, []string{"job_wall_s", "setup_s"},
		[]string{"wc-shuffle", "wc-spill", "lr-cache", "lr-swap", "pr-iter"}, nil},
	{[]string{"cache.put_s"}, []string{"job_wall_s", "setup_s"},
		[]string{"lr-cache", "lr-swap", "pr-iter"}, []string{"wc-shuffle", "wc-spill"}},
	{[]string{"memory.alloc_ns_page", "memory.reuse_ns_page", "memory.release_us_group"}, []string{"heap_alloc_mb", "peak_heap_mb", "job_wall_s"},
		[]string{"pr-iter", "wc-shuffle", "wc-spill"}, []string{"lr-cache"}},
	{[]string{"engine.stage_overhead_us", "sched.dispatch_us_task"}, []string{"job_wall_s"},
		[]string{"pr-iter"}, []string{"lr-cache"}},
	{[]string{"gcstats.gc_cpu_s", "gcstats.peak_heap_objects_m"}, []string{"job_wall_s", "job_cpu_s"},
		[]string{"pr-iter", "wc-shuffle"}, []string{"lr-cache"}},
}

// movesFor returns the interaction row a per-layer metric appears in.
func movesFor(name string) (interaction, bool) {
	for _, it := range interactions {
		for _, l := range it.Layer {
			if l == name {
				return it, true
			}
		}
	}
	return interaction{}, false
}

// printList writes every metric and workload with its frozen parameters.
func printList(w io.Writer) {
	fmt.Fprintf(w, "end-to-end metrics (untraced run, all lower-is-better):\n")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-28s %-9s %-6s bound=%.0f%%  %s\n", m.Name, m.Unit, m.Better, 100*m.Bound, m.What)
	}
	fmt.Fprintf(w, "per-layer metrics (traced run, no bound):\n")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-28s %-9s %-6s layer=%-9s %s", m.Name, m.Unit, m.Better, m.layer(), m.What)
		if it, ok := movesFor(m.Name); ok {
			fmt.Fprintf(w, " -> %s on %s", strings.Join(it.Moves, ","), strings.Join(it.On, ","))
			if len(it.NotOn) > 0 {
				fmt.Fprintf(w, ", not on %s", strings.Join(it.NotOn, ","))
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "workloads (closed loop, one client, %d workers, engine.ModeDeca):\n", workers)
	for _, s := range specs {
		fmt.Fprintf(w, "  %-11s %s\n              why: %s\n", s.Name, s.params(), s.Why)
	}
}
