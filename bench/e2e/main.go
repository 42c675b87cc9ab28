// Command e2e is the repo benchmark: it runs one Deca-mode workload as a
// closed loop of one client and reports the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1) named in BENCHMARK.json,
// after checking the answers. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"deca/internal/engine"
)

// processStart anchors setup_s: the first set-up is timed from here.
var processStart = time.Now()

//go:embed golden.json
var goldenJSON []byte

// golden holds the checksum of each workload's job for seeds 1-3 at
// scale 1: workload → seed → checksum.
func golden() (map[string]map[string]float64, error) {
	var g map[string]map[string]float64
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// summary is the human-facing JSON line printed before the result. This
// benchmark measures; it claims no gain.
type summary struct {
	Workload  string   `json:"workload"`
	Params    string   `json:"params"`
	Seed      int64    `json:"seed"`
	Trace     int      `json:"trace"`
	Jobs      int      `json:"timed_jobs"`
	Errors    []string `json:"errors,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
	Claim     *string  `json:"claim"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	scale   float64
	workdir string
	out     io.Writer
}

// minTimedJobs is the fewest jobs a timed loop runs, however short
// -seconds is: every timing is a median of at least this many.
const minTimedJobs = 5

// defaultSeconds is BENCHMARK.json's run_seconds: how long the untraced
// timed loop measures unless -seconds says otherwise.
const defaultSeconds = 18

// setups is how many times an untraced run sets up; setup_s is their
// median.
const setups = 3

// verifier accumulates the correctness checks of one run.
type verifier struct {
	w         workload
	seed      int64
	scale     float64
	attempted int
	failed    int
	errs      []string
	first     *float64
}

func (v *verifier) fail(format string, args ...any) {
	v.failed++
	v.errs = append(v.errs, fmt.Sprintf(format, args...))
}

// job checks one finished Deca job: no error, guards held (runJob folds
// those into Err), same answer as the run's first job, as the golden
// file and, for WordCount, as the closed form.
func (v *verifier) job(s sample) {
	v.attempted++
	if s.Err != nil {
		v.fail("job %d: %v", v.attempted, s.Err)
		return
	}
	sum := s.Res.Checksum
	if v.first == nil {
		v.first = &sum
		if v.scale == 1 {
			g, err := golden()
			if err != nil {
				v.fail("%v", err)
				return
			}
			if want, ok := g[v.w.Name][strconv.FormatInt(v.seed, 10)]; ok && !v.w.sameAnswer(sum, want, 1e-9) {
				v.fail("job %d: checksum %.17g, golden %.17g", v.attempted, sum, want)
				return
			}
		}
		if v.w.Kind == "wc" && sum != v.w.wcClosedForm() {
			v.fail("job %d: checksum %.17g, closed form %.17g", v.attempted, sum, v.w.wcClosedForm())
		}
		return
	}
	if !v.w.sameAnswer(sum, *v.first, 1e-9) {
		v.fail("job %d: checksum %.17g differs from the first job's %.17g", v.attempted, sum, *v.first)
	}
}

func (v *verifier) result(metrics map[string]value) result {
	return result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: metrics}
}

// runUntraced measures the end-to-end metrics: three set-ups (temp dir +
// a warm-up job), then jobs back to back for cfg.seconds — at least
// minTimedJobs — each on a fresh engine and spill directory.
func runUntraced(cfg runConfig) (result, summary, error) {
	v := &verifier{w: cfg.w, seed: cfg.seed, scale: cfg.scale}
	dir, err := os.MkdirTemp(cfg.workdir, "e2e-"+cfg.w.Name+"-")
	if err != nil {
		return result{}, summary{}, err
	}
	defer os.RemoveAll(dir)

	var setupS []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		sub, err := os.MkdirTemp(dir, "setup-")
		if err != nil {
			return result{}, summary{}, err
		}
		s := runJob(cfg.w, engine.ModeDeca, cfg.seed, sub, "")
		if errors.Is(s.Err, errDeadline) {
			return result{}, summary{}, s.Err
		}
		v.job(s)
		settle()
		setupS = append(setupS, time.Since(start).Seconds())
	}

	var wall, cpu, allocMB, allocsM, peakMB []float64
	budget := time.Duration(cfg.seconds * float64(time.Second))
	loopStart := time.Now()
	for n := 0; ; n++ {
		// Start another job only if one of the usual length still fits.
		if n >= minTimedJobs && time.Since(loopStart)+time.Duration(median(wall)*float64(time.Second)) > budget {
			break
		}
		s := runJob(cfg.w, engine.ModeDeca, cfg.seed, dir, "")
		if errors.Is(s.Err, errDeadline) {
			return result{}, summary{}, s.Err
		}
		v.job(s)
		if s.Err != nil {
			if n >= minTimedJobs {
				break
			}
			continue
		}
		wall, cpu = append(wall, s.WallS), append(cpu, s.CPUS)
		allocMB, allocsM = append(allocMB, s.AllocMB), append(allocsM, s.AllocsM)
		peakMB = append(peakMB, s.PeakHeapMB)
	}

	medians := map[string]float64{
		"job_wall_s": median(wall), "job_cpu_s": median(cpu),
		"heap_alloc_mb": median(allocMB), "heap_allocs_m": median(allocsM),
		"peak_heap_mb": median(peakMB), "setup_s": median(setupS),
	}
	fmt.Fprintf(cfg.out, "# %s seed=%d: medians of n=%d timed jobs (setup_s: of %d set-ups); closed loop, 1 client, %d workers\n",
		cfg.w.Name, cfg.seed, len(wall), setups, workers)
	return v.result(report(cfg.out, endToEnd, medians)), summary{Jobs: len(wall), Errors: v.errs}, nil
}

// report prints the catalogue's metrics by name with unit and returns
// them in result form.
func report(out io.Writer, catalogue []metric, values map[string]float64) map[string]value {
	m := make(map[string]value, len(catalogue))
	for _, c := range catalogue {
		m[c.Name] = value{Value: values[c.Name], Unit: c.Unit}
		fmt.Fprintf(out, "%-30s %14.6g %s\n", c.Name, values[c.Name], c.Unit)
	}
	return m
}

// runTraced measures the per-layer metrics: a warm-up and a plain Deca
// job, the same job with the engine's event-spine export on, the
// single-threaded replay of its layer calls, the micro-probes, and one
// ModeSpark job of the same parameters as the paper's baseline, all under
// one root span. Spans stay in memory and are written as one Chrome trace
// file at the end.
func runTraced(cfg runConfig) (result, summary, error) {
	v := &verifier{w: cfg.w, seed: cfg.seed, scale: cfg.scale}
	dir, err := os.MkdirTemp(cfg.workdir, "e2e-"+cfg.w.Name+"-")
	if err != nil {
		return result{}, summary{}, err
	}
	defer os.RemoveAll(dir)
	traceDir := filepath.Join(cfg.workdir, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, summary{}, err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", cfg.w.Name, cfg.seed))

	tr := newTracer(fmt.Sprintf("%s/seed%d", cfg.w.Name, cfg.seed))
	run := tr.begin(0, "run", "run")
	job := func(name string, mode engine.Mode, traceOut string) (sample, error) {
		s := runJob(cfg.w, mode, cfg.seed, dir, traceOut)
		if errors.Is(s.Err, errDeadline) {
			return s, s.Err
		}
		if s.Err == nil {
			tr.add(run, name, "job", s.Start, s.End, s.counters)
		}
		return s, nil
	}

	// The first job of a process runs on a cold heap; keep it out of the
	// plain-vs-traced comparison.
	warm, err := job("job.deca.warmup", engine.ModeDeca, "")
	if err != nil {
		return result{}, summary{}, err
	}
	v.job(warm)
	plain, err := job("job.deca.plain", engine.ModeDeca, "")
	if err != nil {
		return result{}, summary{}, err
	}
	v.job(plain)
	traced, err := job(spanTracedJob, engine.ModeDeca, base+".engine.trace.json")
	if err != nil {
		return result{}, summary{}, err
	}
	v.job(traced)
	if v.failed > 0 {
		return v.result(nil), summary{Errors: v.errs}, nil
	}

	settle()
	env, err := newReplayEnv(tr, run, tr.begin(run, spanReplay, "replay"), cfg.w, cfg.seed, dir)
	if err != nil {
		return result{}, summary{}, err
	}
	replay := map[string]func(*replayEnv) (float64, error){"wc": replayWC, "lr": replayLR, "pr": replayPR}[cfg.w.Kind]
	answer, err := replay(env)
	tr.end(env.root, nil)
	env.close()
	v.attempted++
	switch {
	case err != nil:
		v.fail("replay: %v", err)
	case !cfg.w.sameAnswer(answer, traced.Res.Checksum, 1e-9):
		v.fail("replay answer %.17g, job %.17g", answer, traced.Res.Checksum)
	case cfg.w.Kind == "wc" && env.wcClosedForm != traced.Res.Checksum:
		v.fail("closed form over datagen.Words %.17g, job %.17g", env.wcClosedForm, traced.Res.Checksum)
	}

	settle()
	p := &prober{tr: tr, root: run, dir: dir, out: map[string]float64{}}
	if err := p.probeWorkloadRecords(cfg.w, cfg.seed); err != nil {
		return result{}, summary{}, fmt.Errorf("record probes: %w", err)
	}
	p.probeMemory()
	if err := p.probeControl(cfg.w); err != nil {
		return result{}, summary{}, fmt.Errorf("control probes: %w", err)
	}

	spark, err := job("job.spark", engine.ModeSpark, "")
	if err != nil {
		return result{}, summary{}, err
	}
	v.attempted++
	switch {
	case spark.Err != nil:
		v.fail("spark job: %v", spark.Err)
	case !cfg.w.sameAnswer(spark.Res.Checksum, traced.Res.Checksum, 1e-6):
		v.fail("spark answer %.17g, deca %.17g", spark.Res.Checksum, traced.Res.Checksum)
	}
	tr.end(run, nil)
	if err := tr.writeFile(base + ".trace.json"); err != nil {
		return result{}, summary{}, err
	}

	spans := tr.snapshot()
	m := p.out
	for k, c := range traced.counters {
		m[k] = c
	}
	per := func(total, by float64) float64 {
		if by == 0 {
			return 0
		}
		return total / by
	}
	self := func(name string) float64 { return selfSeconds(spans, name) }
	m["datagen.gen_s"] = self("datagen.gen")
	m["datagen.records_m"] = float64(env.genRecords) / 1e6
	m["cache.put_s"] = self("cache.put")
	m["cache.scan_s"] = per(self("cache.scan"), float64(env.scanPasses))
	m["shuffle.fill_s"] = self("shuffle.fill")
	m["shuffle.fill_mrec_s"] = per(float64(env.fillRecords)/1e6, self("shuffle.fill"))
	m["shuffle.spill_s"] = self("shuffle.spill")
	m["shuffle.encode_s"] = self("shuffle.encode")
	m["shuffle.decode_s"] = self("shuffle.decode")
	m["shuffle.merge_s"] = self("shuffle.merge")
	m["shuffle.drain_s"] = self("shuffle.drain")
	m["shuffle.frame_mb"] = float64(env.frameBytes) / mb
	m["transport.fetch_s"] = self("transport.fetch")
	m["transport.fetch_mb_s"] = per(float64(env.frameBytes)/mb, self("transport.fetch"))
	if m["engine.unexplained_share"], err = unexplainedShare(spans); err != nil {
		return result{}, summary{}, err
	}
	m["gcstats.gc_cpu_s"] = traced.GC.GCCPUSeconds
	m["gcstats.gc_cycles"] = float64(traced.GC.NumGC)
	m["gcstats.pause_ms"] = float64(traced.GC.PauseTotal) / float64(time.Millisecond)
	m["gcstats.peak_heap_objects_m"] = traced.PeakHeapObjectsM
	m["workloads.spark_wall_s"] = spark.WallS
	m["workloads.speedup_vs_spark"] = per(spark.WallS, traced.WallS)
	m["workloads.gc_reduction_vs_spark"] = 1 - per(traced.GC.GCCPUSeconds, spark.GC.GCCPUSeconds)
	m["bench.trace_overhead_pct"] = 100 * (per(traced.WallS, plain.WallS) - 1)

	fmt.Fprintf(cfg.out, "# %s seed=%d: per-layer metrics of one traced job (wall %.3fs), its replay and the probes; %d workers\n",
		cfg.w.Name, cfg.seed, traced.WallS, workers)
	return v.result(report(cfg.out, perLayer, m)), summary{Errors: v.errs, TraceFile: base + ".trace.json"}, nil
}

// selfcheck runs the untraced benchmark twice per workload, each run a
// fresh process as the driver would start it, and compares every
// end-to-end metric's change with its bound.
func selfcheck(seed int64, seconds float64, workdir string, out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	once := func(name string) (result, error) {
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-workdir", workdir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return result{}, fmt.Errorf("%s: last line: %w", name, err)
		}
		if !r.Correct || r.Failed != 0 {
			return r, fmt.Errorf("%s: correct=%v failed=%d of %d", name, r.Correct, r.Failed, r.Attempted)
		}
		return r, nil
	}
	fmt.Fprintf(out, "%-11s %-14s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "change", "bound")
	exceeded := 0
	for _, w := range specs {
		a, err := once(w.Name)
		if err != nil {
			return err
		}
		b, err := once(w.Name)
		if err != nil {
			return err
		}
		for _, m := range endToEnd {
			first, second := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			change := (second - first) / first
			mark := ""
			if change > m.Bound || -change > m.Bound {
				mark = "  EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(out, "%-11s %-14s %12.5g %12.5g %+8.2f%% %6.0f%%%s\n", w.Name, m.Name, first, second, 100*change, 100*m.Bound, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d (metric, workload) pairs moved by more than their bound between two runs of the same code", exceeded)
	}
	fmt.Fprintf(out, "failed_share 0 on all %d workloads; every pair within its bound\n", len(specs))
	return nil
}

// printGolden runs one job per workload and seed 1-3 and prints the
// checksums in golden.json's form.
func printGolden(workdir string, out io.Writer) error {
	g := map[string]map[string]float64{}
	for _, w := range specs {
		g[w.Name] = map[string]float64{}
		for seed := int64(1); seed <= 3; seed++ {
			s := runJob(w, engine.ModeDeca, seed, workdir, "")
			if s.Err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, s.Err)
			}
			g[w.Name][strconv.FormatInt(seed, 10)] = s.Res.Checksum
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long the untraced timed loop measures")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a trace file")
		scale     = flag.Float64("scale", 1, "shrink every workload (smoke tests); golden checksums apply at 1 only")
		workdir   = flag.String("workdir", "", "directory for spill files and traces (default: the OS temp dir)")
		list      = flag.Bool("list", false, "print every metric and workload, then exit")
		check     = flag.Bool("selfcheck", false, "run every workload twice untraced and compare with the bounds")
		goldenOut = flag.Bool("golden", false, "print golden.json for seeds 1-3, then exit")
	)
	flag.Parse()
	if *workdir == "" {
		*workdir = os.TempDir()
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *list:
		printList(os.Stdout)
		return
	case *check:
		if err := selfcheck(*seed, *seconds, *workdir, os.Stdout); err != nil {
			fatal(err)
		}
		return
	case *goldenOut:
		if err := printGolden(*workdir, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q; use -list", *name))
	}
	cfg := runConfig{w: w.scaled(*scale), seed: *seed, seconds: *seconds, scale: *scale, workdir: *workdir, out: os.Stdout}
	run := runUntraced
	if *trace != 0 {
		run = runTraced
	}
	res, sum, err := run(cfg)
	if err != nil {
		// A job past its deadline cannot be stopped; its stacks are on
		// stderr and the process ends here, without a result line.
		fatal(err)
	}
	sum.Workload, sum.Params, sum.Seed, sum.Trace = cfg.w.Name, cfg.w.params(), *seed, *trace
	for _, e := range sum.Errors {
		fmt.Fprintln(os.Stderr, "e2e:", e)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(sum); err != nil {
		fatal(err)
	}
	if err := enc.Encode(res); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(1)
}
