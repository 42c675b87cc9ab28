// Command deca-bench regenerates the paper's evaluation tables and
// figures (§6). Each experiment runs the relevant workloads in the
// compared execution modes and prints a paper-style report.
//
// Usage:
//
//	deca-bench                     # run everything at default scale
//	deca-bench -exp fig9b,table3   # run selected experiments
//	deca-bench -scale 0.2          # shrink datasets 5x (quick look)
//	deca-bench -list               # show available experiment ids
//	deca-bench -exp fig9b -cpuprofile cpu.prof -memprofile mem.prof
//	                               # profile the run for `go tool pprof`
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"deca/internal/bench"
	"deca/internal/engine"
)

func main() { os.Exit(run()) }

// run is main with an exit code in place of os.Exit, so the deferred
// clean-up — the temp spill directory, the profiles — happens on failure
// too.
func run() int {
	var opts bench.Options
	cfg := &opts.Base
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		execBin  = flag.String("executor-bin", "", "deca-executor binary for -transport multiproc and the deploy and faults experiments' multiproc rows (default under multiproc: next to deca-bench, then $PATH)")
		jsonDir  = flag.String("json", "", "also write each report as BENCH_<experiment>.json (wall, GC, checksum and counters per run) into this directory ('.' = cwd)")
		listOnly = flag.Bool("list", false, "list experiment ids and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile (every allocation since start, not just the live heap) to this file at exit")
		memRate  = flag.Int("memprofilerate", 0, "runtime.MemProfileRate for -memprofile: 1 records every allocation (exact object counts, slower); 0 keeps the runtime's sampling")
	)
	flag.Float64Var(&opts.Scale, "scale", 1.0, "dataset scale factor")
	flag.IntVar(&cfg.Parallelism, "parallelism", 4, "worker goroutines per executor")
	flag.IntVar(&cfg.NumExecutors, "executors", 1, "executors in the local cluster (deploy runs at least 2, faults at least 4)")
	flag.Func("transport", "deployment: inprocess (default), tcp (in-process executors, loopback sockets) or multiproc (spawn deca-executor processes)", func(s string) (err error) {
		cfg.TransportKind, err = engine.ParseTransportKind(s)
		return err
	})
	flag.StringVar(&cfg.SpillDir, "spill-dir", "", "directory for spills and swaps (default: temp)")
	flag.Int64Var(&opts.ChaosSeed, "chaos-seed", 0, "seed for the deterministic fault injector (0 = 1; used when -failure-rate > 0)")
	flag.Float64Var(&opts.FailureRate, "failure-rate", 0, "inject this per-attempt task failure probability into every experiment (0 = no chaos)")
	flag.Float64Var(&cfg.FetchFailureRate, "fetch-failure-rate", 0, "inject this transient data-plane fetch failure probability (multiproc: inside the executor processes)")
	flag.IntVar(&cfg.MaxTaskRetries, "max-retries", 0, "per-task retry budget (0 = engine default of 3, negative disables retries)")
	flag.StringVar(&cfg.OpsAddr, "ops-addr", "", "serve the live HTTP ops plane (/metrics, /stages, /executors, /memory, /trace) on this address while experiments run")
	flag.StringVar(&cfg.TraceOut, "trace-out", "", "write the event spine as Chrome trace-event JSON (Perfetto-loadable) to this file on engine close")
	flag.Parse()
	if *memRate > 0 {
		runtime.MemProfileRate = *memRate
	}

	var err error
	if cfg.ExecutorCmd, err = executorCmd(cfg.TransportKind, *execBin); err != nil {
		fmt.Fprintln(os.Stderr, "deca-bench:", err)
		return 1
	}

	if *listOnly {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if cfg.SpillDir == "" {
		dir, err := os.MkdirTemp("", "deca-bench-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "deca-bench:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		cfg.SpillDir = dir
	}

	var experiments []bench.Experiment
	if *expFlag == "all" {
		experiments = bench.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "deca-bench: unknown experiment %q (use -list)\n", id)
				return 1
			}
			experiments = append(experiments, e)
		}
	}

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deca-bench:", err)
		return 1
	}
	defer stopProfiles()

	failed := false
	for _, e := range experiments {
		start := time.Now()
		rep, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deca-bench: %s: %v\n", e.ID, err)
			failed = true
			continue
		}
		elapsed := time.Since(start)
		fmt.Print(rep.String())
		fmt.Printf("  (completed in %s)\n\n", elapsed.Round(time.Millisecond))
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, rep, opts.Scale, elapsed); err != nil {
				fmt.Fprintf(os.Stderr, "deca-bench: %s: %v\n", e.ID, err)
				failed = true
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

// startProfiles starts the CPU profile and returns the function that
// stops it and writes the allocation profile; empty paths are skipped.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "deca-bench: -cpuprofile:", err)
			}
		}
		if memPath != "" {
			if err := writeAllocProfile(memPath); err != nil {
				fmt.Fprintln(os.Stderr, "deca-bench: -memprofile:", err)
			}
		}
	}, nil
}

// writeAllocProfile writes the "allocs" profile: the same samples as
// "heap", defaulting to alloc_space — where the run's bytes and objects
// were allocated, which is what an allocation ledger reads.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // flush the last cycle's allocations into the profile
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON writes one experiment's machine-readable report as
// BENCH_<id>.json: the report (rows + metrics) plus the run's scale and
// total wall time, so a later run can be diffed for speed and for
// checksum drift.
func writeJSON(dir string, rep *bench.Report, scale float64, elapsed time.Duration) error {
	doc := struct {
		*bench.Report
		Scale       float64 `json:"scale"`
		CompletedMS float64 `json:"completed_ms"`
	}{rep, scale, float64(elapsed) / float64(time.Millisecond)}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+rep.ID+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}

// executorCmd is the deca-executor command: under -transport multiproc, or
// wherever -executor-bin names one (the deploy and faults experiments' own
// multiproc rows run with it), and nil otherwise. It is the explicit flag,
// then the binary next to this one, then the one on $PATH.
func executorCmd(kind engine.TransportKind, explicit string) ([]string, error) {
	if explicit != "" {
		if _, err := os.Stat(explicit); err != nil {
			return nil, fmt.Errorf("-executor-bin %s: %w", explicit, err)
		}
		return []string{explicit}, nil
	}
	if kind != engine.TransportMultiproc {
		return nil, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "deca-executor")
		if _, err := os.Stat(sibling); err == nil {
			return []string{sibling}, nil
		}
	}
	if path, err := exec.LookPath("deca-executor"); err == nil {
		return []string{path}, nil
	}
	return nil, fmt.Errorf("deca-executor binary not found (build it with `go build ./cmd/deca-executor` and pass -executor-bin, or put it next to deca-bench)")
}
