// Command deca-benchdiff compares a freshly generated BENCH_<id>.json
// report against a committed baseline. Checksums are the contract: any
// drift means an experiment now computes a different answer, which is a
// hard failure. So is a mismatch in coverage — a metric missing from
// either side means the baseline is stale or the experiment shrank, and
// both must be resolved explicitly (regenerate the baseline) rather
// than silently skipped. Wall time is advice: CI machines are noisy, so
// regressions beyond the threshold only warn, and a row whose baseline wall
// is under wallFloorMS is not compared at all. A workload row's minor
// faults and system CPU are printed beside it and never compared.
//
// With -pairs it runs the repo benchmark's pairs protocol instead (pairs.go):
// bench/e2e in two checkouts, interleaved, after an A/A calibration, and
// prints per end-to-end metric the medians, the change, the quartiles of
// the per-pair ratios, the wins and a verdict against the A/A band.
//
// Usage:
//
//	deca-benchdiff -baseline bench/baseline/BENCH_faults.json -current out/BENCH_faults.json
//	deca-benchdiff -pairs 10 -a ../parent -b . -workload pr-iter -seconds 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"deca/internal/bench"
)

// wallFloorMS is the baseline wall below which a row's wall is not
// compared: a run that short times page faults and the timer more than
// the work (table5's per-object rows, 0.0-1.1 ms, warned in most runs).
const wallFloorMS = 2.0

func load(path string) (bench.Report, error) {
	var r bench.Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// diff compares the fresh report against the baseline, writing one line
// per metric to w, and reports whether any comparison failed. Coverage
// must match exactly in both directions: a baseline row missing from the
// current report means the experiment shrank, and a current row absent
// from the baseline means the baseline predates the metric — both fail,
// because a gate that silently skips unmatched rows gates nothing.
func diff(base, cur bench.Report, wallWarn float64, w io.Writer) (failed bool) {
	baseline, dupBase := rowsByKey(base, "baseline", w)
	current, dupCur := rowsByKey(cur, "current", w)
	failed = dupBase || dupCur

	for _, want := range base.Metrics {
		got, ok := current[want.Key()]
		if !ok {
			// A row the baseline measured vanished: the experiment's
			// coverage shrank, which silent wall/checksum comparison would
			// never notice.
			fmt.Fprintf(w, "FAIL %-28s missing from current report\n", want.Key())
			failed = true
			continue
		}
		if !bench.ChecksumClose(got.Checksum, want.Checksum) {
			fmt.Fprintf(w, "FAIL %-28s checksum %.6g, baseline %.6g — answers drifted\n",
				want.Key(), got.Checksum, want.Checksum)
			failed = true
			continue
		}
		if want.WallMS >= wallFloorMS && got.WallMS > want.WallMS*(1+wallWarn) {
			fmt.Fprintf(w, "WARN %-28s wall %.1fms vs baseline %.1fms (+%.0f%%)%s\n",
				want.Key(), got.WallMS, want.WallMS, 100*(got.WallMS/want.WallMS-1), kernelCost(got))
			continue
		}
		fmt.Fprintf(w, "ok   %-28s checksum %.6g, wall %.1fms (baseline %.1fms)%s\n",
			want.Key(), got.Checksum, got.WallMS, want.WallMS, kernelCost(got))
	}
	for _, m := range cur.Metrics {
		if _, ok := baseline[m.Key()]; !ok {
			fmt.Fprintf(w, "FAIL %-28s not in baseline %s — the baseline predates this metric; regenerate it\n",
				m.Key(), base.ID)
			failed = true
		}
	}
	return failed
}

// kernelCost is a workload row's minor faults and system CPU, as printed
// after its comparison ("" for a row that has none).
func kernelCost(m bench.Metric) string {
	if m.MinorFaults == 0 && m.SysMS == 0 {
		return ""
	}
	return fmt.Sprintf(", %d minor faults, sys %.1fms", m.MinorFaults, m.SysMS)
}

// rowsByKey maps a report's rows by key and fails (through w) on a key
// the report holds twice: the map would keep one of the two, and the
// coverage checks would pass a run recorded twice.
func rowsByKey(r bench.Report, side string, w io.Writer) (rows map[string]bench.Metric, dup bool) {
	rows = make(map[string]bench.Metric, len(r.Metrics))
	for _, m := range r.Metrics {
		if _, ok := rows[m.Key()]; ok {
			fmt.Fprintf(w, "FAIL %-28s recorded twice in the %s report\n", m.Key(), side)
			dup = true
		}
		rows[m.Key()] = m
	}
	return rows, dup
}

func main() {
	var (
		basePath = flag.String("baseline", "", "committed BENCH_<id>.json to compare against")
		curPath  = flag.String("current", "", "freshly generated BENCH_<id>.json")
		wallWarn = flag.Float64("wall-warn", 0.25, "warn when a row's wall_ms regresses by more than this fraction")
		pairs    = flag.Int("pairs", 0, "run the bench/e2e pairs protocol with this many A/A and A/B pairs")
		aDir     = flag.String("a", "", "-pairs: the checkout compared against (the parent)")
		bDir     = flag.String("b", "", "-pairs: the checkout under test")
		workload = flag.String("workload", "", "-pairs: the bench/e2e workload")
		seconds  = flag.Float64("seconds", 8, "-pairs: each run's timed loop")
		scale    = flag.Float64("scale", 1, "-pairs: each run's workload scale")
	)
	flag.Parse()
	if *pairs > 0 {
		if *aDir == "" || *bDir == "" || *workload == "" {
			fmt.Fprintln(os.Stderr, "deca-benchdiff: -pairs needs -a, -b and -workload")
			os.Exit(2)
		}
		c := pairsConfig{n: *pairs, a: *aDir, b: *bDir, workload: *workload, seconds: *seconds, scale: *scale}
		if err := runPairs(c, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "deca-benchdiff:", err)
			os.Exit(1)
		}
		return
	}
	if *basePath == "" || *curPath == "" {
		fmt.Fprintln(os.Stderr, "deca-benchdiff: -baseline and -current are required")
		os.Exit(2)
	}
	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deca-benchdiff:", err)
		os.Exit(2)
	}
	cur, err := load(*curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deca-benchdiff:", err)
		os.Exit(2)
	}
	if diff(base, cur, *wallWarn, os.Stdout) {
		os.Exit(1)
	}
}
