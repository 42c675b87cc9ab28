// Command deca-benchdiff compares a freshly generated BENCH_<id>.json
// report against a committed baseline. Checksums are the contract: any
// drift means an experiment now computes a different answer, which is a
// hard failure. So is a mismatch in coverage — a metric missing from
// either side means the baseline is stale or the experiment shrank, and
// both must be resolved explicitly (regenerate the baseline) rather
// than silently skipped. Wall time is advice: CI machines are noisy, so
// regressions beyond the threshold only warn.
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
	"math"
	"os"
)

// metric mirrors the bench.Metric JSON shape (only the compared fields).
type metric struct {
	Name     string  `json:"name"`
	Mode     string  `json:"mode"`
	WallMS   float64 `json:"wall_ms"`
	Checksum float64 `json:"checksum"`
}

// key identifies a row: the paper-figure experiments record one row per
// mode under one name (fig9b: "lr-n500000" for Spark, SparkSer and Deca).
func (m metric) key() string {
	if m.Mode == "" {
		return m.Name
	}
	return m.Name + " [" + m.Mode + "]"
}

type report struct {
	ID      string   `json:"id"`
	Metrics []metric `json:"metrics"`
}

func load(path string) (report, error) {
	var r report
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
func diff(base, cur report, wallWarn float64, w io.Writer) (failed bool) {
	current := make(map[string]metric, len(cur.Metrics))
	for _, m := range cur.Metrics {
		current[m.key()] = m
	}

	for _, want := range base.Metrics {
		got, ok := current[want.key()]
		if !ok {
			// A row the baseline measured vanished: the experiment's
			// coverage shrank, which silent wall/checksum comparison would
			// never notice.
			fmt.Fprintf(w, "FAIL %-28s missing from current report\n", want.key())
			failed = true
			continue
		}
		// Float checksums are scheduler-order sensitive only across
		// partitions folded in nondeterministic order; the bench folds in
		// partition order, so a small relative tolerance covers them.
		if math.Abs(got.Checksum-want.Checksum) > 1e-6*math.Abs(want.Checksum) {
			fmt.Fprintf(w, "FAIL %-28s checksum %.6g, baseline %.6g — answers drifted\n",
				want.key(), got.Checksum, want.Checksum)
			failed = true
			continue
		}
		if want.WallMS > 0 && got.WallMS > want.WallMS*(1+wallWarn) {
			fmt.Fprintf(w, "WARN %-28s wall %.1fms vs baseline %.1fms (+%.0f%%)\n",
				want.key(), got.WallMS, want.WallMS, 100*(got.WallMS/want.WallMS-1))
			continue
		}
		fmt.Fprintf(w, "ok   %-28s checksum %.6g, wall %.1fms (baseline %.1fms)\n",
			want.key(), got.Checksum, got.WallMS, want.WallMS)
	}
	for _, m := range cur.Metrics {
		if _, ok := lookup(base.Metrics, m.key()); !ok {
			fmt.Fprintf(w, "FAIL %-28s not in baseline %s — the baseline predates this metric; regenerate it\n",
				m.key(), base.ID)
			failed = true
		}
	}
	return failed
}

// lookup finds a metric by key in a report's rows.
func lookup(ms []metric, key string) (metric, bool) {
	for _, m := range ms {
		if m.key() == key {
			return m, true
		}
	}
	return metric{}, false
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
