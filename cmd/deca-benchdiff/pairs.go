package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// The pairs protocol compares the repo benchmark (bench/e2e) between two
// checkouts, A (the parent) and B (the change), as interleaved pairs: the
// box drifts within minutes, so a run is judged only against the run of
// the other side taken next to it. An A/A calibration comes first — the
// same checkout against itself, pair by pair — and its spread is the band
// inside which a difference is the box, not the code.

// e2eMetric is one end-to-end metric as BENCHMARK.json declares it.
type e2eMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// e2eResult is the result object a bench/e2e run prints as its last line.
type e2eResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseResult reads the result line out of a run's standard output.
func parseResult(stdout []byte) (e2eResult, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var r e2eResult
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	if !r.Correct || r.Failed != 0 {
		return r, fmt.Errorf("run not correct: %d of %d jobs failed", r.Failed, r.Attempted)
	}
	return r, nil
}

// pair is one run of each side, taken back to back.
type pair struct{ A, B e2eResult }

// pairVerdict is one metric over a set of pairs.
type pairVerdict struct {
	Metric      e2eMetric
	MedA, MedB  float64 // medians of each side's runs
	Change      float64 // MedB/MedA - 1
	Q1, Med, Q3 float64 // quartiles of the per-pair ratios B/A
	Wins, Pairs int     // pairs in which B was better
	Band        float64 // the A/A calibration's spread of B/A around 1
	IQRA        float64 // distance between the quartiles of A's runs
	Verdict     string
}

// comparePairs is the protocol's statistics, a pure function of the runs.
// The A/A band is the larger distance from 1 of the A/A ratios' quartiles.
// B is "better" (or "worse") when it wins (or loses) at least nine pairs in
// ten, its median ratio lies outside the band, and its median moved by
// more than the distance between the quartiles of A's runs — the rule a
// claimed gain is held to; "flat" when the median ratio lies inside the
// band, or within 0.05 % of 1 (below what the table prints: a count that
// moved by a few objects); "unresolved" otherwise.
func comparePairs(metrics []e2eMetric, aa, ab []pair) []pairVerdict {
	var out []pairVerdict
	for _, m := range metrics {
		value := func(r e2eResult) float64 { return r.Metrics[m.Name].Value }
		ratios := func(ps []pair) []float64 {
			rs := make([]float64, len(ps))
			for i, p := range ps {
				rs[i] = value(p.B) / value(p.A)
			}
			slices.Sort(rs)
			return rs
		}
		v := pairVerdict{Metric: m, Pairs: len(ab)}
		var as, bs []float64
		for _, p := range ab {
			as, bs = append(as, value(p.A)), append(bs, value(p.B))
			if better(m, value(p.B), value(p.A)) {
				v.Wins++
			}
		}
		slices.Sort(as)
		slices.Sort(bs)
		v.MedA, v.MedB = quantile(as, 0.5), quantile(bs, 0.5)
		v.Change = v.MedB/v.MedA - 1
		rs := ratios(ab)
		v.Q1, v.Med, v.Q3 = quantile(rs, 0.25), quantile(rs, 0.5), quantile(rs, 0.75)
		v.IQRA = quantile(as, 0.75) - quantile(as, 0.25)
		if aar := ratios(aa); len(aar) > 0 {
			v.Band = max(math.Abs(quantile(aar, 0.25)-1), math.Abs(quantile(aar, 0.75)-1))
		}
		need := int(math.Ceil(0.9 * float64(v.Pairs)))
		moved := math.Abs(v.Med-1) > v.Band && math.Abs(v.MedB-v.MedA) > v.IQRA
		switch {
		case v.Pairs == 0:
			v.Verdict = "no pairs"
		case moved && v.Wins >= need && better(m, v.MedB, v.MedA):
			v.Verdict = "better"
		case moved && v.Pairs-v.Wins >= need && better(m, v.MedA, v.MedB):
			v.Verdict = "worse"
		case math.Abs(v.Med-1) <= max(v.Band, 0.0005):
			v.Verdict = "flat"
		default:
			v.Verdict = "unresolved"
		}
		out = append(out, v)
	}
	return out
}

// better reports whether x beats y on m.
func better(m e2eMetric, x, y float64) bool {
	if m.Better == "higher" {
		return x > y
	}
	return x < y
}

// quantile is the q-quantile of sorted values, linearly interpolated.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// printVerdicts writes one line per metric.
func printVerdicts(w io.Writer, vs []pairVerdict) {
	fmt.Fprintf(w, "%-14s %12s %12s %8s %20s %6s %8s %s\n",
		"metric", "median A", "median B", "change", "B/A [q1 med q3]", "wins", "A/A", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-14s %12.5g %12.5g %+7.1f%% [%.3f %.3f %.3f] %3d/%-2d ±%5.1f%% %s\n",
			v.Metric.Name, v.MedA, v.MedB, 100*v.Change, v.Q1, v.Med, v.Q3, v.Wins, v.Pairs, 100*v.Band, v.Verdict)
	}
}

// pairsConfig is one -pairs invocation.
type pairsConfig struct {
	n              int
	a, b, workload string
	seconds, scale float64
}

// runPairs runs the protocol: n A/A pairs, then n A/B pairs whose first
// side alternates, each run `bash bench/e2e/run.sh` in its checkout.
func runPairs(c pairsConfig, out, progress io.Writer) error {
	metrics, err := loadEndToEnd(c.b)
	if err != nil {
		return err
	}
	run := func(dir string) (e2eResult, error) {
		cmd := exec.Command("bash", "bench/e2e/run.sh", "-workload", c.workload, "-seed", "1", "-trace", "0",
			"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-scale", strconv.FormatFloat(c.scale, 'g', -1, 64))
		cmd.Dir, cmd.Stderr = dir, progress
		stdout, err := cmd.Output()
		if err != nil {
			return e2eResult{}, fmt.Errorf("%s: %w", dir, err)
		}
		r, err := parseResult(stdout)
		if err != nil {
			return r, fmt.Errorf("%s: %w", dir, err)
		}
		return r, nil
	}
	// both runs one side of a pair after the other, first the side named
	// first, and files the results under A and B.
	both := func(first, second string, aFirst bool) (pair, error) {
		x, err := run(first)
		if err != nil {
			return pair{}, err
		}
		y, err := run(second)
		if err != nil {
			return pair{}, err
		}
		if aFirst {
			return pair{A: x, B: y}, nil
		}
		return pair{A: y, B: x}, nil
	}
	var aa, ab []pair
	for i := 0; i < c.n; i++ {
		fmt.Fprintf(progress, "deca-benchdiff: %s A/A pair %d of %d\n", c.workload, i+1, c.n)
		p, err := both(c.a, c.a, true)
		if err != nil {
			return err
		}
		aa = append(aa, p)
	}
	for i := 0; i < c.n; i++ {
		fmt.Fprintf(progress, "deca-benchdiff: %s A/B pair %d of %d\n", c.workload, i+1, c.n)
		first, second, aFirst := c.a, c.b, i%2 == 0
		if !aFirst {
			first, second = c.b, c.a
		}
		p, err := both(first, second, aFirst)
		if err != nil {
			return err
		}
		for _, m := range metrics {
			fmt.Fprintf(progress, "  %s %.5g -> %.5g\n", m.Name, p.A.Metrics[m.Name].Value, p.B.Metrics[m.Name].Value)
		}
		ab = append(ab, p)
	}
	fmt.Fprintf(out, "# %s: %d A/A pairs of %s, then %d alternating A/B pairs, B = %s (-seconds %g -scale %g)\n",
		c.workload, c.n, c.a, c.n, c.b, c.seconds, c.scale)
	printVerdicts(out, comparePairs(metrics, aa, ab))
	return nil
}

// loadEndToEnd reads the end-to-end metrics a checkout's BENCHMARK.json
// declares.
func loadEndToEnd(dir string) ([]e2eMetric, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []e2eMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s/BENCHMARK.json: %w", dir, err)
	}
	return spec.EndToEnd, nil
}
