package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// resultLine is a bench/e2e run's standard output: a metric line, the
// summary and the result object, as run.sh prints them.
func resultLine(wall, alloc float64) string {
	return fmt.Sprintf(`job_wall_s %g s
{"workload":"pr-iter","seed":1,"trace":0,"timed_jobs":5,"claim":null}
{"correct":true,"attempted":8,"failed":0,"metrics":{"job_wall_s":{"value":%g,"unit":"s"},"heap_alloc_mb":{"value":%g,"unit":"MB"}}}
`, wall, wall, alloc)
}

func near(x, y float64) bool { return math.Abs(x-y) < 1e-12 }

func mustParse(t *testing.T, out string) e2eResult {
	t.Helper()
	r, err := parseResult([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestComparePairs: over canned runs, a metric B improves in every pair by
// more than the A/A spread is "better", one that moves inside the A/A band
// is "flat", and the medians, change, ratio quartiles and wins are the
// runs' own.
func TestComparePairs(t *testing.T) {
	metrics := []e2eMetric{{Name: "job_wall_s", Better: "lower"}, {Name: "heap_alloc_mb", Better: "lower"}}
	walls := [][2]float64{{0.85, 0.71}, {0.80, 0.70}, {0.90, 0.74}, {0.86, 0.72}}
	var aa, ab []pair
	for i, w := range walls {
		// The A/A pairs wobble by up to 2 %; heap_alloc_mb never moves.
		aa = append(aa, pair{A: mustParse(t, resultLine(w[0], 135.6)), B: mustParse(t, resultLine(w[0]*(1+0.01*float64(i%3-1)), 135.6))})
		ab = append(ab, pair{A: mustParse(t, resultLine(w[0], 135.6)), B: mustParse(t, resultLine(w[1], 135.6))})
	}
	vs := comparePairs(metrics, aa, ab)
	wall, alloc := vs[0], vs[1]
	if wall.Verdict != "better" || wall.Wins != 4 || wall.Pairs != 4 {
		t.Errorf("job_wall_s: verdict %q, %d/%d wins; want better, 4/4", wall.Verdict, wall.Wins, wall.Pairs)
	}
	if !near(wall.MedA, 0.855) || !near(wall.MedB, 0.715) {
		t.Errorf("job_wall_s medians %v → %v, want 0.855 → 0.715", wall.MedA, wall.MedB)
	}
	if wall.Q1 > wall.Med || wall.Med > wall.Q3 || wall.Q3 > 0.875 || wall.Q1 < 0.82 {
		t.Errorf("job_wall_s ratio quartiles [%v %v %v] are not the pairs' 0.822-0.875", wall.Q1, wall.Med, wall.Q3)
	}
	if !near(wall.Band, 0.01) {
		t.Errorf("A/A band %v, want 0.01", wall.Band)
	}
	if alloc.Verdict != "flat" || alloc.Change != 0 || alloc.Wins != 0 {
		t.Errorf("heap_alloc_mb: verdict %q, change %v, %d wins; want flat, 0, 0", alloc.Verdict, alloc.Change, alloc.Wins)
	}
	// A deterministic count (A/A band 0) that wobbles by a few objects, up
	// in three pairs and down in one, is flat: below what the table prints.
	nudged := append([]pair(nil), ab...)
	for i, alloc := range []float64{135.6001, 135.6001, 135.6001, 135.5999} {
		nudged[i].B = mustParse(t, resultLine(walls[i][1], alloc))
	}
	if v := comparePairs(metrics, aa, nudged)[1]; v.Verdict != "flat" {
		t.Errorf("heap_alloc_mb wobbling by 0.0001: verdict %q, want flat", v.Verdict)
	}

	// The mirror image is "worse"; one pair against three is unresolved.
	for i := range ab {
		ab[i].A, ab[i].B = ab[i].B, ab[i].A
	}
	if v := comparePairs(metrics, aa, ab)[0]; v.Verdict != "worse" {
		t.Errorf("B slower in every pair: verdict %q", v.Verdict)
	}
	ab[0].A, ab[0].B = ab[0].B, ab[0].A
	if v := comparePairs(metrics, aa, ab)[0]; v.Verdict != "unresolved" {
		t.Errorf("B slower in 3 of 4 pairs: verdict %q, want unresolved", v.Verdict)
	}

	var out strings.Builder
	printVerdicts(&out, vs)
	if !strings.Contains(out.String(), "job_wall_s") || !strings.Contains(out.String(), "better") {
		t.Errorf("printed verdicts:\n%s", out.String())
	}
}

// TestParseResultRejectsFailedRuns: a run that failed a job is not a
// sample.
func TestParseResultRejectsFailedRuns(t *testing.T) {
	if _, err := parseResult([]byte(`{"correct":false,"attempted":8,"failed":1,"metrics":{}}`)); err == nil {
		t.Error("a run with a failed job was taken as a sample")
	}
	if _, err := parseResult([]byte("no result line")); err == nil {
		t.Error("output with no result line was taken as a sample")
	}
}
