package main

import (
	"strings"
	"testing"

	"deca/internal/bench"
)

type (
	report = bench.Report
	metric = bench.Metric
)

func row(name string, wall, checksum float64) metric {
	return metric{Name: name, WallMS: wall, Checksum: checksum}
}

func TestDiffPassesOnMatchingReports(t *testing.T) {
	base := report{ID: "wc", Metrics: []metric{row("WC/deca", 100, 42.5)}}
	cur := report{ID: "wc", Metrics: []metric{row("WC/deca", 110, 42.5)}}
	var out strings.Builder
	if diff(base, cur, 0.25, &out) {
		t.Fatalf("matching reports failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ok   WC/deca") {
		t.Errorf("expected ok row, got:\n%s", out.String())
	}
}

func TestDiffFailsOnChecksumDrift(t *testing.T) {
	base := report{Metrics: []metric{row("WC/deca", 100, 42.5)}}
	cur := report{Metrics: []metric{row("WC/deca", 100, 43.5)}}
	var out strings.Builder
	if !diff(base, cur, 0.25, &out) {
		t.Fatal("checksum drift not flagged as failure")
	}
	if !strings.Contains(out.String(), "answers drifted") {
		t.Errorf("missing drift message:\n%s", out.String())
	}
}

func TestDiffFailsWhenBaselineRowVanishes(t *testing.T) {
	base := report{Metrics: []metric{row("WC/deca", 100, 42.5), row("WC/spark", 200, 42.5)}}
	cur := report{Metrics: []metric{row("WC/deca", 100, 42.5)}}
	var out strings.Builder
	if !diff(base, cur, 0.25, &out) {
		t.Fatal("vanished baseline row not flagged as failure")
	}
	if !strings.Contains(out.String(), "missing from current report") {
		t.Errorf("missing coverage message:\n%s", out.String())
	}
}

// A metric present in the fresh run but absent from the baseline is a
// hard failure with a message naming the stale baseline — not a silent
// informational line a CI log scroller would never see.
func TestDiffFailsWhenBaselineLacksMetric(t *testing.T) {
	base := report{ID: "wc", Metrics: []metric{row("WC/deca", 100, 42.5)}}
	cur := report{Metrics: []metric{row("WC/deca", 100, 42.5), row("WC/deca-tcp", 120, 42.5)}}
	var out strings.Builder
	if !diff(base, cur, 0.25, &out) {
		t.Fatal("metric missing from baseline not flagged as failure")
	}
	got := out.String()
	if !strings.Contains(got, "FAIL WC/deca-tcp") ||
		!strings.Contains(got, "not in baseline wc") ||
		!strings.Contains(got, "regenerate it") {
		t.Errorf("missing clear stale-baseline message:\n%s", got)
	}
}

func TestDiffWallRegressionOnlyWarns(t *testing.T) {
	base := report{Metrics: []metric{row("WC/deca", 100, 42.5)}}
	cur := report{Metrics: []metric{row("WC/deca", 200, 42.5)}}
	var out strings.Builder
	if diff(base, cur, 0.25, &out) {
		t.Fatalf("wall regression must warn, not fail:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "WARN WC/deca") {
		t.Errorf("missing wall warning:\n%s", out.String())
	}
}

// TestDiffTellsModesApart: an experiment that records one row per mode
// under one name is compared mode by mode, not last-row-wins.
func TestDiffTellsModesApart(t *testing.T) {
	modeRow := func(mode string, wall float64) metric {
		return metric{Name: "lr-n500000", Mode: mode, WallMS: wall, Checksum: 2.05}
	}
	base := report{ID: "fig9b", Metrics: []metric{modeRow("Spark", 760), modeRow("Deca", 150)}}
	var out strings.Builder
	if diff(base, report{Metrics: []metric{modeRow("Spark", 770), modeRow("Deca", 400)}}, 0.25, &out) {
		t.Fatalf("a wall regression must only warn:\n%s", out.String())
	}
	if got := out.String(); !strings.Contains(got, "ok   lr-n500000 [Spark]") || !strings.Contains(got, "WARN lr-n500000 [Deca]") {
		t.Errorf("rows were not compared mode by mode:\n%s", got)
	}
	out.Reset()
	if !diff(base, report{Metrics: []metric{modeRow("Deca", 150)}}, 0.25, &out) {
		t.Errorf("a missing mode went unnoticed:\n%s", out.String())
	}
}

// A row recorded twice fails whichever report holds it: a map keyed by row
// would keep one of the two, and every coverage check would then pass.
func TestDiffFailsOnARowRecordedTwice(t *testing.T) {
	once := report{ID: "fig9b", Metrics: []metric{row("lr-n50000", 100, 2.05), row("lr-n100000", 200, 2.1)}}
	twice := report{ID: "fig9b", Metrics: []metric{row("lr-n50000", 100, 2.05), row("lr-n50000", 100, 2.05), row("lr-n100000", 200, 2.1)}}
	for _, c := range []struct {
		name      string
		base, cur report
		side      string
	}{
		{"current", once, twice, "current"},
		{"baseline", twice, once, "baseline"},
	} {
		var out strings.Builder
		if !diff(c.base, c.cur, 0.25, &out) {
			t.Errorf("%s: a row recorded twice passed:\n%s", c.name, out.String())
		}
		if !strings.Contains(out.String(), "FAIL lr-n50000") || !strings.Contains(out.String(), "recorded twice in the "+c.side+" report") {
			t.Errorf("%s: no line names the row recorded twice:\n%s", c.name, out.String())
		}
	}
}

// A wall under the floor is not compared, however far it moved: 0.4 ms to
// 1.0 ms is a page fault's worth. The same ratio above it warns.
func TestDiffComparesNoWallUnderTheFloor(t *testing.T) {
	for _, c := range []struct {
		base, cur float64
		warn      bool
	}{{0.4, 1.0, false}, {40, 100, true}} {
		var out strings.Builder
		if diff(report{Metrics: []metric{row("ser/deca", c.base, 0)}}, report{Metrics: []metric{row("ser/deca", c.cur, 0)}}, 0.25, &out) {
			t.Fatalf("%v -> %v ms failed:\n%s", c.base, c.cur, out.String())
		}
		if got := strings.Contains(out.String(), "WARN"); got != c.warn {
			t.Errorf("%v -> %v ms: warned %v, want %v:\n%s", c.base, c.cur, got, c.warn, out.String())
		}
	}
}

// A workload row's faults and system CPU are printed, and never fail or
// warn a diff however far they moved.
func TestDiffPrintsKernelCostUngated(t *testing.T) {
	base := report{Metrics: []metric{{Name: "WC", WallMS: 100, Checksum: 1, MinorFaults: 10, SysMS: 1}}}
	cur := report{Metrics: []metric{{Name: "WC", WallMS: 100, Checksum: 1, MinorFaults: 46000, SysMS: 150}}}
	var out strings.Builder
	if diff(base, cur, 0.25, &out) || strings.Contains(out.String(), "WARN") {
		t.Fatalf("faults and sys CPU gated the diff:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "46000 minor faults, sys 150.0ms") {
		t.Errorf("faults and sys CPU not printed:\n%s", out.String())
	}
}
