package main

import (
	"strings"
	"testing"
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
