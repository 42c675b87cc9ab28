package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deca/internal/engine"
	"deca/internal/gcstats"
	"deca/internal/workloads"
)

// Every experiment must run end-to-end at tiny scale and produce a
// non-empty report. This is the integration test of the whole stack:
// datagen → engine → workloads/sqlmini → measurement → formatting.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds even at tiny scale")
	}
	opts := Options{Scale: 0.02, Base: workloads.Config{SpillDir: t.TempDir(), Parallelism: 2}}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			rep, err := exp.Run(opts)
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if len(rep.Rows) == 0 {
				t.Fatalf("%s: empty report", exp.ID)
			}
			s := rep.String()
			if !strings.Contains(s, exp.ID) || !strings.Contains(s, "paper:") {
				t.Errorf("%s: malformed report:\n%s", exp.ID, s)
			}
		})
	}
}

// Every experiment has a committed baseline for CI to diff, and every
// committed baseline is the report of an experiment deca-bench still runs.
func TestEveryExperimentHasABaseline(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "bench", "baseline", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	baselines := make(map[string]bool, len(files))
	for _, f := range files {
		id := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json")
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if rep.ID != id || len(rep.Metrics) == 0 {
			t.Errorf("%s holds %d rows of experiment %q", f, len(rep.Metrics), rep.ID)
		}
		baselines[id] = true
	}
	for _, e := range All() {
		if !baselines[e.ID] {
			t.Errorf("experiment %s has no bench/baseline/BENCH_%s.json", e.ID, e.ID)
		}
		delete(baselines, e.ID)
	}
	for id := range baselines {
		t.Errorf("bench/baseline/BENCH_%s.json belongs to no experiment", id)
	}
}

// A workload row of a -json report carries the run's counter vector by
// row name, the page-manager and serve-frame rows included, while a
// hand-built row carries none.
func TestJSONRowsCarryTheRunsCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment")
	}
	exp, _ := Find("fig8b")
	rep, err := exp.Run(Options{Scale: 0.01, Base: workloads.Config{
		SpillDir: t.TempDir(), Parallelism: 2, NumExecutors: 2, TransportKind: engine.TransportTCP,
	}})
	if err != nil {
		t.Fatal(err)
	}
	rep.metric(Metric{Name: "hand-built", Bytes: 1})
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc Report
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	row := doc.Metrics[1] // the first size's Deca run
	if row.Mode != engine.ModeDeca.String() {
		t.Fatalf("row %s is a %s run, want Deca", row.Name, row.Mode)
	}
	for _, name := range []string{"shuffle_records", "pages_allocated", "serve_frame_bytes"} {
		if row.Counters[name] <= 0 {
			t.Errorf("%s: counters[%q] = %d, want > 0 (counters %v)", row.Name, name, row.Counters[name], row.Counters)
		}
	}
	if last := doc.Metrics[len(doc.Metrics)-1]; last.Counters != nil {
		t.Errorf("a hand-built row carries counters %v", last.Counters)
	}
}

// The positive control of Figures 8(a)/9(a)'s asserted shape: a Deca
// timeline shaped like Spark's fails it, and the bound sits at exactly a
// quarter of Spark's peak above the floor.
func TestLifetimeShape(t *testing.T) {
	// Counts are what each run added to a floor of 1,000 objects.
	series := func(objects ...uint64) timeline {
		tl := timeline{start: gcstats.Snapshot{HeapObjects: 1_000}}
		for _, n := range objects {
			tl.samples = append(tl.samples, gcstats.Snapshot{HeapObjects: 1_000 + n})
		}
		return tl
	}
	spark := series(54_000, 120_000, 61_000, 112_000)
	for _, c := range []struct {
		name string
		deca timeline
		ok   bool
	}{
		{"flat pages", series(9_700, 9_800, 9_750), true},
		{"a quarter", series(1_000, 30_000), true},
		{"one object over", series(30_001, 1_000), false},
		{"Spark-shaped", spark, false},
	} {
		if err := checkLifetimeShape(spark, c.deca); (err == nil) != c.ok {
			t.Errorf("%s: checkLifetimeShape = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("table3"); !ok {
		t.Error("Find(table3) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) should fail")
	}
}

func TestOptionsScaled(t *testing.T) {
	o := Options{Scale: 0.5}
	if got := o.scaled(100); got != 50 {
		t.Errorf("scaled(100) = %d", got)
	}
	if got := o.scaled(1); got != 1 {
		t.Errorf("scaled floor broken: %d", got)
	}
	o = Options{}.withDefaults()
	if o.Scale != 1 || o.Base.Parallelism != 4 {
		t.Errorf("defaults: %+v", o)
	}
}
