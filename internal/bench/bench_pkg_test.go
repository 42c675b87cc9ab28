package bench

import (
	"encoding/json"
	"errors"
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

// Every experiment has a committed baseline for CI to diff, under the
// title the experiment declares, and every committed baseline is the
// report of an experiment deca-bench still runs.
func TestEveryExperimentHasABaseline(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "bench", "baseline", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	baselines := make(map[string]string, len(files)) // id -> title
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
		baselines[id] = rep.Title
	}
	for _, e := range All() {
		if title, ok := baselines[e.ID]; !ok {
			t.Errorf("experiment %s has no bench/baseline/BENCH_%s.json", e.ID, e.ID)
		} else if title != e.Title {
			t.Errorf("experiment %s is titled %q, its baseline %q", e.ID, e.Title, title)
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
	for _, name := range []string{"shuffle_records", "serve_frame_bytes"} {
		if row.Counters[name] <= 0 {
			t.Errorf("%s: counters[%q] = %d, want > 0 (counters %v)", row.Name, name, row.Counters[name], row.Counters)
		}
	}
	// A warm test process cuts no fresh span: its pages are reused.
	if row.Counters["pages_allocated"]+row.Counters["pages_reused"] <= 0 {
		t.Errorf("%s: no page taken (counters %v)", row.Name, row.Counters)
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

// The same-answer gate: the first run of a series sets the answer, and a
// later run whose checksum is off it by more than 1e-6 relative fails,
// naming its row, while one within it passes and is recorded.
func TestSeriesHoldsEveryRunToTheFirstAnswer(t *testing.T) {
	for _, c := range []struct {
		second float64
		ok     bool
	}{{1 + 2e-6, false}, {1 + 5e-7, true}} {
		sums := []float64{1, c.second}
		s := series{rep: &Report{}, job: func(workloads.Config) (workloads.Result, error) {
			res := workloads.Result{Mode: engine.ModeDeca, Checksum: sums[0]}
			sums = sums[1:]
			return res, nil
		}}
		if err := s.run("WC-inprocess", workloads.Config{}); err != nil {
			t.Fatalf("the first run of a series failed: %v", err)
		}
		err := s.run("WC-tcp", workloads.Config{})
		if (err == nil) != c.ok {
			t.Errorf("checksums 1, %.7f: err = %v, want ok=%v", c.second, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "WC-tcp") {
			t.Errorf("the failure does not name its row: %v", err)
		}
		if want := map[bool]int{true: 2, false: 1}[c.ok]; len(s.rep.Metrics) != want {
			t.Errorf("checksums 1, %.7f: %d rows recorded, want %d", c.second, len(s.rep.Metrics), want)
		}
	}
}

// A sweep records its runs in mode order; a failed run is left out, the
// other modes still run, and the failure names its row and mode.
func TestSweepRecordsInModeOrderAndGoesOnPastAFailure(t *testing.T) {
	rep := &Report{}
	runs, err := Options{}.withDefaults().sweep(rep, "lr-n1", allModes, func(cfg *workloads.Config) { cfg.PageSize = 1 },
		func(cfg workloads.Config) (workloads.Result, error) {
			if cfg.PageSize != 1 {
				t.Errorf("%v ran on an untuned config", cfg.Mode)
			}
			if cfg.Mode == engine.ModeSparkSer {
				return workloads.Result{}, errors.New("out of memory")
			}
			return workloads.Result{Mode: cfg.Mode}, nil
		})
	if err == nil || !strings.Contains(err.Error(), "lr-n1 [SparkSer]: out of memory") {
		t.Errorf("err = %v, want the SparkSer run's failure by row and mode", err)
	}
	var keys []string
	for _, m := range rep.Metrics {
		keys = append(keys, m.Key())
	}
	if got := strings.Join(keys, ", "); got != "lr-n1 [Spark], lr-n1 [Deca]" || len(runs) != 2 {
		t.Errorf("recorded %q and returned %d runs, want the Spark and Deca runs", got, len(runs))
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
