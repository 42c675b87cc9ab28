package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"deca/internal/engine"
)

// smokeScale shrinks every workload to a few thousand records: jobs of
// tens of milliseconds, so Tier-1 covers the harness without waiting.
const smokeScale = 0.01

// within fails the test, with every goroutine's stack, if fn outlives d:
// a hang in the harness or the engine becomes a named failure. fn runs on
// its own goroutine, so it reports through t.Error and its return value.
func within(t *testing.T, d time.Duration, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		var stacks bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&stacks, 2)
		t.Fatalf("still running after %v:\n%s", d, stacks.String())
	}
}

// settled waits for the goroutine count to return to base: engines,
// listeners and samplers a run started must all have stopped.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			var stacks bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&stacks, 1)
			t.Fatalf("%d goroutines left, started with %d:\n%s", runtime.NumGoroutine(), base, stacks.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func sameKeys(t *testing.T, what string, got map[string]value, want []metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics in the output, %d in the catalogue", what, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: output lacks %s", what, m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, catalogue says %q", what, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, the harness's
// catalogue and -list in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var b struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var list bytes.Buffer
	printList(&list)
	listed := map[string]bool{}
	for _, f := range strings.Fields(list.String()) {
		listed[f] = true
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(what string, file []entry, cat []metric) {
		if len(file) != len(cat) {
			t.Fatalf("%s: BENCHMARK.json has %d entries, the catalogue %d", what, len(file), len(cat))
		}
		for i, m := range cat {
			f := file[i]
			if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound != m.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %+v", what, i, f, m)
			}
			if !valid.MatchString(m.Name) {
				t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]", what, m.Name)
			}
			if !listed[m.Name] {
				t.Errorf("%s: -list does not print %s", what, m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(specs))
	}
	for i, w := range specs {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness {%s %s}", i, b.Workloads[i], w.Name, w.Why)
		}
		if !valid.MatchString(w.Name) || !listed[w.Name] {
			t.Errorf("workload %q: invalid name or missing from -list", w.Name)
		}
		if w.Cfg.NumExecutors*w.Cfg.Parallelism != workers {
			t.Errorf("%s: %d executors x %d workers, want %d task slots", w.Name, w.Cfg.NumExecutors, w.Cfg.Parallelism, workers)
		}
	}
	seen := map[string]bool{}
	for _, n := range append(names(endToEnd), names(perLayer)...) {
		if seen[n] {
			t.Errorf("metric %s is defined twice", n)
		}
		seen[n] = true
	}
	for _, it := range interactions {
		for _, n := range append(append([]string{}, it.Layer...), it.Moves...) {
			if !seen[n] {
				t.Errorf("interaction table names unknown metric %s", n)
			}
		}
		for _, n := range append(append([]string{}, it.On...), it.NotOn...) {
			if _, ok := findWorkload(n); !ok {
				t.Errorf("interaction table names unknown workload %s", n)
			}
		}
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench/e2e" {
		t.Errorf("paths %v, want [bench/e2e]", b.Paths)
	}
}

// TestSmoke runs all five workloads, untraced and traced, at smokeScale:
// guards hold, answers agree (jobs, replay, closed form, Spark), a run
// prints exactly the catalogue's metrics, and nothing is left behind.
func TestSmoke(t *testing.T) {
	base := runtime.NumGoroutine()
	workdir := t.TempDir()
	start := time.Now()
	for _, spec := range specs {
		cfg := runConfig{w: spec.scaled(smokeScale), seed: 7, seconds: 0, scale: smokeScale, workdir: workdir, out: io.Discard}
		within(t, 30*time.Second, func() error {
			res, sum, err := runUntraced(cfg)
			if err != nil {
				return fmt.Errorf("%s untraced: %w", spec.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != setups+minTimedJobs {
				t.Errorf("%s untraced: correct=%v failed=%d attempted=%d: %v", spec.Name, res.Correct, res.Failed, res.Attempted, sum.Errors)
			}
			sameKeys(t, spec.Name+" untraced", res.Metrics, endToEnd)
			for name, v := range res.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", spec.Name, name, v.Value)
				}
			}
			return nil
		})
		within(t, 30*time.Second, func() error {
			res, sum, err := runTraced(cfg)
			if err != nil {
				return fmt.Errorf("%s traced: %w", spec.Name, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced: correct=%v failed=%d: %v", spec.Name, res.Correct, res.Failed, sum.Errors)
			}
			sameKeys(t, spec.Name+" traced", res.Metrics, perLayer)
			for _, g := range spec.Guards {
				v := res.Metrics[g.Metric].Value
				if g.Positive != (v > 0) {
					t.Errorf("%s: guard metric %s = %v", spec.Name, g.Metric, v)
				}
			}
			// The interaction table's premise: a layer metric is non-zero
			// where it is predicted to matter, and a count is zero where
			// the prediction is no change.
			for _, it := range interactions {
				for _, name := range it.Layer {
					v := res.Metrics[name]
					if slices.Contains(it.On, spec.Name) && !(v.Value > 0) {
						t.Errorf("%s: %s = %v on an \"on\" workload", spec.Name, name, v.Value)
					}
					count := v.Unit == "MB" || v.Unit == "count"
					if slices.Contains(it.NotOn, spec.Name) && count && v.Value != 0 {
						t.Errorf("%s: count %s = %v on a \"not on\" workload", spec.Name, name, v.Value)
					}
				}
			}
			return nil
		})
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("smoke took %v, budget 15s", d)
	}
	left, err := os.ReadDir(workdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.Name() != "trace" {
			t.Errorf("run left %s behind in the work directory", e.Name())
		}
	}
	settled(t, base)
}

// TestSeeds: a seed fixes the inputs — same seed, same answer and the
// same object population; another seed, other inputs under the same
// guards.
func TestSeeds(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	for _, spec := range specs {
		w := spec.scaled(0.05)
		within(t, 60*time.Second, func() error {
			a := runJob(w, engine.ModeDeca, 5, dir, "")
			b := runJob(w, engine.ModeDeca, 5, dir, "")
			c := runJob(w, engine.ModeDeca, 6, dir, "")
			for _, s := range []sample{a, b, c} {
				if s.Err != nil {
					return fmt.Errorf("%s: %w", w.Name, s.Err)
				}
			}
			if !w.sameAnswer(a.Res.Checksum, b.Res.Checksum, 1e-9) {
				t.Errorf("%s: seed 5 gave %.17g then %.17g", w.Name, a.Res.Checksum, b.Res.Checksum)
			}
			if d := math.Abs(a.AllocsM-b.AllocsM) / a.AllocsM; d > 0.005 {
				t.Errorf("%s: heap_allocs_m %.4f then %.4f on one seed (%.2f%% apart)", w.Name, a.AllocsM, b.AllocsM, 100*d)
			}
			// WordCount's checksum is 2 per word whatever the seed (every
			// generated word is 8 characters), so only LR and PR can tell
			// two seeds apart by their answer.
			if w.Kind != "wc" && w.sameAnswer(a.Res.Checksum, c.Res.Checksum, 1e-9) {
				t.Errorf("%s: seeds 5 and 6 both gave %.17g", w.Name, a.Res.Checksum)
			}
			return nil
		})
	}
	settled(t, base)
}

// TestGolden: golden.json has an entry for seeds 1-3 of every workload,
// and WordCount's agree with the closed form.
func TestGolden(t *testing.T) {
	g, err := golden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range specs {
		for _, seed := range []string{"1", "2", "3"} {
			sum, ok := g[w.Name][seed]
			if !ok {
				t.Errorf("golden.json lacks %s seed %s", w.Name, seed)
			} else if w.Kind == "wc" && sum != w.wcClosedForm() {
				t.Errorf("golden %s seed %s = %v, closed form %v", w.Name, seed, sum, w.wcClosedForm())
			}
		}
	}
}

// TestTraceFile: the trace loads as Chrome trace events, every span but
// the root lies inside its parent, all spans carry the run's workload id,
// and engine.unexplained_share recomputes from the file alone.
func TestTraceFile(t *testing.T) {
	workdir := t.TempDir()
	for _, name := range []string{"wc-spill", "pr-iter"} {
		spec, _ := findWorkload(name)
		cfg := runConfig{w: spec.scaled(smokeScale), seed: 3, scale: smokeScale, workdir: workdir, out: io.Discard}
		var res result
		var sum summary
		within(t, 30*time.Second, func() (err error) {
			res, sum, err = runTraced(cfg)
			return err
		})
		raw, err := os.ReadFile(sum.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(raw, &events); err != nil {
			t.Fatalf("%s: not a JSON array of events: %v", name, err)
		}
		for _, e := range events {
			for _, k := range []string{"name", "ph", "pid", "tid"} {
				if _, ok := e[k]; !ok {
					t.Fatalf("%s: event %v lacks %q", name, e, k)
				}
			}
		}
		spans, ids, err := readTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 1 || !ids[name+"/seed3"] {
			t.Errorf("%s: workload ids %v, want only %s/seed3", name, ids, name)
		}
		byID := map[int]span{}
		for _, s := range spans {
			byID[s.ID] = s
		}
		roots, seen := 0, map[string]bool{}
		for _, s := range spans {
			seen[s.Name] = true
			if s.Parent == 0 {
				roots++
				continue
			}
			p, ok := byID[s.Parent]
			// Timestamps are microseconds with three decimals; allow the
			// rounding.
			if !ok || s.Start < p.Start-time.Microsecond || s.End > p.End+time.Microsecond {
				t.Errorf("%s: span %d %s [%v,%v] is not inside parent %d %s [%v,%v]", name, s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
			}
		}
		if roots != 1 {
			t.Errorf("%s: %d root spans, want 1", name, roots)
		}
		for _, want := range []string{"run", spanTracedJob, spanReplay, "job.spark", "shuffle.fill", "shuffle.encode", "transport.fetch", "shuffle.decode", "shuffle.merge", "shuffle.drain", "memory.alloc", "engine.stages"} {
			if !seen[want] {
				t.Errorf("%s: trace has no %s span", name, want)
			}
		}
		got, err := unexplainedShare(spans)
		if err != nil {
			t.Fatal(err)
		}
		if want := res.Metrics["engine.unexplained_share"].Value; math.Abs(got-want) > 1e-4 {
			t.Errorf("%s: unexplained share %v from the file, %v reported", name, got, want)
		}
	}
}

// TestDeadline: a job that outlives 10× its expected wall is reported as
// errDeadline with the goroutine stacks dumped — a hang becomes a named
// failure.
func TestDeadline(t *testing.T) {
	base := runtime.NumGoroutine()
	var dump bytes.Buffer
	stackDump = &dump
	defer func() { stackDump = os.Stderr }()
	spec, _ := findWorkload("lr-cache")
	w := spec.scaled(smokeScale)
	w.ExpectWallS = 1e-7
	s := runJob(w, engine.ModeDeca, 1, t.TempDir(), "")
	if s.Err != errDeadline {
		t.Fatalf("err = %v, want errDeadline", s.Err)
	}
	if !strings.Contains(dump.String(), "goroutine ") {
		t.Errorf("no goroutine stacks dumped: %q", dump.String())
	}
	// The abandoned job finishes on its own at this scale.
	settled(t, base)
}
