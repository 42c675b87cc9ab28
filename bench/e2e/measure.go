package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"deca/internal/engine"
	"deca/internal/gcstats"
	"deca/internal/workloads"
)

// stackDump receives the goroutine stacks of a job past its deadline.
var stackDump io.Writer = os.Stderr

// errDeadline marks a job that outlived its deadline. The job's
// goroutines cannot be cancelled, so the caller must exit the process.
var errDeadline = errors.New("job deadline exceeded")

// sample is everything measured around one job.
type sample struct {
	WallS, CPUS      float64
	AllocMB, AllocsM float64
	PeakHeapMB       float64
	PeakHeapObjectsM float64
	GC               gcstats.Delta
	Res              workloads.Result
	Start, End       time.Time
	Err              error
	counters         map[string]float64
}

const mb = 1 << 20

// jobCounters maps a job's Result onto the count metrics the guards and
// the traced run report.
func jobCounters(r workloads.Result) map[string]float64 {
	return map[string]float64{
		"cache.resident_mb":           float64(r.CacheBytes) / mb,
		"cache.swap_out_mb":           float64(r.SwapBytes) / mb,
		"shuffle.spill_mb":            float64(r.ShuffleSpillBytes) / mb,
		"transport.remote_mb":         float64(r.RemoteShuffleBytes) / mb,
		"transport.remote_fetches":    float64(r.RemoteShuffleFetches),
		"transport.zero_copy_pages":   float64(r.PagesServedZeroCopy),
		"transport.sendfile_mb":       float64(r.BytesSendfile) / mb,
		"transport.userspace_copy_mb": float64(r.ServeUserspaceCopyBytes) / mb,
		"engine.tasks_failed":         float64(r.TasksFailed),
		"engine.task_retries":         float64(r.TaskRetries),
	}
}

// heapSampler tracks the maxima of live heap bytes and objects at a
// 10 ms tick. runtime/metrics reads do not stop the world.
type heapSampler struct {
	stop             chan struct{}
	done             sync.WaitGroup
	maxBytes, maxObj uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/gc/heap/objects:objects"},
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.maxBytes = max(h.maxBytes, s[0].Value.Uint64())
			h.maxObj = max(h.maxObj, s[1].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling; the maxima are safe to read once it returns.
func (h *heapSampler) Stop() {
	close(h.stop)
	h.done.Wait()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// settle returns the heap to a common starting state between jobs.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// call runs the workload's public entry point once.
func (w workload) call(cfg workloads.Config) (workloads.Result, error) {
	switch w.Kind {
	case "wc":
		return workloads.WordCount(cfg, w.WC)
	case "lr":
		return workloads.LogisticRegression(cfg, w.LR)
	case "pr":
		return workloads.PageRank(cfg, w.PR)
	}
	return workloads.Result{}, fmt.Errorf("unknown workload kind %q", w.Kind)
}

// runJob runs one job on a fresh engine in a fresh spill subdirectory of
// dir and measures it from outside. A job that errors or breaks a guard
// comes back with Err set; one that outlives 10× the expected wall comes
// back with errDeadline after its goroutine stacks went to stderr.
func runJob(w workload, mode engine.Mode, seed int64, dir, traceOut string) sample {
	spill, err := os.MkdirTemp(dir, "job-")
	if err != nil {
		return sample{Err: err}
	}
	defer os.RemoveAll(spill)
	cfg := w.Cfg
	cfg.Mode, cfg.Seed, cfg.SpillDir, cfg.TraceOut = mode, seed, spill, traceOut

	settle()
	hs := startHeapSampler()
	before, cpu0 := gcstats.Read(), cpuSeconds()
	type outcome struct {
		res workloads.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := w.call(cfg)
		done <- outcome{res, err}
	}()
	deadline := time.Duration(10 * w.ExpectWallS * float64(time.Second))
	var out outcome
	select {
	case out = <-done:
	case <-time.After(deadline):
		hs.Stop()
		fmt.Fprintf(stackDump, "e2e: %s job exceeded its %v deadline; goroutines:\n", w.Name, deadline)
		pprof.Lookup("goroutine").WriteTo(stackDump, 2)
		return sample{Err: errDeadline}
	}
	delta, cpu1 := gcstats.Read().Sub(before), cpuSeconds()
	hs.Stop()

	s := sample{
		WallS:            delta.Wall.Seconds(),
		CPUS:             cpu1 - cpu0,
		AllocMB:          float64(delta.AllocBytes) / mb,
		AllocsM:          float64(delta.AllocObjects) / 1e6,
		PeakHeapMB:       float64(hs.maxBytes) / mb,
		PeakHeapObjectsM: float64(hs.maxObj) / 1e6,
		GC:               delta,
		Res:              out.res,
		Start:            before.When,
		End:              before.When.Add(delta.Wall),
		Err:              out.err,
		counters:         jobCounters(out.res),
	}
	if s.Err == nil && mode == engine.ModeDeca {
		s.Err = w.checkGuards(s.counters)
	}
	return s
}

func (w workload) checkGuards(c map[string]float64) error {
	for _, g := range w.Guards {
		v := c[g.Metric]
		if g.Positive && !(v > 0) {
			return fmt.Errorf("guard: %s = %g, want > 0", g.Metric, v)
		}
		if !g.Positive && v != 0 {
			return fmt.Errorf("guard: %s = %g, want 0", g.Metric, v)
		}
	}
	return nil
}

// sameAnswer compares checksums: WordCount folds integers and must agree
// exactly; LR and PR sum floats in schedule order and get tol relative.
func (w workload) sameAnswer(a, b, tol float64) bool {
	if w.Kind == "wc" {
		return a == b
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// wcClosedForm is WordCount's checksum without running the job: every
// word datagen emits is 'w' plus seven hex digits (keys stay below 16^7),
// so each of the lines×words tokens contributes 1 + 8 mod 7 = 2. The
// traced run recomputes the sum over datagen.Words' actual output.
func (w workload) wcClosedForm() float64 {
	perPart := max(w.WC.Lines/w.Cfg.Partitions, 1)
	return 2 * float64(perPart*w.Cfg.Partitions*w.WC.WordsPerLine)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
