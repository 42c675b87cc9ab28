package bench

import (
	"fmt"
	"time"

	"deca/internal/gcstats"
	"deca/internal/workloads"
)

// Fig8aWCLifetime reproduces Figure 8(a): sample the live heap-object
// count and cumulative GC time while WordCount runs, in Spark and Deca
// modes. Spark's eager-combining buffer churns boxed values, so the
// object count oscillates and GC time climbs; Deca's page buffers keep
// both nearly flat. The run fails unless Deca's peak object count is a
// quarter of Spark's or less (lifetime).
func Fig8aWCLifetime(o Options, rep *Report) error {
	rep.PaperClaim = "Spark: Tuple2 count fluctuates with frequent GC during shuffle; " +
		"Deca: object count flat, GC time near zero"
	return o.lifetime(rep, "wc-lifetime", wcJob(workloads.WCParams{
		DistinctKeys: o.scaled(200_000), WordsPerLine: 10, Lines: o.scaled(400_000)}))
}

// Fig8bWordCount reproduces Figure 8(b): WC execution time across three
// data sizes and two distinct-key counts, Spark vs Deca.
func Fig8bWordCount(o Options, rep *Report) error {
	rep.PaperClaim = "Deca reduces execution time 10-58%; the gap widens with more distinct keys"
	sizes := []struct {
		name  string
		lines int
	}{
		{"small", o.scaled(200_000)},
		{"medium", o.scaled(400_000)},
		{"large", o.scaled(600_000)},
	}
	keyCounts := []struct {
		name string
		keys int
	}{
		{"10K-keys", o.scaled(10_000)},
		{"1M-keys", o.scaled(1_000_000)},
	}
	for _, kc := range keyCounts {
		for _, sz := range sizes {
			runs, err := o.sweep(rep, kc.name+"/"+sz.name, sparkDeca, nil,
				wcJob(workloads.WCParams{DistinctKeys: kc.keys, WordsPerLine: 10, Lines: sz.lines}))
			if err != nil {
				return err
			}
			rep.add("%-10s %-7s %s sparkGC=%.3fs decaGC=%.3fs",
				kc.name, sz.name, walls(runs), runs[0].GC.GCCPUSeconds, runs[1].GC.GCCPUSeconds)
		}
	}
	return nil
}

// Fig9aLRLifetime reproduces Figure 9(a): the cached-object population
// during iterative LR. Spark holds every LabeledPoint live for the whole
// run (futile full GCs); Deca's cache is a handful of pages. The shape is
// asserted as Figure 8(a)'s is.
func Fig9aLRLifetime(o Options, rep *Report) error {
	rep.PaperClaim = "Spark: object count stable and huge, repeated full GCs reclaim nothing; " +
		"Deca: objects reduced to pages, GC quiet"
	return o.lifetime(rep, "lr-lifetime", lrJob(workloads.LRParams{
		Points: o.scaled(150_000), Dim: 10, Iterations: 10}))
}

// decaPeakShare is the shape Figures 8(a) and 9(a) assert: Deca's peak
// heap-object count is at most 1/decaPeakShare of Spark's in the same run.
// On a 2-core VM fig8a, whose lines reuse one buffer per walk, measured
// 96-224x at -scale 0.02/0.05 and 7,051-7,164x at -scale 1 (Deca ≈ 700-870
// objects); fig9a, whose points reuse one vector per walk, 85-122x and 1,158-1,236x.
const decaPeakShare = 4

// lifetime runs j in Spark and then in Deca mode, sampling the collector
// every millisecond while each runs (the paper's periodic JProfiler
// recording, fine enough to see a short run's peak), renders each mode's
// timeline, and fails the experiment unless the two have the asserted
// shape.
func (o Options) lifetime(rep *Report, name string, j job) error {
	var timelines [2]timeline
	for i, mode := range sparkDeca {
		gcstats.ForceGC() // neither mode's timeline starts on the other's garbage
		tl := timeline{start: gcstats.Read()}
		s := gcstats.StartSampler(time.Millisecond, func(snap gcstats.Snapshot) {
			tl.samples = append(tl.samples, snap)
		})
		res, err := j(o.baseCfg(mode))
		s.Stop() // the sampler goroutine has exited: tl is ours
		if err != nil {
			return err
		}
		rep.record(name, res)
		tl.samples = append(tl.samples, gcstats.Read())
		timelines[i] = tl
		last := tl.samples[len(tl.samples)-1]
		rep.add("%-9s exec=%-9s samples=%-4d peak-heap-objects=%-9d gc=%.3fs cycles=%-3d cache=%s",
			mode, fmtDur(res.Wall), len(tl.samples), tl.peakObjects(),
			last.GCCPUSeconds-tl.start.GCCPUSeconds, last.NumGC-tl.start.NumGC, mb(res.Counters.CacheBytes()))
		for _, row := range tl.series(6) {
			rep.add("    %s", row)
		}
	}
	if err := checkLifetimeShape(timelines[0], timelines[1]); err != nil {
		return err
	}
	rep.add("peak heap objects Spark/Deca = %.1fx (asserted >= %dx)",
		float64(timelines[0].peakObjects())/float64(max(timelines[1].peakObjects(), 1)), decaPeakShare)
	return nil
}

// checkLifetimeShape returns an error unless Deca's peak heap-object
// count is at most 1/decaPeakShare of Spark's.
func checkLifetimeShape(spark, deca timeline) error {
	if s, d := spark.peakObjects(), deca.peakObjects(); d*decaPeakShare > s {
		return fmt.Errorf("Deca's peak of %d heap objects is more than 1/%d of Spark's %d: "+
			"the lifetime shape of Figures 8(a)/9(a) does not hold", d, decaPeakShare, s)
	}
	return nil
}

// timeline is one run's collector samples and the snapshot taken before
// the run, after a forced collection. Its figures count from that
// snapshot: the time, the GC work and the heap objects the run added to
// what the process already held.
type timeline struct {
	start   gcstats.Snapshot
	samples []gcstats.Snapshot
}

// peakObjects is the most heap objects, live or not yet swept, the run
// held at any sample.
func (t timeline) peakObjects() uint64 {
	var peak uint64
	for _, s := range t.samples {
		peak = max(peak, s.HeapObjects)
	}
	return peak - min(peak, t.start.HeapObjects)
}

// series renders about n points of the timeline for plotting.
func (t timeline) series(n int) []string {
	step := max(len(t.samples)/n, 1)
	var out []string
	for i := 0; i < len(t.samples); i += step {
		s := t.samples[i]
		out = append(out, fmt.Sprintf("t=%-8s objects=%-9d gc=%.3fs",
			s.When.Sub(t.start.When).Round(time.Millisecond),
			s.HeapObjects-min(s.HeapObjects, t.start.HeapObjects), s.GCCPUSeconds-t.start.GCCPUSeconds))
	}
	return out
}
