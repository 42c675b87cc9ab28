package bench

import (
	"fmt"
	"math"

	"deca/internal/chaos"
	"deca/internal/engine"
	"deca/internal/workloads"
)

// FaultTolerance measures what fault injection costs: the same WC and PR
// jobs, on both transports, with a seeded per-attempt task failure rate
// swept over 0/1/5/10%. Every faulty run must still produce the
// fault-free checksum (the scheduler's retries absorb the failures); the
// report shows the wall-time inflation and the recomputed-attempt volume
// (retries) each failure rate buys, plus an executor-kill row where a
// quarter of the cluster dies mid-job and is blacklisted.
func FaultTolerance(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "faults",
		Title: "Fault tolerance: wall time and recomputed attempts vs injected failure rate",
		PaperClaim: "Spark-style recovery re-runs failed tasks and re-registers their map " +
			"outputs; results stay identical while wall time grows with the failure rate",
	}

	type app struct {
		name string
		run  func(cfg workloads.Config) (workloads.Result, error)
	}
	apps := []app{
		{"WC", func(cfg workloads.Config) (workloads.Result, error) {
			return workloads.WordCount(cfg, workloads.WCParams{
				DistinctKeys: o.scaled(100_000), WordsPerLine: 10, Lines: o.scaled(100_000)})
		}},
		{"PR", func(cfg workloads.Config) (workloads.Result, error) {
			return workloads.PageRank(cfg, workloads.GraphParams{
				Vertices: int64(o.scaled(20_000)), Edges: o.scaled(100_000),
				Skew: 1.2, Iterations: 3})
		}},
	}
	execs := o.Base.NumExecutors
	if execs < 4 {
		execs = 4 // the kill row needs executors to spare
	}
	rates := []float64{0, 0.01, 0.05, 0.10}
	// One base config per transport; each run clones it and sets only its
	// fault profile. MaxTaskRetries is pinned so the 10% rows survive a
	// streak (the flag-driven default stays available via -max-retries on
	// the other experiments).
	baseCfg := func(kind engine.TransportKind) workloads.Config {
		cfg := o.baseCfg(engine.ModeDeca)
		cfg.NumExecutors = execs
		cfg.Partitions = o.Base.Parallelism * execs
		cfg.TransportKind = kind
		cfg.Deploy = engine.DeployInProcess // the classic rows sweep transports themselves
		cfg.Chaos = nil
		cfg.MaxTaskRetries = 4
		return cfg
	}

	for _, kind := range []engine.TransportKind{engine.TransportInProcess, engine.TransportTCP} {
		for _, a := range apps {
			var baseline float64
			for _, rate := range rates {
				cfg := baseCfg(kind)
				if rate > 0 {
					inj := chaos.New(o.chaosSeed())
					inj.TaskFailureRate = rate
					cfg.Chaos = inj
				}
				res, err := a.run(cfg)
				if err != nil {
					return nil, fmt.Errorf("%s[%v] rate %.0f%%: %w", a.name, kind, 100*rate, err)
				}
				if rate == 0 {
					baseline = res.Checksum
				} else if !checksumClose(res.Checksum, baseline) {
					return nil, fmt.Errorf("%s[%v] rate %.0f%%: checksum %g != fault-free %g",
						a.name, kind, 100*rate, res.Checksum, baseline)
				}
				rep.record(fmt.Sprintf("%s-%v-fail%.0f%%", a.name, kind, 100*rate), res)
				rep.add("%-3s %-9s fail=%4.0f%% exec=%-9s retries=%-4d failed=%-4d checksum=%.6g",
					a.name, kind, 100*rate, fmtDur(res.Wall),
					res.TaskRetries, res.TasksFailed, res.Checksum)
			}

			// One executor kill mid-job: a quarter of the cluster dies, is
			// blacklisted, and its partitions recompute elsewhere.
			inj := chaos.New(o.chaosSeed())
			inj.KillExecutor = execs - 1
			inj.KillAfter = 2
			cfg := baseCfg(kind)
			cfg.Chaos = inj
			cfg.MaxExecutorFailures = 2
			res, err := a.run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s[%v] kill: %w", a.name, kind, err)
			}
			if !checksumClose(res.Checksum, baseline) {
				return nil, fmt.Errorf("%s[%v] kill: checksum %g != fault-free %g",
					a.name, kind, res.Checksum, baseline)
			}
			rep.record(fmt.Sprintf("%s-%v-kill", a.name, kind), res)
			rep.add("%-3s %-9s kill x1    exec=%-9s retries=%-4d blacklisted=%d checksum=%.6g",
				a.name, kind, fmtDur(res.Wall), res.TaskRetries, res.ExecutorsBlacklisted, res.Checksum)
		}
	}

	// Multiproc rows (when a deca-executor binary is around): the same WC
	// job across real executor processes, fault-free and with a real
	// SIGKILL of one child mid-job — the process-mode overhead vs the tcp
	// rows above, answers still identical.
	if len(o.Base.ExecutorCmd) > 0 {
		baseline := 0.0
		for _, row := range []string{"none", "fetch", "kill"} {
			cfg := baseCfg(engine.TransportInProcess)
			cfg.Deploy = engine.DeployMultiproc
			cfg.ExecutorCmd = o.Base.ExecutorCmd
			switch row {
			case "fetch":
				// The rate rides in the plan: each executor process builds
				// its own injector and fails fetches inside the data plane.
				cfg.FetchFailureRate = 0.2
			case "kill":
				inj := chaos.New(o.chaosSeed())
				inj.KillExecutor = execs - 1
				inj.KillAfter = 2
				cfg.Chaos = inj
				cfg.MaxExecutorFailures = 2
			}
			res, err := apps[0].run(cfg)
			if err != nil {
				return nil, fmt.Errorf("WC[multiproc] %s: %w", row, err)
			}
			if row == "none" {
				baseline = res.Checksum
			} else if !checksumClose(res.Checksum, baseline) {
				return nil, fmt.Errorf("WC[multiproc] %s: checksum %g != fault-free %g",
					row, res.Checksum, baseline)
			}
			label := "fail=   0%"
			switch row {
			case "fetch":
				label = "fetch= 20%"
			case "kill":
				label = "SIGKILL x1"
			}
			rep.record("WC-multiproc-"+row, res)
			rep.add("%-3s %-9s %s exec=%-9s retries=%-4d blacklisted=%d checksum=%.6g",
				"WC", "multiproc", label, fmtDur(res.Wall),
				res.TaskRetries, res.ExecutorsBlacklisted, res.Checksum)
		}
	} else {
		rep.add("(multiproc rows skipped: no deca-executor binary — run deca-bench -deploy multiproc)")
	}
	return rep, nil
}

// checksumClose is the shared identical-answer gate: float checksums are
// only equal to ~1e-6 relative tolerance across schedules, because
// cross-partition folds are scheduler-order sensitive.
func checksumClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Abs(b)
}
