package bench

import (
	"fmt"

	"deca/internal/chaos"
	"deca/internal/engine"
	"deca/internal/workloads"
)

// FaultTolerance measures what fault injection costs: the same WC and PR
// jobs, on both transports, with a seeded per-attempt task failure rate
// swept over 0/1/5/10%. Each job on each transport is a series: every
// faulty run must still produce the fault-free checksum (the scheduler's
// retries absorb the failures); the report shows the wall-time inflation
// and the recomputed-attempt volume (retries) each failure rate buys, plus
// an executor-kill row where a quarter of the cluster dies mid-job and is
// blacklisted.
func FaultTolerance(o Options, rep *Report) error {
	rep.PaperClaim = "Spark-style recovery re-runs failed tasks and re-registers their map " +
		"outputs; results stay identical while wall time grows with the failure rate"

	// One base config; each run sets only its deployment and fault profile.
	// The kill row needs executors to spare; MaxTaskRetries is pinned so the
	// 10% rows survive a streak (-max-retries still sets the other
	// experiments').
	base := o.cluster(4)
	base.Chaos, base.MaxTaskRetries = nil, 4
	// A killed run's last executor dies after two of its attempts started,
	// and two failures blacklist it.
	killed := func(cfg workloads.Config) workloads.Config {
		inj := chaos.New(o.chaosSeed())
		inj.KillExecutor, inj.KillAfter = cfg.NumExecutors-1, 2
		cfg.Chaos, cfg.MaxExecutorFailures = inj, 2
		return cfg
	}

	wc, _, pr := o.clusterApps()
	for _, kind := range []engine.TransportKind{engine.TransportInProcess, engine.TransportTCP} {
		for _, a := range []app{wc, pr} {
			s := series{rep: rep, job: a.run}
			cfg := base
			cfg.TransportKind = kind
			for _, rate := range []float64{0, 0.01, 0.05, 0.10} {
				faulty := cfg
				if rate > 0 {
					faulty.Chaos = chaos.New(o.chaosSeed())
					faulty.Chaos.TaskFailureRate = rate
				}
				if err := s.run(fmt.Sprintf("%s-%v-fail%.0f%%", a.name, kind, 100*rate), faulty); err != nil {
					return err
				}
			}
			if err := s.run(fmt.Sprintf("%s-%v-kill", a.name, kind), killed(cfg)); err != nil {
				return err
			}
		}
	}

	// Multiproc rows (when a deca-executor binary is around): the same WC
	// job across real executor processes, fault-free, with fetch faults
	// and with a real SIGKILL of one child mid-job — the process-mode
	// overhead vs the tcp rows above, answers still identical.
	if len(o.Base.ExecutorCmd) == 0 {
		rep.add(noExecutorBin)
		return nil
	}
	mp := base
	mp.TransportKind = engine.TransportMultiproc
	fetch := mp
	// The rate rides in the plan: each executor process builds its own
	// injector and fails fetches inside the data plane.
	fetch.FetchFailureRate = 0.2
	s := series{rep: rep, job: wc.run}
	for _, r := range []struct {
		name string
		cfg  workloads.Config
	}{{"none", mp}, {"fetch", fetch}, {"kill", killed(mp)}} {
		if err := s.run("WC-multiproc-"+r.name, r.cfg); err != nil {
			return err
		}
	}
	return nil
}
