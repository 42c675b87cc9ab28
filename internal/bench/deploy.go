package bench

import (
	"deca/internal/engine"
)

// DeployComparison measures what each deployment of the same cluster
// costs: WC, LR and PR in Deca mode on (a) in-process executors with
// in-process shuffles, (b) in-process executors with TCP-framed shuffles,
// and (c) real deca-executor OS processes driven over the control plane
// (when an executor binary is available: -executor-bin under any
// -transport, or under multiproc one next to deca-bench or on $PATH). Each
// job is a series: every deployment's checksum must match in-process's.
func DeployComparison(o Options, rep *Report) error {
	rep.PaperClaim = "the paper's cluster runs Deca across real executor JVMs; the answer is " +
		"deployment-invariant while the data plane pays serialization and the control " +
		"plane pays RPC dispatch"

	kinds := []engine.TransportKind{engine.TransportInProcess, engine.TransportTCP}
	if len(o.Base.ExecutorCmd) > 0 {
		kinds = append(kinds, engine.TransportMultiproc)
	} else {
		rep.add(noExecutorBin)
	}

	wc, lr, pr := o.clusterApps()
	for _, a := range []app{wc, lr, pr} {
		s := series{rep: rep, job: a.run}
		for _, kind := range kinds {
			cfg := o.cluster(2)
			cfg.TransportKind = kind
			if err := s.run(a.name+"-"+kind.String(), cfg); err != nil {
				return err
			}
		}
	}
	return nil
}
