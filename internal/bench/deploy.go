package bench

import (
	"deca/internal/engine"
)

// DeployComparison measures what each deployment of the same cluster
// costs: WC, LR and PR in Deca mode on (a) in-process executors with
// in-process shuffles, (b) in-process executors with TCP-framed shuffles,
// and (c) real deca-executor OS processes driven over the control plane
// (when an executor binary is available — deca-bench -deploy multiproc
// or -executor-bin). Each job is a series: every deployment's checksum
// must match the in-process run's.
func DeployComparison(o Options, rep *Report) error {
	rep.PaperClaim = "the paper's cluster runs Deca across real executor JVMs; the answer is " +
		"deployment-invariant while the data plane pays serialization and the control " +
		"plane pays RPC dispatch"

	// A row is a deployment and, for the in-process ones, a transport.
	type row struct {
		name      string
		deploy    engine.DeployKind
		transport engine.TransportKind
	}
	rows := []row{
		{"inprocess", engine.DeployInProcess, engine.TransportInProcess},
		{"tcp", engine.DeployInProcess, engine.TransportTCP},
	}
	if len(o.Base.ExecutorCmd) > 0 {
		rows = append(rows, row{"multiproc", engine.DeployMultiproc, engine.TransportInProcess})
	} else {
		rep.add(noExecutorBin)
	}

	wc, lr, pr := o.clusterApps()
	for _, a := range []app{wc, lr, pr} {
		s := series{rep: rep, job: a.run}
		for _, r := range rows {
			cfg := o.cluster(2)
			cfg.Deploy, cfg.TransportKind = r.deploy, r.transport
			if err := s.run(a.name+"-"+r.name, cfg); err != nil {
				return err
			}
		}
	}
	return nil
}
