package bench

import (
	"fmt"

	"deca/internal/engine"
	"deca/internal/obs"
	"deca/internal/workloads"
)

// DeployComparison measures what each deployment of the same cluster
// costs: WC, LR and PR in Deca mode on (a) in-process executors with
// in-process shuffles, (b) in-process executors with TCP-framed shuffles,
// and (c) real deca-executor OS processes driven over the control plane
// (when an executor binary is available — deca-bench -deploy multiproc
// or -executor-bin). Checksums must match the in-process run exactly:
// the deployment moves bytes and processes around, never answers.
func DeployComparison(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "deploy",
		Title: "Deployment: in-process vs TCP frames vs real executor processes",
		PaperClaim: "the paper's cluster runs Deca across real executor JVMs; the answer is " +
			"deployment-invariant while the data plane pays serialization and the control " +
			"plane pays RPC dispatch",
	}

	execs := o.Base.NumExecutors
	if execs < 2 {
		execs = 2
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
		{"LR", func(cfg workloads.Config) (workloads.Result, error) {
			return workloads.LogisticRegression(cfg, workloads.LRParams{
				Points: o.scaled(200_000), Dim: 10, Iterations: 5})
		}},
		{"PR", func(cfg workloads.Config) (workloads.Result, error) {
			return workloads.PageRank(cfg, workloads.GraphParams{
				Vertices: int64(o.scaled(20_000)), Edges: o.scaled(100_000),
				Skew: 1.2, Iterations: 3})
		}},
	}

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
		rep.add("(multiproc rows skipped: no deca-executor binary — run deca-bench -deploy multiproc)")
	}

	for _, a := range apps {
		var baseline float64
		for i, r := range rows {
			cfg := o.baseCfg(engine.ModeDeca)
			cfg.NumExecutors = execs
			cfg.Partitions = o.Base.Parallelism * execs
			cfg.Deploy, cfg.TransportKind = r.deploy, r.transport
			res, err := a.run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s[%s]: %w", a.name, r.name, err)
			}
			if i == 0 {
				baseline = res.Checksum
			} else if !checksumClose(res.Checksum, baseline) {
				return nil, fmt.Errorf("%s[%s]: checksum %g != inprocess %g",
					a.name, r.name, res.Checksum, baseline)
			}
			rep.record(fmt.Sprintf("%s-%s", a.name, r.name), res)
			rep.add("%-3s %-10s exec=%-9s remote-fetches=%-5d remote=%-9s checksum=%.6g",
				a.name, r.name, fmtDur(res.Wall),
				res.Counters[obs.RemoteShuffleFetches], mb(res.Counters[obs.RemoteShuffleBytes]), res.Checksum)
		}
	}
	return rep, nil
}
