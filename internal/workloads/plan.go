package workloads

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"deca/internal/ctl"
)

// The multi-process deployment is SPMD: task bodies are Go closures and
// cannot cross process boundaries, so the driver registers a *plan* — a
// workload name plus its full configuration — and every deca-executor
// process rebuilds the identical lazy job graph from it (same dataset
// ids, same stage structure, same UDF closures, because it runs the same
// code). The driver then dispatches task descriptors against that shared
// plan, and action results broadcast back keep every mirrored program's
// control flow and captured state (LR weights, PR ranks) in lock-step.

// PlanSpec is the serialized plan: which workload, the driver's Config —
// every engine knob that must match across processes; its driver-only
// fields are tagged out of the encoding — and the workload's parameters.
// Scheduling-level chaos (task failures, kills) is deliberately absent:
// those faults are a driver-side concern (and real process kills), never
// mirrored state. Data-plane chaos is the exception: fetch faults happen
// inside the executor processes, so the Config carries a seed and rate
// and each executor builds its own deterministic injector from them.
type PlanSpec struct {
	Workload string // "wc" | "lr" | "kmeans" | "pr" | "cc"
	Config   Config

	WC    WCParams     `json:",omitempty"`
	LR    LRParams     `json:",omitempty"`
	KM    KMeansParams `json:",omitempty"`
	Graph GraphParams  `json:",omitempty"`
}

// RunPlan executes a plan spec inside an executor process: it rebuilds
// the workload's mirrored program and runs it to completion under driver
// dispatch.
func RunPlan(spec PlanSpec, f *ctl.Follower) error {
	cfg := spec.Config
	cfg.Follower = f
	var err error
	switch spec.Workload {
	case "wc":
		_, err = WordCount(cfg, spec.WC)
	case "lr":
		_, err = LogisticRegression(cfg, spec.LR)
	case "kmeans":
		_, err = KMeans(cfg, spec.KM)
	case "pr":
		_, err = PageRank(cfg, spec.Graph)
	case "cc":
		_, err = ConnectedComponents(cfg, spec.Graph)
	default:
		err = fmt.Errorf("workloads: unknown plan workload %q", spec.Workload)
	}
	return err
}

// ExecutorMain is the deca-executor entry point (also reused by the test
// binary's helper-process mode): connect to the driver, await the plan,
// mirror it, and exit when the driver shuts the fleet down. It returns
// the process exit code.
func ExecutorMain(args []string, logOut io.Writer) int {
	fs := flag.NewFlagSet("deca-executor", flag.ContinueOnError)
	var (
		driverAddr = fs.String("driver", "", "driver control address (host:port)")
		id         = fs.Int("id", -1, "this executor's id in [0, NumExecutors)")
		token      = fs.String("token", "", "handshake token issued by the driver")
		dataAddr   = fs.String("data-addr", "127.0.0.1:0", "shuffle data-plane listen address")
	)
	fs.SetOutput(logOut)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := log.New(logOut, fmt.Sprintf("deca-executor[%d] ", *id), log.Ltime|log.Lmicroseconds)
	if *driverAddr == "" || *id < 0 || *token == "" {
		logger.Printf("missing -driver/-id/-token (this binary is spawned by a multiproc driver)")
		return 2
	}
	f, err := ctl.NewFollower(ctl.FollowerConfig{
		DriverAddr: *driverAddr,
		ID:         *id,
		Token:      *token,
		DataAddr:   *dataAddr,
	})
	if err != nil {
		logger.Printf("connecting: %v", err)
		return 1
	}
	defer f.Close()
	raw, err := f.AwaitPlan()
	if err != nil {
		logger.Printf("awaiting plan: %v", err)
		return 1
	}
	var spec PlanSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		logger.Printf("decoding plan: %v", err)
		return 1
	}
	logger.Printf("running plan %s (executors=%d, partitions=%d)",
		spec.Workload, spec.Config.NumExecutors, spec.Config.Partitions)
	if err := RunPlan(spec, f); err != nil {
		// The driver decides job outcomes; a mirror error here is either
		// an aborted stage (already surfaced at the driver) or divergence.
		logger.Printf("plan %s: %v", spec.Workload, err)
		return 1
	}
	logger.Printf("plan %s done", spec.Workload)
	return 0
}

// Main is ExecutorMain with OS defaults (the cmd/deca-executor shim).
func Main() {
	os.Exit(ExecutorMain(os.Args[1:], os.Stderr))
}
