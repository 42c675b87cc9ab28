// Command deca-executor hosts one executor of a multi-process deca
// cluster: a private page memory manager, cache manager, and shuffle
// data-plane endpoint, driven over the control-plane RPC connection by
// the process that spawned it (a deca-bench or application driver
// running with -transport multiproc / engine.TransportMultiproc).
//
// It is not meant to be started by hand — the driver spawns one per
// executor, passing the rendezvous flags:
//
//	deca-executor -driver <host:port> -id <n> -token <t> [-data-addr <host:port>]
//
// On connect it advertises its data-plane address, awaits the job plan
// (a workload name plus configuration), mirrors the plan's job graph,
// and executes whatever (stage, partition, attempt) descriptors the
// driver dispatches; it exits when the driver shuts the fleet down or
// the control connection is lost.
package main

import "deca/internal/workloads"

func main() {
	workloads.Main()
}
