// Package deca is a from-scratch Go reproduction of "Lifetime-Based
// Memory Management for Distributed Data Processing Systems" (Lu et al.,
// VLDB 2016) — the Deca system.
//
// The library lives under internal/:
//
//	udt, analysis  the UDT size-type classification (Algorithms 1-4,
//	               phased refinement)
//	core           the lifetime planner (containers, ownership,
//	               decomposition decisions) and the byte layouts it
//	               compiles to; udt, analysis and core are reproduced
//	               beside the engine, which links none of them
//	memory         page groups with page-info metadata and refcounting
//	decompose      the runtime codec layer: hand-written codecs, typed
//	               views over page bytes, the chunks a drain decodes into
//	engine         a mini-Spark substrate (datasets, shuffles, caching)
//	               organized as a driver plus N executors
//	sched, ctl     the fault-tolerant task scheduler and the multiproc
//	               control plane
//	obs            the counter table and the event spine behind the ops
//	               plane
//	transport      the shuffle-data seam between executors
//	shuffle, cache the three shuffle-buffer shapes and the block store
//	serial         the Kryo-equivalent baseline serializer
//	workloads      WC, LR, KMeans, PageRank, ConnectedComponents ×
//	               {Spark, SparkSer, Deca}
//	sqlmini        the §6.6 SQL comparison
//	bench          runners regenerating every table and figure
//
// See README.md for a tour, DESIGN.md for the system inventory and
// substitution map, and EXPERIMENTS.md for paper-vs-measured results.
// The benchmarks in bench_test.go regenerate each experiment:
//
//	go test -bench=. -benchmem
//	go run ./cmd/deca-bench -exp all
package deca
