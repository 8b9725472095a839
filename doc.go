// Package graphbench is a from-scratch Go reproduction of "Experimental
// Analysis of Distributed Graph Systems" (Ammar & Özsu, VLDB 2018): the
// eight systems under study reimplemented as engines over a simulated
// shared-nothing cluster, the paper's workloads plus extensions,
// synthetic analogues of the four datasets, a harness that regenerates
// every table and figure of the paper's evaluation, and a long-lived
// query server over the same engines.
//
// The prose lives in two documents, not here:
//
//   - ARCHITECTURE.md: the package map, the request data flow, the
//     per-layer bit-identity contracts, and the subsystem notes —
//     workloads, concurrency model, direction-optimizing traversal,
//     memory model, snapshots, adaptive planning, fault tolerance and
//     recovery, out-of-core execution and the memory governor.
//   - docs/operations.md: running and operating cmd/graphserve — every
//     flag, endpoint, status code, response header and /metrics field.
//
// ROADMAP.md holds the plan, CHANGES.md the PR log, PAPER.md the source
// paper's abstract. Each internal package's doc comment says what the
// package models and why the substitution is faithful to the paper.
//
// The commands: cmd/graphbench (artifacts, single runs, the full grid),
// cmd/graphserve (the query server), cmd/datagen (fixtures and
// snapshots), cmd/logviz (run-log rendering). The benchmarks in
// bench_test.go regenerate each artifact:
//
//	go test -bench=Table9 -benchtime=1x .
//	go test -bench=Figure6 -benchtime=1x .
//
// benchmarks/ is the host benchmark BENCHMARK.json names, a module of
// its own.
package graphbench
