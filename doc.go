// Package pmpr is a Go reproduction of "Postmortem Computation of
// Pagerank on Temporal Graphs" (Hossain & Saule, ICPP 2022).
//
// The library computes PageRank over every window of a sliding-window
// temporal graph under three execution models:
//
//   - postmortem (the paper's contribution, internal/core): a temporal
//     CSR partitioned into multi-window graphs, partial initialization,
//     window/application/nested parallelism, and a sparse
//     matrix-vector kernel that sweeps one window at a time along
//     warm-start chains (the paper's SpMM kernel, which batches K
//     windows per sweep, loses to it here: EXPERIMENTS.md);
//   - offline (internal/offline): rebuild each window graph from the
//     event database and solve from scratch;
//   - streaming (internal/streaming): a STINGER-like dynamic graph
//     updated by batches with incremental PageRank.
//
// See README.md for usage, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for reproduction results. The
// benchmarks in bench_test.go regenerate each paper table/figure as a
// testing.B target; cmd/pmbench prints the full tables.
package pmpr
