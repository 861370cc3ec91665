// Package repro reproduces Loren Schwiebert's SPAA 1997 paper
// "Deadlock-Free Oblivious Wormhole Routing with Cyclic Dependencies" as a
// Go library: a flit-level wormhole simulator, channel-dependency-graph
// analysis, an exhaustive deadlock-reachability model checker, the paper's
// network constructions, and the Section 5 unreachable-configuration
// theory. See README.md for an overview, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for the paper-vs-measured record.
//
// The root package carries the benchmark harness (bench_test.go): one
// BenchmarkSuite that runs every internal/benchsuite case as
// Suite/<case>, the same cases cmd/benchjson writes as the rows reported
// in EXPERIMENTS.md.
package repro
