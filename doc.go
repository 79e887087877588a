// Package taskreuse is a faithful Go reproduction of "A Replacement
// Technique to Maximize Task Reuse in Reconfigurable Systems" (Clemente,
// Resano, Mozos et al., IPDPS Workshops / Reconfigurable Architectures
// 2011).
//
// The paper proposes a hybrid design-time/run-time configuration
// replacement technique for FPGA-style multitasking systems built from
// equal-sized reconfigurable units: Local LFD (Belady's longest-forward-
// distance restricted to the run-time Dynamic List window) combined with
// Skip Events (deliberately postponing a reconfiguration, within a task's
// precomputed mobility, to protect a configuration known to be reused
// soon).
//
// The library lives under internal/:
//
//   - internal/core — the public facade: configure a System, run
//     workloads, get the paper's metrics.
//   - internal/taskgraph, internal/ru — the substrates: task-graph model
//     and reconfigurable-unit array.
//   - internal/manager — the event-triggered execution manager (paper
//     Fig. 4) with the replacement module (Fig. 8); it is also the
//     discrete-event simulator, reading the pending events off its state.
//   - internal/policy — LRU, FIFO, MRU, Random, LFD and Local LFD.
//   - internal/mobility — the design-time phase (Fig. 6), with a
//     process-wide memoized table cache keyed by (template, RUs, latency).
//   - internal/sweep — the parallel scenario executor: declarative
//     policy × RUs × latency × workload grids run on a bounded worker
//     pool with deterministic, spec-order results streamed through
//     collectors and row renderers.
//   - internal/resultstore — the persisted, content-addressed store of
//     scenario results (canonical config-hash keys, atomic writes,
//     measured timings for dispatch).
//   - internal/coord — the file-based shard coordinator: self-healing
//     multi-host pools with leases, TTL expiry and watch/drain verdicts.
//   - internal/experiments — regenerates every table and figure, each
//     grid experiment as one sweep Spec rendered row by row.
//
// The benchmarks in bench_test.go regenerate the paper's measured tables;
// cmd/rtrrepro prints the full evaluation. ARCHITECTURE.md walks the
// whole pipeline (Spec → Executor/Collector → resultstore → coord →
// merge/watch render) end to end; see also README.md, DESIGN.md and
// EXPERIMENTS.md.
package taskreuse
