// The four benchmark workloads and the per-layer breakdown of the traced
// run.  See perfbench/README.md for what each one measures and why.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/compiled_model.h"
#include "api/graph_model.h"
#include "common.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Committed digest of the warm-up outputs for this (workload, seed);
  /// when set, a mismatch counts as a failed operation.
  std::optional<uint64_t> expected_digest;
  /// Worker count for the multi-threaded workload (inception-a).
  int nproc = 1;
  /// serve-zipf: the two open-loop phase rates and the p99 latency limit.
  double light_rps = 0.0;
  double heavy_rps = 0.0;
  double slo_p99_s = 0.0;
};

/// Names accepted by run_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Run one workload.  Throws std::invalid_argument for an unknown name.
Outcome run_workload(const Options& opts, Trace& trace);

// ---------------------------------------------------------------------------
// Traced-run breakdown (traced.cpp).
// ---------------------------------------------------------------------------

/// Per-layer numbers of one model at one input, from one-node graphs of
/// each conv node (same weights, spec and resolved precision) fed their
/// real input activations, plus the exact joins.  Appends the uniform
/// per-layer metrics to `out.gated` and per-node rows to `out.detail`;
/// checks that the node-by-node chain reproduces the whole-graph output.
void layer_breakdown(const mpipu::GraphModel& graph,
                     const mpipu::CompiledModel& compiled,
                     const mpipu::Tensor& input, double whole_pass_s,
                     Trace& trace, Outcome& out);

/// core.fp16_ns_per_op / core.int8_ns_per_op: direct datapath calls on
/// n-operand inner products drawn from the workload's tensor statistics.
void core_microbench(const mpipu::RunSpec& spec,
                     const mpipu::LayerTensorStats& stats, uint64_t seed,
                     Trace& trace, Outcome& out);

/// common.pool_spawn_s: construct + join a ThreadPool of `threads`.
void pool_spawn_bench(int threads, Trace& trace, Outcome& out);

/// serve.*: the same model behind a one-worker ServingRuntime, closed
/// loop: load() into a fresh runtime, then serve() calls on `input`, each
/// checked against a direct run.  `direct_pass_s` is the direct pass
/// median the serving overhead is measured against.
void serve_probe(const mpipu::GraphModel& graph, const mpipu::RunSpec& spec,
                 int h, int w, const mpipu::Tensor& input,
                 double direct_pass_s, Trace& trace, Outcome& out);

}  // namespace perfbench
