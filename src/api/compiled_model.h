// CompiledModel: the compile-once / run-many half of the high-level API.
//
// The paper's deployment scenario is fixed-weight DNN inference: weights
// are known at load time, requests arrive forever after.  `Session::compile`
// (or the static CompiledModel::compile) runs the whole weight pipeline --
// FP16 rounding / INT quantization, decode, nibble decomposition,
// per-(clip-class, output-channel) stream packing -- in a single compile
// phase:
//
//   * the PrecisionPolicy is resolved per conv node ONCE; a CompiledModel
//     never re-resolves it (mutating the policy object you compiled from
//     has no effect on an existing CompiledModel -- recompile to change
//     precision);
//   * every conv node is baked into an immutable plan holding the prepared
//     + packed filter planes (nn/conv_plan.h) for its resolved
//     (datapath, accum / INT) mode;
//   * all validation (weightless model, INT on an FP-only scheme, empty
//     output geometry, graph topology) happens at compile time, before
//     anything executes.
//
// The execution core is a DAG (api/graph_model.h): a GraphModel compiles
// into its topological wave structure, and a layer chain
// (GraphModel::from_layers) into one node per wave.  Waves holding several
// independent nodes (parallel ResNet/Inception branches) are dispatched
// concurrently over the caller's pool, one node per worker with a private
// single-threaded scratch; single-node waves use pixel-level parallelism
// over the whole pool.  Either way outputs AND per-node stats are
// bit-identical for 1 and N pool threads (stats are sums over a fixed op
// partition; every pixel is computed exactly once).
//
// run()/run_batch() are REENTRANT: every call builds its own scratch
// (thread pool, per-slot datapaths, staged activation planes, stats) and
// only reads the shared `const` plans, so any number of host threads may
// call them concurrently on one CompiledModel.  Each call returns its own
// RunReport whose outputs, stats and cycles are byte-identical to what
// Session::run produces for the same spec/model/input.  Stats are per-call
// by construction: nothing accumulates across calls.
//
// Session::run and ServingRuntime::load sit on top of this through one
// byte-bounded plan cache (api/plan_cache.h).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/graph_model.h"
#include "api/run_report.h"
#include "api/run_spec.h"
#include "common/annotated_mutex.h"
#include "common/thread_pool.h"
#include "nn/conv_plan.h"

namespace mpipu {

struct CompileOptions {
  /// Spatial dims of the inputs run() will receive (the packed gather
  /// offsets and clip classes depend on them).  Required; run() rejects
  /// inputs with any other shape.
  int input_h = 0;
  int input_w = 0;
};

class CompiledModel {
 public:
  /// Resolve, validate and bake `model` for `spec` at the given input
  /// geometry.  Validates the full topology (acyclicity, single
  /// input/output, join shape agreement) via analyze_graph before anything
  /// is baked.  Throws std::invalid_argument on a weightless model, a
  /// policy asking for INT on a datapath that does not support it, missing
  /// input dims, a topology violation, or geometry that collapses to
  /// nothing.
  [[nodiscard]] static CompiledModel compile(const GraphModel& model,
                                             const RunSpec& spec,
                                             const CompileOptions& opts);

  /// One forward pass against the immutable plan.  Thread-safe: every call
  /// owns its scratch (a private pool of spec().threads workers -- created
  /// per call, so prefer spec.threads == 1 for concurrent serving) and its
  /// RunReport stats are per-call.  Throws std::invalid_argument when the
  /// input shape differs from the compiled geometry.
  RunReport run(const Tensor& input, const RunOptions& opts = {}) const;
  /// Same, executing on a caller-owned pool (e.g. a Session's shared pool
  /// or a serving thread's long-lived pool).  The pool must not be used by
  /// two calls at once -- ThreadPool::parallel_for is not reentrant; for
  /// concurrent callers give each its own pool or use the overload above.
  RunReport run(const Tensor& input, const RunOptions& opts,
                ThreadPool& pool) const;

  /// Forward passes over a batch with the deterministic stats reduction of
  /// Session::run_batch (and the estimate computed once, not per input).
  BatchRunReport run_batch(const std::vector<Tensor>& inputs,
                           const RunOptions& opts = {}) const;
  BatchRunReport run_batch(const std::vector<Tensor>& inputs,
                           const RunOptions& opts, ThreadPool& pool) const;

  /// Cycle-sim estimate of the compiled shape table on spec().tile with
  /// spec().datapath plugged in (what RunOptions.with_estimate attaches):
  /// the graph's conv rows in execution order (GraphModel::shape_table).
  NetworkSimResult estimate() const;

  const std::string& model_name() const { return name_; }
  const RunSpec& spec() const { return spec_; }
  int input_c() const { return in_c_; }
  int input_h() const { return in_h_; }
  int input_w() const { return in_w_; }
  /// Non-throwing geometry check: empty when `input` matches the compiled
  /// input dims, else the exact message validate_input/run would throw.
  /// Admission-time validation in the serving layer runs on this -- a bad
  /// request is shed as a typed value before it can reach (and poison) a
  /// batch.
  [[nodiscard]] std::string input_geometry_mismatch(const Tensor& input) const;
  /// Executable nodes: conv layers plus add/concat joins.
  size_t layer_count() const { return topo_.order.size() - 1; }
  /// The compile-time-resolved precision of each conv node in execution
  /// order (frozen: no API re-resolves these after compile).
  const std::vector<LayerPrecision>& layer_precisions() const {
    return precisions_;
  }
  /// Host bytes this plan holds, fixed at compile time: every clip class's
  /// packed filter planes and gather offsets, plus the source weights kept
  /// for the reference chain and matches().  PlanCache's byte budget sums
  /// these.
  size_t plan_bytes() const { return plan_bytes_; }
  /// Exact node-list + tensor-statistics equality of `model` with the
  /// compiled source (the statistics feed the shape table estimate()
  /// consumes) -- the lookup predicate of PlanCache (api/plan_cache.h).
  /// Field checks (name, dims, specs) reject mismatches before any weight
  /// bytes are compared.
  bool matches(const GraphModel& model) const;

 private:
  CompiledModel() = default;

  /// One conv node's immutable execution state: the resolved precision plus
  /// the plan (packed filter streams) for its mode.  Exactly one of the two
  /// plans is populated, selected by precision.kind.  Join nodes carry no
  /// plan (joins are exact elementwise ops).
  struct CompiledNode {
    LayerPrecision precision;
    std::string precision_label;
    ConvPlan<PreparedFp16> fp16_plan;
    ConvPlan<PreparedInt> int_plan;
    QuantParams qw;          ///< INT mode: weight quantization (compile-time)
    bool int_digits = true;  ///< INT mode: pack radix-16 digit planes?
  };

  /// Per-input FP32 reference chain cache (one entry = the per-node
  /// reference outputs of one exact input).  Behind a shared_ptr so the
  /// CompiledModel stays movable; guarded by its own mutex so run() is
  /// reentrant.
  struct RefCache {
    Mutex mu;
    std::vector<std::pair<std::vector<double>,
                          std::shared_ptr<const std::vector<Tensor>>>>
        entries MPIPU_GUARDED_BY(mu);
  };

  static CompiledModel compile_nodes(std::vector<GraphNode> nodes,
                                     const RunSpec& spec,
                                     const CompileOptions& opts);
  /// run() with caller-provided per-slot datapath scratch.  run_batch
  /// builds the units once and reuses them across the whole batch (exact:
  /// per-node stats are before/after deltas over the units).
  RunReport run_with_units(
      const Tensor& input, const RunOptions& opts, ThreadPool& pool,
      std::span<const std::unique_ptr<Datapath>> units) const;
  void validate_input(const Tensor& input) const;
  std::shared_ptr<const std::vector<Tensor>> reference_chain(
      const Tensor& input) const;
  /// Execute one non-input node: reads predecessor activations, writes
  /// acts[id] (post-ops applied) and stats[id].  `pool`/`units` are the
  /// caller's scratch for this node (the full per-call pool for single-node
  /// waves, a private inline unit for parallel-branch dispatch).
  void exec_node(int id, std::vector<Tensor>& acts,
                 std::vector<DatapathStats>& stats, ThreadPool& pool,
                 std::span<const std::unique_ptr<Datapath>> units) const;

  RunSpec spec_;
  std::string name_;
  int in_c_ = 0, in_h_ = 0, in_w_ = 0;
  /// Source nodes (weights kept for the reference chain and matches()).
  std::vector<GraphNode> nodes_;
  GraphTopology topo_;
  std::vector<LayerPrecision> precisions_;  ///< conv nodes, execution order
  std::vector<CompiledNode> compiled_;      ///< indexed by node id
  LayerTensorStats tensor_stats_;  ///< source stats, baked into shape_net_
  Network shape_net_;  ///< shape table at the compiled input dims
  size_t plan_bytes_ = 0;
  std::shared_ptr<RefCache> ref_cache_;
};

}  // namespace mpipu
