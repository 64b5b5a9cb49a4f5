// Session: the single high-level entry point of the repo.  One RunSpec
// {datapath, tile, policy, threads} drives BOTH evaluation paths the paper
// uses at network granularity:
//
//   * the numeric path -- Session::run / run_batch execute a GraphModel
//     node by node on the bit-accurate datapath (activation tensors
//     threaded between nodes, FP32 reference chain computed alongside),
//     producing a RunReport that unifies per-node DatapathStats, error
//     metrics and (on request) simulated cycles;
//   * the analytical path -- Session::estimate costs the model's shape
//     table (or an explicit `Network`) on the cycle simulator with the same
//     datapath config plugged into the tile.
//
// Session::run is compile-on-first-use sugar over api/compiled_model.h: the
// model is compiled into an immutable CompiledModel on the first run, kept
// in a PlanCache (api/plan_cache.h: keyed by exact model content and input
// geometry, bounded by kPlanCacheBytes of plans) so re-runs, sweeps and
// batches never re-pay the weight pipeline, and executed on the Session's
// shared ThreadPool.
//
// run()/run_batch() are thread-safe: the plan cache compiles outside its
// lock and pins each plan in a shared_ptr across eviction, and concurrent
// runs race for the shared pool -- the loser executes on a private
// per-call pool of the same width, so outputs stay byte-identical either
// way (thread-count invariance).  Use Session for conversational work --
// one caller, ad-hoc models; call Session::compile and hold the
// CompiledModel yourself for serving -- weights prepared once at load
// time, concurrent reentrant callers -- or put src/serve's ServingRuntime
// in front for queueing, batching and SLO metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/compiled_model.h"
#include "api/graph_model.h"
#include "api/plan_cache.h"
#include "api/run_report.h"
#include "api/run_spec.h"
#include "common/annotated_mutex.h"
#include "common/thread_pool.h"
#include "sim/cycle_sim.h"
#include "sim/tile.h"

namespace mpipu {

class Session {
 public:
  explicit Session(RunSpec spec);

  const RunSpec& spec() const { return spec_; }
  int threads() const { return pool_.size(); }

  /// Compile `model` against this session's spec: validate the DAG
  /// topology (acyclicity, single input/output, channel agreement into
  /// convs, shape agreement at add/concat joins), resolve the policy, bake
  /// the packed filter planes.  The returned CompiledModel is
  /// self-contained (shares nothing with this Session) and safe for
  /// concurrent callers; independent branches execute in parallel over the
  /// running pool.  Throws std::invalid_argument on a weightless model, an
  /// unsupported INT layer, a topology violation, or missing input dims.
  [[nodiscard]] CompiledModel compile(const GraphModel& model,
                                      const CompileOptions& opts) const;

  /// Full forward pass of `model` on `input`.  Compile-on-first-use: the
  /// first call (per model content and input geometry) compiles, later
  /// calls hit the cache and only execute.  The per-node RunReport is
  /// byte-identical to CompiledModel::run.  Throws std::invalid_argument --
  /// before any node executes -- on a weightless model, an input/model
  /// channel mismatch, or a policy asking for INT on a datapath that does
  /// not support it (e.g. the FP-only spatial scheme).
  RunReport run(const GraphModel& model, const Tensor& input,
                const RunOptions& opts = {});

  /// The exact FP32 reference forward pass of the numeric path
  /// (host-double convs, exact joins, the model's post-ops) -- what run()
  /// compares against when RunOptions.compare_reference is set.  Exposed so
  /// drivers sweeping many datapath configs over the same inputs can
  /// compute it once instead of once per sweep point.
  static Tensor reference(const GraphModel& model, const Tensor& input);

  /// Forward passes over a batch of inputs with deterministic stats
  /// reduction (totals are sums of per-run sums).  One plan lookup and at
  /// most one estimate per distinct input geometry.
  BatchRunReport run_batch(const GraphModel& model,
                           const std::vector<Tensor>& inputs,
                           const RunOptions& opts = {});

  /// Estimate an explicit shape table (e.g. resnet18_forward()) on
  /// spec().tile with spec().datapath plugged in.
  NetworkSimResult estimate(const Network& net) const;
  /// Model estimate: the graph's conv rows (GraphModel::shape_table) at the
  /// given input dims -- agrees with estimate(net) for the equivalent table
  /// by construction.
  NetworkSimResult estimate(const GraphModel& model, int input_h,
                            int input_w) const;

 private:
  /// Execute on the shared pool when it is free, else on a private
  /// per-call pool of the same width (byte-identical either way).
  RunReport run_compiled(const CompiledModel& compiled, const Tensor& input,
                         const RunOptions& opts);

  RunSpec spec_;
  ThreadPool pool_;
  /// Claims the shared pool for one run at a time.  The pool itself is not
  /// MPIPU_GUARDED_BY(pool_mu_): threads() reads its (immutable) size
  /// lock-free, and the capability here serializes parallel_for USE, not
  /// data access.
  Mutex pool_mu_;
  PlanCache plans_;
};

}  // namespace mpipu
