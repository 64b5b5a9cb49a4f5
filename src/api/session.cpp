#include "api/session.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

namespace mpipu {

Session::Session(RunSpec spec)
    : spec_(std::move(spec)),
      pool_(spec_.threads),
      plans_(spec_, kPlanCacheBytes) {}

CompiledModel Session::compile(const GraphModel& model,
                               const CompileOptions& opts) const {
  return CompiledModel::compile(model, spec_, opts);
}

RunReport Session::run_compiled(const CompiledModel& compiled,
                                const Tensor& input, const RunOptions& opts) {
  // The shared pool serves one run at a time (parallel_for is not
  // reentrant).  A concurrent caller finding it busy executes on a private
  // per-call pool of the same width instead of queueing -- byte-identical
  // output by thread-count invariance, and spec.threads == 1 (the serving
  // default) makes the fallback pool threadless and effectively free.
  TryMutexLock pool_lock(pool_mu_);
  if (pool_lock.owns_lock()) {
    return compiled.run(input, opts, pool_);
  }
  return compiled.run(input, opts);
}

RunReport Session::run(const GraphModel& model, const Tensor& input,
                       const RunOptions& opts) {
  return run_compiled(*plans_.get_or_compile(model, input.h, input.w).plan,
                      input, opts);
}

BatchRunReport Session::run_batch(const GraphModel& model,
                                  const std::vector<Tensor>& inputs,
                                  const RunOptions& opts) {
  // The plan and the estimate depend only on (model, input dims, spec):
  // look each up once per distinct input geometry, not once per input.
  struct Shape {
    std::shared_ptr<const CompiledModel> plan;
    std::optional<NetworkSimResult> estimate;
  };
  std::vector<Shape> shapes;
  RunOptions per_run = opts;
  per_run.with_estimate = false;

  BatchRunReport batch;
  batch.runs.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    auto it = std::find_if(shapes.begin(), shapes.end(), [&](const Shape& s) {
      return s.plan->input_h() == input.h && s.plan->input_w() == input.w;
    });
    if (it == shapes.end()) {
      auto plan = plans_.get_or_compile(model, input.h, input.w).plan;
      std::optional<NetworkSimResult> estimate;
      if (opts.with_estimate) estimate = plan->estimate();
      shapes.push_back({std::move(plan), std::move(estimate)});
      it = shapes.end() - 1;
    }
    batch.runs.push_back(run_compiled(*it->plan, input, per_run));
    batch.runs.back().estimate = it->estimate;
    batch.totals += batch.runs.back().totals;
  }
  return batch;
}

Tensor Session::reference(const GraphModel& model, const Tensor& input) {
  if (!model.has_weights()) {
    throw std::invalid_argument(
        "Session::reference: graph '" + model.name() + "' carries no weights");
  }
  const GraphTopology topo = analyze_graph(model.nodes(), input.h, input.w);
  std::vector<Tensor> refs =
      graph_reference_outputs(model.nodes(), topo, input);
  return std::move(refs[static_cast<size_t>(topo.output_node)]);
}

NetworkSimResult Session::estimate(const GraphModel& model, int input_h,
                                   int input_w) const {
  return estimate(model.shape_table(input_h, input_w));
}

NetworkSimResult Session::estimate(const Network& net) const {
  return simulate_network(net, composed_tile_for(spec_, spec_.tile), spec_.sim,
                          spec_.partition);
}

}  // namespace mpipu
