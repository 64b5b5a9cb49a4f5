#include "api/session.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mpipu {

namespace {
/// Distinct (model, input geometry) plans kept per Session.  Conversational
/// sessions touch one or two models; sweeps re-running one model hit entry
/// 0 forever.  Bounded so a session streaming many throwaway models cannot
/// hoard packed planes.
constexpr size_t kMaxCompiledCacheEntries = 8;
}  // namespace

Session::Session(RunSpec spec) : spec_(std::move(spec)), pool_(spec_.threads) {}

CompiledModel Session::compile(const GraphModel& model,
                               const CompileOptions& opts) const {
  return CompiledModel::compile(model, spec_, opts);
}

std::shared_ptr<const CompiledModel> Session::compiled_for(
    const GraphModel& model, int input_h, int input_w) {
  // Exact-match lookup via matches(): its field comparisons (name, layer
  // shapes, specs) reject non-matching entries before any weight bytes are
  // touched, and a hit costs one memcmp-grade weight pass -- cheaper than
  // hashing the weights up front on every run.  The whole
  // lookup/rotate/compile/evict sequence holds cache_mu_ so concurrent
  // first-use runs race safely (the loser re-finds the winner's entry); the
  // returned shared_ptr keeps the plan alive even if another thread evicts
  // it before the caller finishes executing.
  MutexLock lock(cache_mu_);
  for (size_t i = 0; i < compiled_cache_.size(); ++i) {
    const CacheEntry& e = compiled_cache_[i];
    if (e.compiled->input_h() == input_h && e.compiled->input_w() == input_w &&
        e.compiled->matches(model)) {
      // LRU: refresh recency so a hot model survives transient ones
      // streaming through (eviction takes the front).
      if (i + 1 != compiled_cache_.size()) {
        std::rotate(compiled_cache_.begin() + static_cast<ptrdiff_t>(i),
                    compiled_cache_.begin() + static_cast<ptrdiff_t>(i) + 1,
                    compiled_cache_.end());
      }
      return compiled_cache_.back().compiled;
    }
  }
  CompileOptions opts;
  opts.input_h = input_h;
  opts.input_w = input_w;
  // Compile before evicting: a throwing compile (bad policy, collapsing
  // geometry) must not cost an unrelated cached plan.
  auto compiled = std::make_shared<const CompiledModel>(
      CompiledModel::compile(model, spec_, opts));
  if (compiled_cache_.size() >= kMaxCompiledCacheEntries) {
    compiled_cache_.erase(compiled_cache_.begin());
  }
  compiled_cache_.push_back({std::move(compiled)});
  return compiled_cache_.back().compiled;
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
  if (!model.has_weights()) {
    throw std::invalid_argument(
        "Session::run: graph '" + model.name() +
        "' carries no weights -- shape-only graphs are estimate-only; call "
        "materialize_weights() first");
  }
  return run_compiled(*compiled_for(model, input.h, input.w), input, opts);
}

BatchRunReport Session::run_batch(const GraphModel& model,
                                  const std::vector<Tensor>& inputs,
                                  const RunOptions& opts) {
  // The estimate depends only on (model, input dims, spec): compute it once
  // per distinct input shape instead of once per input.
  RunOptions per_run = opts;
  per_run.with_estimate = false;
  std::vector<std::pair<std::pair<int, int>, NetworkSimResult>> estimates;

  BatchRunReport batch;
  batch.runs.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    batch.runs.push_back(run(model, input, per_run));
    if (opts.with_estimate) {
      const std::pair<int, int> dims{input.h, input.w};
      const NetworkSimResult* cached = nullptr;
      for (const auto& e : estimates) {
        if (e.first == dims) {
          cached = &e.second;
          break;
        }
      }
      if (cached == nullptr) {
        estimates.emplace_back(dims, estimate(model, input.h, input.w));
        cached = &estimates.back().second;
      }
      batch.runs.back().estimate = *cached;
    }
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
