#include "api/compiled_model.h"

#include <optional>
#include <stdexcept>

#include "core/simd/simd.h"
#include "nn/elementwise.h"
#include "sim/partition.h"

namespace mpipu {

namespace {

/// Entries kept in the per-input reference-chain cache.  Sweeps re-running
/// the same input (policy/config studies) hit entry 0 forever; anything
/// streaming distinct inputs just rotates through without growing.
constexpr size_t kMaxRefCacheEntries = 4;

void check_compile_dims(const CompileOptions& opts) {
  if (opts.input_h <= 0 || opts.input_w <= 0) {
    throw std::invalid_argument(
        "CompiledModel::compile: CompileOptions must carry the input spatial "
        "dims (got " + std::to_string(opts.input_h) + "x" +
        std::to_string(opts.input_w) +
        ") -- the packed gather offsets depend on them");
  }
}

/// Private dispatch of independent tasks (the host shards of one conv, the
/// parallel branches of one wave) over `pool`: task i runs on a private
/// inline (threadless) pool with its own fresh datapath, so its stats are
/// deterministic for any pool size.  Tasks for which `needs_unit(i)` is
/// false do no datapath work (joins) and get an empty unit list.
template <typename NeedsUnit, typename Task>
void dispatch_private(ThreadPool& pool, size_t count, const DatapathConfig& dp,
                      const NeedsUnit& needs_unit, const Task& task) {
  pool.parallel_for(
      static_cast<int64_t>(count), [&](int64_t begin, int64_t end, int) {
        for (int64_t i = begin; i < end; ++i) {
          const auto t = static_cast<size_t>(i);
          ThreadPool inline_pool(1);
          std::vector<std::unique_ptr<Datapath>> unit;
          if (needs_unit(t)) unit.push_back(make_datapath(dp));
          task(t, inline_pool,
               std::span<const std::unique_ptr<Datapath>>(unit));
        }
      });
}

std::string activation_context(const GraphNode& nd) {
  return "CompiledModel::run: node '" + nd.name + "' input activation";
}

}  // namespace

bool CompiledModel::matches(const GraphModel& model) const {
  if (model.name() != name_) return false;
  if (!model.has_weights()) return false;  // compiled graphs carry weights
  // Tensor statistics feed the shape table estimate() consumes: two graphs
  // with identical nodes but different stats must not share a plan.
  if (!(model.tensor_stats() == tensor_stats_)) return false;
  return model.nodes() == nodes_;
}

TileConfig composed_tile_for(const RunSpec& spec, const TileConfig& geometry) {
  TileConfig t = geometry;
  t.datapath = spec.datapath;
  if (t.c_unroll != spec.datapath.n_inputs) {
    throw std::invalid_argument(
        "RunSpec: tile c_unroll (" + std::to_string(t.c_unroll) +
        ") must equal datapath n_inputs (" +
        std::to_string(spec.datapath.n_inputs) +
        ") -- one RunSpec drives both paths");
  }
  return t;
}

CompiledModel CompiledModel::compile_nodes(std::vector<GraphNode> nodes,
                                           const RunSpec& spec,
                                           const CompileOptions& opts) {
  CompiledModel cm;
  cm.spec_ = spec;
  cm.nodes_ = std::move(nodes);
  // Full topology validation -- acyclicity, single input/output, channel
  // agreement into convs, shape agreement at joins, collapsing geometry --
  // plus the deterministic execution order and wave structure.
  cm.topo_ = analyze_graph(cm.nodes_, opts.input_h, opts.input_w);
  cm.in_c_ = cm.topo_.input_c;
  cm.in_h_ = opts.input_h;
  cm.in_w_ = opts.input_w;
  cm.ref_cache_ = std::make_shared<RefCache>();

  size_t n_convs = 0;
  for (const GraphNode& nd : cm.nodes_) {
    if (nd.op == GraphNode::Op::kConv) ++n_convs;
  }

  // Resolve and validate the whole policy up front: an unsupported INT
  // layer must be rejected at compile time, before anything is baked.
  std::unique_ptr<Datapath> probe;
  cm.precisions_.reserve(n_convs);
  for (int id : cm.topo_.order) {
    const GraphNode& nd = cm.nodes_[static_cast<size_t>(id)];
    if (nd.op != GraphNode::Op::kConv) continue;
    const LayerPrecision p =
        spec.policy.resolve(cm.precisions_.size(), n_convs, nd.name);
    cm.precisions_.push_back(p);
    if (p.kind != LayerPrecision::Kind::kInt) continue;
    if (!probe) probe = make_datapath(spec.datapath);
    if (!probe->supports_int(p.a_bits, p.w_bits)) {
      throw std::invalid_argument(
          "CompiledModel::compile: layer '" + nd.name + "' requests " +
          p.to_string() + " but the " + scheme_name(spec.datapath.scheme) +
          " scheme does not support it" +
          (spec.datapath.scheme == DecompositionScheme::kSpatial
               ? " (spatial is FP-only; pick an fp16 policy or a "
                 "temporal/serial datapath)"
               : ""));
    }
  }

  // Bake every conv node: the plan sees the node's input geometry (its
  // predecessor's post-post-op shape) and packs the filter planes for the
  // resolved mode.
  cm.compiled_.resize(cm.nodes_.size());
  size_t conv_index = 0;
  for (int id : cm.topo_.order) {
    const GraphNode& nd = cm.nodes_[static_cast<size_t>(id)];
    if (nd.op != GraphNode::Op::kConv) continue;
    const LayerPrecision& p = cm.precisions_[conv_index++];
    const int pred = nd.inputs[0];
    const int c = cm.topo_.out_c[static_cast<size_t>(pred)];
    const int h = cm.topo_.out_h[static_cast<size_t>(pred)];
    const int w = cm.topo_.out_w[static_cast<size_t>(pred)];
    CompiledNode& cl = cm.compiled_[static_cast<size_t>(id)];
    cl.precision = p;
    cl.precision_label = p.to_string();
    if (p.kind == LayerPrecision::Kind::kFp16) {
      const PreparedFp16 flt_planes = prepare_fp16_planes(
          nd.filters.data,
          "CompiledModel::compile: layer '" + nd.name + "' weight");
      cl.fp16_plan.build(c, h, w, nd.filters, nd.spec, flt_planes);
    } else {
      cl.qw = fit_symmetric(nd.filters.data, p.w_bits);
      cl.int_digits = spec.datapath.scheme != DecompositionScheme::kSerial;
      const PreparedInt flt_planes =
          prepare_int_planes(nd.filters.data, cl.qw, cl.int_digits);
      cl.int_plan.build(c, h, w, nd.filters, nd.spec, flt_planes);
    }
    cm.plan_bytes_ += cl.fp16_plan.bytes() + cl.int_plan.bytes() +
                      nd.filters.data.size() * sizeof(double);
  }
  return cm;
}

CompiledModel CompiledModel::compile(const GraphModel& model,
                                     const RunSpec& spec,
                                     const CompileOptions& opts) {
  check_compile_dims(opts);
  if (!model.has_weights()) {
    throw std::invalid_argument(
        "CompiledModel::compile: graph '" + model.name() +
        "' carries no weights -- shape-only graphs are estimate-only; call "
        "materialize_weights() first");
  }
  CompiledModel cm = compile_nodes(model.nodes(), spec, opts);
  cm.name_ = model.name();
  cm.tensor_stats_ = model.tensor_stats();
  cm.shape_net_ = model.shape_table(opts.input_h, opts.input_w);
  return cm;
}

std::string CompiledModel::input_geometry_mismatch(const Tensor& input) const {
  if (input.c == in_c_ && input.h == in_h_ && input.w == in_w_ &&
      input.data.size() ==
          static_cast<size_t>(in_c_) * static_cast<size_t>(in_h_) *
              static_cast<size_t>(in_w_)) {
    return {};
  }
  return "CompiledModel::run: input is " + std::to_string(input.c) + "x" +
         std::to_string(input.h) + "x" + std::to_string(input.w) + " (" +
         std::to_string(input.data.size()) +
         " values) but the model was compiled for " + std::to_string(in_c_) +
         "x" + std::to_string(in_h_) + "x" + std::to_string(in_w_) +
         " -- compile once per input geometry";
}

void CompiledModel::validate_input(const Tensor& input) const {
  const std::string mismatch = input_geometry_mismatch(input);
  if (!mismatch.empty()) throw std::invalid_argument(mismatch);
}

std::shared_ptr<const std::vector<Tensor>> CompiledModel::reference_chain(
    const Tensor& input) const {
  {
    MutexLock lock(ref_cache_->mu);
    for (const auto& e : ref_cache_->entries) {
      if (e.first == input.data) return e.second;
    }
  }
  // Compute outside the lock: concurrent callers with distinct inputs must
  // not serialize on the (expensive) reference convolutions.
  auto refs = std::make_shared<std::vector<Tensor>>(
      graph_reference_outputs(nodes_, topo_, input));
  MutexLock lock(ref_cache_->mu);
  for (const auto& e : ref_cache_->entries) {
    // A racing caller beat us to it; both chains are deterministic and
    // identical -- keep theirs so the cache holds one entry per input.
    if (e.first == input.data) return e.second;
  }
  if (ref_cache_->entries.size() >= kMaxRefCacheEntries) {
    ref_cache_->entries.erase(ref_cache_->entries.begin());
  }
  ref_cache_->entries.emplace_back(input.data, refs);
  return refs;
}

void CompiledModel::exec_node(
    int id, std::vector<Tensor>& acts, std::vector<DatapathStats>& stats,
    ThreadPool& pool, std::span<const std::unique_ptr<Datapath>> units) const {
  const GraphNode& nd = nodes_[static_cast<size_t>(id)];
  Tensor y;
  if (nd.op == GraphNode::Op::kConv) {
    const CompiledNode& cl = compiled_[static_cast<size_t>(id)];
    const Tensor& x = acts[static_cast<size_t>(nd.inputs[0])];
    const bool fp16 = cl.precision.kind == LayerPrecision::Kind::kFp16;
    const int cout = fp16 ? cl.fp16_plan.cout : cl.int_plan.cout;
    const int ho = fp16 ? cl.fp16_plan.ho : cl.int_plan.ho;

    // Host-sharded mode (RunSpec.partition.shard_host): mirror the sim's
    // tile partition on the host pool -- one shard per tile, joined exactly.
    // Byte-identity with the unsharded path holds because (a) every output
    // element's accumulate sequence depends only on its own (co, y, x) --
    // see run_conv_plan_shard -- and (b) DatapathStats are additive per-op
    // counters, so the sum of fresh per-shard units equals the unsharded
    // before/after delta regardless of order or thread count.
    std::vector<ShardRange> shards;
    if (spec_.partition.shard_host && spec_.tile.num_tiles > 1) {
      for (const ShardRange& r : partition_output(
               cout, ho, spec_.tile.num_tiles, spec_.partition.kind)) {
        if (!r.empty()) shards.push_back(r);
      }
    }
    if (shards.size() > 1) {
      // Prepared once, shared `const` across shards: activation
      // quantization must see the FULL input (fit_symmetric over all
      // values), exactly as the unsharded path does.
      PreparedFp16 fp_planes;
      PreparedInt int_planes;
      QuantParams qa{};
      if (fp16) {
        fp_planes = prepare_fp16_planes(x.data, activation_context(nd));
      } else {
        qa = fit_symmetric(x.data, cl.precision.a_bits);
        int_planes = prepare_int_planes(x.data, qa, cl.int_digits);
      }
      std::vector<Tensor> parts(shards.size());
      std::vector<DatapathStats> part_stats(shards.size());
      dispatch_private(
          pool, shards.size(), spec_.datapath, [](size_t) { return true; },
          [&](size_t i, ThreadPool& inline_pool,
              std::span<const std::unique_ptr<Datapath>> unit) {
            const ShardRange& r = shards[i];
            parts[i] = fp16 ? execute_fp16_plan_shard(
                                  cl.fp16_plan, fp_planes, inline_pool, unit,
                                  cl.precision.accum, r.co_begin, r.co_end,
                                  r.row_begin, r.row_end)
                            : execute_int_plan_shard(
                                  cl.int_plan, int_planes, inline_pool, unit,
                                  cl.precision.a_bits, cl.precision.w_bits, qa,
                                  cl.qw, r.co_begin, r.co_end, r.row_begin,
                                  r.row_end);
            part_stats[i] = unit[0]->stats();
          });
      std::vector<const Tensor*> part_ptrs;
      part_ptrs.reserve(parts.size());
      for (const Tensor& t : parts) part_ptrs.push_back(&t);
      y = spec_.partition.kind == PartitionKind::kOutputChannel
              ? channel_concat(part_ptrs)
              : row_concat(part_ptrs);
      DatapathStats sum;
      for (const DatapathStats& s : part_stats) sum += s;
      stats[static_cast<size_t>(id)] = sum;
    } else {
      DatapathStats before;
      for (const auto& u : units) before += u->stats();
      if (fp16) {
        const PreparedFp16 in_planes =
            prepare_fp16_planes(x.data, activation_context(nd));
        y = execute_fp16_plan_shard(cl.fp16_plan, in_planes, pool, units,
                                    cl.precision.accum, 0, cout, 0, ho);
      } else {
        // Activation quantization depends on the input values; only the
        // weight side was frozen at compile time.
        const QuantParams qa = fit_symmetric(x.data, cl.precision.a_bits);
        const PreparedInt in_planes =
            prepare_int_planes(x.data, qa, cl.int_digits);
        y = execute_int_plan_shard(cl.int_plan, in_planes, pool, units,
                                   cl.precision.a_bits, cl.precision.w_bits,
                                   qa, cl.qw, 0, cout, 0, ho);
      }
      DatapathStats after;
      for (const auto& u : units) after += u->stats();
      stats[static_cast<size_t>(id)] = after - before;
    }
  } else {
    // Joins are exact elementwise ops: no datapath work, no stats.
    std::vector<const Tensor*> parts;
    parts.reserve(nd.inputs.size());
    for (int p : nd.inputs) parts.push_back(&acts[static_cast<size_t>(p)]);
    y = nd.op == GraphNode::Op::kAdd ? tensor_add(parts)
                                     : channel_concat(parts);
  }
  acts[static_cast<size_t>(id)] = apply_post_ops(std::move(y), nd.relu, nd.pool);
}

RunReport CompiledModel::run(const Tensor& input, const RunOptions& opts,
                             ThreadPool& pool) const {
  // Per-call scratch: one private datapath per worker slot for single-node
  // waves (pixel-level parallelism).  The plans themselves are only read.
  std::vector<std::unique_ptr<Datapath>> units;
  units.reserve(static_cast<size_t>(pool.size()));
  for (int slot = 0; slot < pool.size(); ++slot) {
    units.push_back(make_datapath(spec_.datapath));
  }
  return run_with_units(input, opts, pool, units);
}

RunReport CompiledModel::run_with_units(
    const Tensor& input, const RunOptions& opts, ThreadPool& pool,
    std::span<const std::unique_ptr<Datapath>> units) const {
  validate_input(input);

  RunReport report;
  report.model = name_;
  report.scheme = scheme_name(spec_.datapath.scheme);
  report.kernel_backend = simd::backend_name();
  report.threads = pool.size();

  std::shared_ptr<const std::vector<Tensor>> refs;
  if (opts.compare_reference) refs = reference_chain(input);

  std::vector<Tensor> acts(nodes_.size());
  acts[static_cast<size_t>(topo_.input_node)] = input;
  std::vector<DatapathStats> node_stats(nodes_.size());

  for (const std::vector<int>& wave : topo_.waves) {
    if (wave.size() == 1) {
      // One node gets the whole pool, parallel over output pixels.
      exec_node(wave[0], acts, node_stats, pool, units);
      continue;
    }
    // Independent branches: one node per worker.
    dispatch_private(
        pool, wave.size(), spec_.datapath,
        [&](size_t i) {
          return nodes_[static_cast<size_t>(wave[i])].op ==
                 GraphNode::Op::kConv;
        },
        [&](size_t i, ThreadPool& inline_pool,
            std::span<const std::unique_ptr<Datapath>> unit) {
          exec_node(wave[i], acts, node_stats, inline_pool, unit);
        });
  }

  for (int id : topo_.order) {
    if (id == topo_.input_node) continue;
    const GraphNode& nd = nodes_[static_cast<size_t>(id)];
    LayerRunReport lr;
    lr.layer = nd.name;
    lr.precision = nd.op == GraphNode::Op::kConv
                       ? compiled_[static_cast<size_t>(id)].precision_label
                       : graph_op_name(nd.op);
    lr.stats = node_stats[static_cast<size_t>(id)];
    if (refs) lr.error = compare_outputs(acts[static_cast<size_t>(id)],
                                         (*refs)[static_cast<size_t>(id)]);
    report.totals += lr.stats;
    report.layers.push_back(std::move(lr));
  }

  report.output = std::move(acts[static_cast<size_t>(topo_.output_node)]);
  if (refs) {
    report.end_to_end = report.layers.back().error;
    report.reference_output = (*refs)[static_cast<size_t>(topo_.output_node)];
  }
  if (opts.with_estimate) report.estimate = estimate();
  return report;
}

RunReport CompiledModel::run(const Tensor& input, const RunOptions& opts) const {
  // spec().threads == 1 (the serving default) makes this pool threadless --
  // slot 0 runs inline -- so per-call construction costs nothing.
  ThreadPool pool(spec_.threads);
  return run(input, opts, pool);
}

BatchRunReport CompiledModel::run_batch(const std::vector<Tensor>& inputs,
                                        const RunOptions& opts,
                                        ThreadPool& pool) const {
  // The estimate depends only on the compiled geometry: compute it once.
  RunOptions per_run = opts;
  per_run.with_estimate = false;
  std::optional<NetworkSimResult> est;

  // One set of per-slot datapaths for the whole batch: per-node stats are
  // before/after deltas, so reuse across inputs is byte-identical to fresh
  // units while skipping batch_size-1 rounds of scratch construction.
  std::vector<std::unique_ptr<Datapath>> units;
  units.reserve(static_cast<size_t>(pool.size()));
  for (int slot = 0; slot < pool.size(); ++slot) {
    units.push_back(make_datapath(spec_.datapath));
  }

  BatchRunReport batch;
  batch.runs.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    batch.runs.push_back(run_with_units(input, per_run, pool, units));
    if (opts.with_estimate) {
      if (!est.has_value()) est = estimate();
      batch.runs.back().estimate = *est;
    }
    batch.totals += batch.runs.back().totals;
  }
  return batch;
}

BatchRunReport CompiledModel::run_batch(const std::vector<Tensor>& inputs,
                                        const RunOptions& opts) const {
  ThreadPool pool(spec_.threads);
  return run_batch(inputs, opts, pool);
}

NetworkSimResult CompiledModel::estimate() const {
  return simulate_network(shape_net_, composed_tile_for(spec_, spec_.tile),
                          spec_.sim, spec_.partition);
}

}  // namespace mpipu
