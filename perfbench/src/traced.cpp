// Per-layer measurements of the traced run: every number here comes from
// a call into one module's public functions, timed from benchmark code.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/datapath.h"
#include "core/prepared.h"
#include "nn/elementwise.h"
#include "serve/serving_runtime.h"
#include "workload/distributions.h"
#include "workload/quantizer.h"
#include "workloads.h"

namespace perfbench {

using namespace mpipu;

namespace {

constexpr int kNodeReps = 3;

void add(std::vector<Metric>& v, std::string name, double value,
         std::string unit) {
  v.push_back({std::move(name), value, std::move(unit)});
}

/// Join post-ops, as GraphModel defines them: ReLU (std::max(v, 0.0),
/// which keeps -0.0 and NaN exactly like the library).  No workload here
/// pools after a join; one that did would fail the chain-vs-graph check.
Tensor join_post_ops(Tensor t, const GraphNode& nd, Outcome& out) {
  if (nd.relu) {
    for (double& v : t.data) v = std::max(v, 0.0);
  }
  if (nd.pool != PoolOp::kNone) {
    out.notes.push_back("join '" + nd.name + "' pools; not modelled");
  }
  return t;
}

/// Time f() `reps` times; returns the median seconds.
template <typename F>
double median_time(int reps, Trace& trace, const std::string& span_name,
                   int64_t group, F&& f) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    Scoped span(trace, span_name, -1, group);
    const double t0 = now_s();
    f();
    secs.push_back(now_s() - t0);
  }
  return median(secs);
}

}  // namespace

void layer_breakdown(const GraphModel& graph, const CompiledModel& compiled,
                     const Tensor& input, double whole_pass_s, Trace& trace,
                     Outcome& out) {
  const std::vector<GraphNode>& nodes = graph.nodes();
  const GraphTopology topo =
      analyze_graph(nodes, compiled.input_h(), compiled.input_w());
  const std::vector<LayerPrecision>& prec = compiled.layer_precisions();
  const RunOptions opts{.compare_reference = false, .with_estimate = false};

  std::vector<Tensor> acts(nodes.size());
  acts[static_cast<size_t>(topo.input_node)] = input;
  size_t conv_k = 0;
  double compile_sum = 0.0, pass_sum = 0.0, join_sum = 0.0, ops_sum = 0.0;
  for (int id : topo.order) {
    if (id == topo.input_node) continue;
    const GraphNode& nd = nodes[static_cast<size_t>(id)];
    if (nd.op == GraphNode::Op::kConv) {
      // One-node graph: same weights, spec, post-ops and resolved
      // precision, fed the node's real input activation.
      std::vector<GraphNode> sub(2);
      sub[0].op = GraphNode::Op::kInput;
      sub[0].name = "input";
      sub[1] = nd;
      sub[1].inputs = {0};
      const GraphModel one =
          GraphModel::from_nodes(graph.name() + "." + nd.name, std::move(sub));
      RunSpec spec = compiled.spec();
      spec.policy = PrecisionPolicy().set_default(prec.at(conv_k++));
      const Tensor& x = acts[static_cast<size_t>(nd.inputs.at(0))];
      std::optional<CompiledModel> cm;
      const double compile_s =
          median_time(1, trace, "nn.compile", id, [&] {
            cm.emplace(CompiledModel::compile(
                one, spec, CompileOptions{.input_h = x.h, .input_w = x.w}));
          });
      RunReport rep;
      const double pass_s = median_time(kNodeReps, trace, "nn.run", id, [&] {
        rep = cm->run(x, opts);
      });
      const double ops =
          static_cast<double>(rep.totals.fp_ops + rep.totals.int_ops);
      acts[static_cast<size_t>(id)] = std::move(rep.output);
      compile_sum += compile_s;
      pass_sum += pass_s;
      ops_sum += ops;
      add(out.detail, "nn." + nd.name + ".compile_s", compile_s, "s");
      add(out.detail, "nn." + nd.name + ".pass_s", pass_s, "s");
      add(out.detail, "nn." + nd.name + ".ns_per_op",
          ops > 0 ? pass_s * 1e9 / ops : 0.0, "ns");
      add(out.detail, "nn." + nd.name + ".ops", ops, "count");
    } else {
      std::vector<const Tensor*> parts;
      for (int p : nd.inputs) parts.push_back(&acts[static_cast<size_t>(p)]);
      Tensor y;
      const double join_s = median_time(kNodeReps, trace, "nn.join", id, [&] {
        y = nd.op == GraphNode::Op::kAdd ? tensor_add(parts)
                                         : channel_concat(parts);
      });
      acts[static_cast<size_t>(id)] = join_post_ops(std::move(y), nd, out);
      join_sum += join_s;
      pass_sum += join_s;
      add(out.detail, "nn." + nd.name + ".join_s", join_s, "s");
    }
  }

  // The node-by-node chain must reproduce the whole graph's output.
  Digest chain, whole;
  chain.tensor(acts[static_cast<size_t>(topo.output_node)]);
  whole.tensor(compiled.run(input, opts).output);
  out.check(chain.get() == whole.get());

  add(out.gated, "api.exec_overhead_s", whole_pass_s - pass_sum, "s");
  add(out.gated, "nn.compile_s", compile_sum, "s");
  add(out.gated, "nn.conv_ns_per_op",
      ops_sum > 0 ? (pass_sum - join_sum) * 1e9 / ops_sum : 0.0, "ns");
  add(out.gated, "nn.join_s", join_sum, "s");
  add(out.detail, "nn.pass_sum_s", pass_sum, "s");
}

void core_microbench(const RunSpec& spec, const LayerTensorStats& stats,
                     uint64_t seed, Trace& trace, Outcome& out) {
  constexpr int kOps = 256;
  constexpr double kMinRepSeconds = 0.05;
  const int n = spec.datapath.n_inputs;
  Rng rng(seed ^ 0xc07eULL);
  const std::vector<Fp16> a = sample_fp16(rng, stats.activation_dist,
                                          stats.activation_scale, n * kOps);
  const std::vector<Fp16> b =
      sample_fp16(rng, stats.weight_dist, stats.weight_scale, n * kOps);
  const std::unique_ptr<Datapath> dp = make_datapath(spec.datapath);
  const auto at = [n](int k) {
    return std::pair{static_cast<size_t>(k) * static_cast<size_t>(n),
                     static_cast<size_t>(n)};
  };

  // Times `op(k)` over all kOps operand pairs until a rep lasts
  // kMinRepSeconds; five reps, median ns per op.
  const auto ns_per_op = [&](const std::string& span_name, auto&& op) {
    std::vector<double> per_op;
    for (int rep = 0; rep < 5; ++rep) {
      Scoped span(trace, span_name);
      int64_t done = 0;
      const double t0 = now_s();
      double dt = 0.0;
      do {
        for (int k = 0; k < kOps; ++k) {
          dp->reset_accumulator();
          op(k);
        }
        done += kOps;
        dt = now_s() - t0;
      } while (dt < kMinRepSeconds);
      per_op.push_back(dt * 1e9 / static_cast<double>(done));
    }
    return median(per_op);
  };

  const PreparedFp16 pa(a), pb(b);
  int64_t sink = 0;
  add(out.gated, "core.fp16_ns_per_op",
      ns_per_op("core.fp16_accumulate_prepared",
                [&](int k) {
                  const auto [off, len] = at(k);
                  sink += dp->fp16_accumulate_prepared(pa.view(off, len),
                                                       pb.view(off, len));
                }),
      "ns");

  if (dp->supports_int(8, 8)) {
    std::vector<double> av, bv;
    for (Fp16 v : a) av.push_back(v.to_double());
    for (Fp16 v : b) bv.push_back(v.to_double());
    const QuantParams qa = fit_symmetric(av, 8), qb = fit_symmetric(bv, 8);
    const bool digits = spec.datapath.scheme != DecompositionScheme::kSerial;
    PreparedInt ia, ib;
    ia.assign(quantize(av, qa), 8, false, digits);
    ib.assign(quantize(bv, qb), 8, false, digits);
    add(out.gated, "core.int8_ns_per_op",
        ns_per_op("core.int_accumulate_prepared",
                  [&](int k) {
                    const auto [off, len] = at(k);
                    sink += dp->int_accumulate_prepared(
                        ia.view(off, len), ib.view(off, len), 8, 8);
                  }),
        "ns");
  } else {
    out.notes.push_back("datapath has no INT8 mode; core.int8_ns_per_op absent");
  }
  // Publish the returned cycle counts so the timed calls cannot be elided.
  static volatile int64_t published = 0;
  published = sink;
}

void pool_spawn_bench(int threads, Trace& trace, Outcome& out) {
  std::vector<double> secs;
  for (int rep = 0; rep < 31; ++rep) {
    Scoped span(trace, "common.pool_spawn");
    const double t0 = now_s();
    { ThreadPool pool(threads); }
    secs.push_back(now_s() - t0);
  }
  add(out.gated, "common.pool_spawn_s", median(secs), "s");
}

void serve_probe(const GraphModel& graph, const RunSpec& spec, int h, int w,
                 const Tensor& input, double direct_pass_s, Trace& trace,
                 Outcome& out) {
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  serve::ServingRuntime rt(spec, cfg);
  serve::ModelHandle handle = -1;
  const double load_s = median_time(1, trace, "serve.load", -1, [&] {
    handle = rt.load(graph, h, w);
  });
  const RunOptions opts{.compare_reference = false, .with_estimate = false};
  Digest want;
  want.tensor(rt.model(handle)->run(input, opts).output);

  std::vector<double> queue_wait;
  const auto request = [&] {
    serve::ServeResult r = rt.serve(handle, input);
    Digest got;
    if (r.ok()) got.tensor(r.report.output);
    out.check(r.ok() && got.get() == want.get());
    queue_wait.push_back(r.queue_wait_s);
  };
  request();  // warm-up
  queue_wait.clear();
  const double request_s =
      median_time(kNodeReps, trace, "serve.request", -1, request);
  add(out.gated, "serve.load_s", load_s, "s");
  add(out.gated, "serve.overhead_s", request_s - direct_pass_s, "s");
  add(out.gated, "serve.queue_wait_s", median(queue_wait), "s");
  add(out.detail, "serve.request_s", request_s, "s");
}

}  // namespace perfbench
