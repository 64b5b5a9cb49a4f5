#include "workloads.h"

#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "serve/serving_runtime.h"
#include "serve/traffic.h"
#include "workload/graph_builders.h"

namespace perfbench {

using namespace mpipu;

namespace {

// Seed streams: weights, inputs and traffic draw from independent
// generators so changing one never shifts another.
constexpr uint64_t kWeightStream = 0x57e1647ULL;
constexpr uint64_t kInputStream = 0x1290075ULL;
constexpr uint64_t kTrafficStream = 0x7aff1cULL;

uint64_t stream_seed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One closed-loop model workload: graph, geometry, spec and loop sizes.
struct ModelWorkload {
  GraphModel graph;
  int h = 0, w = 0;
  RunSpec spec;
  int catalogue = 2;     ///< distinct inputs the timed passes cycle over
  int warmup_passes = 2;  ///< untimed passes (>= catalogue)
  int setup_reps = 3;    ///< compiles timed for setup_s
};

ModelWorkload model_workload(const Options& o) {
  ModelWorkload m;
  if (o.workload == "resnet18-fp16" || o.workload == "resnet18-int8") {
    m.graph = resnet18_graph();
    m.h = m.w = 32;
    m.spec.policy = o.workload == "resnet18-fp16"
                        ? PrecisionPolicy::all_fp16()
                        : PrecisionPolicy::int8_except_first_last();
    m.spec.threads = 1;
    m.catalogue = 2;
    m.warmup_passes = o.workload == "resnet18-fp16" ? 2 : 4;
    m.setup_reps = 3;
  } else if (o.workload == "inception-a") {
    m.graph = inception_a_block_graph(192);
    m.h = m.w = 8;
    m.spec.policy = PrecisionPolicy::all_fp16();
    m.spec.threads = o.nproc;
    m.catalogue = 4;
    m.warmup_passes = 8;
    m.setup_reps = 11;
  } else {
    throw std::invalid_argument("unknown workload: " + o.workload);
  }
  m.graph.materialize_weights(stream_seed(o.seed, kWeightStream));
  return m;
}

std::vector<Tensor> make_inputs(const GraphModel& g, int c, int h, int w,
                                int count, uint64_t seed) {
  Rng rng(stream_seed(seed, kInputStream));
  const LayerTensorStats& st = g.tensor_stats();
  std::vector<Tensor> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(random_tensor(rng, c, h, w, st.activation_dist,
                                st.activation_scale));
  }
  return out;
}

uint64_t report_digest(const RunReport& r) {
  Digest d;
  d.tensor(r.output);
  d.stats(r.totals);
  return d.get();
}

const RunOptions kPassOptions{.compare_reference = false,
                              .with_estimate = false};

void add(std::vector<Metric>& v, std::string name, double value,
         std::string unit) {
  v.push_back({std::move(name), value, std::move(unit)});
}

void add_sim_and_core_counts(const RunReport& rep, const NetworkSimResult& est,
                             Outcome& out) {
  add(out.gated, "core.fp_ops", static_cast<double>(rep.totals.fp_ops),
      "count");
  add(out.gated, "core.dp_cycles", static_cast<double>(rep.totals.cycles),
      "count");
  add(out.gated, "core.nibble_iterations",
      static_cast<double>(rep.totals.nibble_iterations), "count");
  add(out.gated, "core.multi_cycle_ops",
      static_cast<double>(rep.totals.multi_cycle_ops), "count");
  add(out.detail, "core.int_ops", static_cast<double>(rep.totals.int_ops),
      "count");
  add(out.gated, "sim.total_cycles", est.total_cycles, "cycles");
  add(out.gated, "sim.mean_tile_utilization", est.mean_tile_utilization,
      "share");
}

/// Closed-loop measurement of one compiled model: timed passes over a
/// catalogue of inputs, each checked against its warm-up digest, with
/// timed estimate() calls interleaved (each checked against the first
/// estimate's cycles).  Interleaving spreads both samples over the whole
/// run, so a burst of host contention lands on a few samples of each
/// instead of on all of one.  In a traced run every other pass runs
/// untraced, so the two medians give the tracing overhead.
class ModelSampler {
 public:
  /// estimate() gets about this share of the time passes get.
  static constexpr double kEstimateShare = 0.15;

  ModelSampler(const CompiledModel& cm, const std::vector<Tensor>& in,
               const std::vector<uint64_t>& want, Trace& trace, Outcome& out)
      : cm_(&cm), in_(in), want_(want), trace_(trace), out_(out) {}

  /// Continue on another compile of the same model (which must reproduce
  /// the same digests).
  void rebind(const CompiledModel& cm) { cm_ = &cm; }

  /// Passes for at least `seconds` and `min_passes`, with estimates
  /// interleaved; then estimates until there are `min_estimates` in all.
  void run(double seconds, int min_passes, size_t min_estimates = 0) {
    const double start = now_s();
    for (int k = 0; k < min_passes || now_s() - start < seconds; ++k) {
      pass();
      if (est_total_ < kEstimateShare * pass_total_) estimate();
    }
    while (estimates.size() < min_estimates) estimate();
  }

  std::vector<double> passes() const {
    std::vector<double> v = untraced;
    v.insert(v.end(), traced.begin(), traced.end());
    return v;
  }

  std::vector<double> untraced, traced, estimates;
  NetworkSimResult first_estimate;

 private:
  void pass() {
    const size_t i = static_cast<size_t>(count_) % in_.size();
    const bool traced_pass = trace_.enabled() && count_ % 2 == 0;
    const int span = traced_pass ? trace_.begin("api.run", -1, count_) : -1;
    const double t0 = now_s();
    uint64_t got = 0;
    try {
      got = report_digest(cm_->run(in_[i], kPassOptions));
    } catch (const std::exception& e) {
      out_.notes.push_back(std::string("run failed: ") + e.what());
    }
    const double dt = now_s() - t0;
    trace_.end(span);
    (traced_pass ? traced : untraced).push_back(dt);
    pass_total_ += dt;
    ++count_;
    out_.check(got == want_[i]);
  }

  void estimate() {
    Scoped span(trace_, "api.estimate");
    const double t0 = now_s();
    NetworkSimResult r = cm_->estimate();
    const double dt = now_s() - t0;
    estimates.push_back(dt);
    est_total_ += dt;
    if (estimates.size() == 1) {
      first_estimate = std::move(r);
    } else {
      out_.check(r.total_cycles == first_estimate.total_cycles);
    }
  }

  const CompiledModel* cm_;
  const std::vector<Tensor>& in_;
  const std::vector<uint64_t>& want_;
  Trace& trace_;
  Outcome& out_;
  int count_ = 0;
  double pass_total_ = 0.0, est_total_ = 0.0;
};

/// The end-to-end metrics every workload reports (see README.md).
void add_end_to_end(const std::vector<double>& setup,
                    const ModelSampler& sampler, Outcome& out) {
  add(out.gated, "setup_s", median(setup), "s");
  const std::vector<double> p = sampler.passes();
  add(out.gated, "infer_s_min", *std::min_element(p.begin(), p.end()), "s");
  add(out.gated, "estimate_s", median(sampler.estimates), "s");
  add(out.gated, "peak_rss_mb", peak_rss_mb(), "MB");
}

/// Sample counts and the spread of the pass times, for the result file.
void add_pass_detail(const std::vector<double>& setup,
                     const ModelSampler& sampler, Outcome& out) {
  const std::vector<double> p = sampler.passes();
  add(out.detail, "setup.samples", static_cast<double>(setup.size()), "count");
  add(out.detail, "infer.samples", static_cast<double>(p.size()), "count");
  add(out.detail, "infer_s_p10", percentile(p, 10), "s");
  add(out.detail, "infer_s_p50", percentile(p, 50), "s");
  add(out.detail, "infer_s_max", *std::max_element(p.begin(), p.end()), "s");
  add(out.detail, "estimate.samples",
      static_cast<double>(sampler.estimates.size()), "count");
  out.samples = {{"setup_s", setup},
                 {"infer_s", p},
                 {"estimate_s", sampler.estimates}};
}

/// Workload digest: the per-input warm-up digests plus the estimate's
/// cycles, checked against the committed digest when one is given.
void finish_digest(const std::vector<uint64_t>& want, double cycles,
                   const Options& o, Outcome& out) {
  Digest d;
  for (uint64_t w : want) d.value(w);
  d.value(cycles);
  out.digest = d.get();
  if (o.expected_digest) {
    out.digest_checked = true;
    out.check(out.digest == *o.expected_digest);
  }
}

// ---------------------------------------------------------------------------
// resnet18-fp16 / resnet18-int8 / inception-a.
// ---------------------------------------------------------------------------

Outcome run_model_workload(const Options& o, Trace& trace) {
  Outcome out;
  ModelWorkload m = model_workload(o);
  const CompileOptions copts{.input_h = m.h, .input_w = m.w};

  // setup_s: the median of setup_reps compiles, spread over the run: one
  // before the warm-up, the rest between segments of timed passes, each
  // replacing the live plan (one plan alive at a time, as a deployment
  // holds it).
  std::vector<double> compile_s;
  std::optional<CompiledModel> cm;
  const auto compile = [&] {
    cm.reset();
    Scoped span(trace, "api.compile");
    const double t0 = now_s();
    cm.emplace(CompiledModel::compile(m.graph, m.spec, copts));
    compile_s.push_back(now_s() - t0);
  };
  compile();

  const std::vector<Tensor> inputs =
      make_inputs(m.graph, cm->input_c(), m.h, m.w, m.catalogue, o.seed);

  // Untimed warm-up: fixes each input's expected digest.
  std::vector<uint64_t> want(inputs.size());
  RunReport first_report;
  for (int pass = 0; pass < m.warmup_passes; ++pass) {
    const size_t i = static_cast<size_t>(pass) % inputs.size();
    Scoped span(trace, "api.run.warmup", -1, -1 - pass);
    RunReport r = cm->run(inputs[i], kPassOptions);
    const uint64_t d = report_digest(r);
    if (pass < static_cast<int>(inputs.size())) {
      want[i] = d;
    } else {
      out.check(d == want[i]);
    }
    if (pass == 0) first_report = std::move(r);
  }

  ModelSampler sampler(*cm, inputs, want, trace, out);
  for (int seg = 0; seg < m.setup_reps; ++seg) {
    if (seg > 0) {
      compile();
      sampler.rebind(*cm);
    }
    sampler.run(o.seconds / m.setup_reps, 1);
  }
  sampler.run(0.0, 0, 3);
  finish_digest(want, sampler.first_estimate.total_cycles, o, out);

  if (!trace.enabled()) {
    add_end_to_end(compile_s, sampler, out);
  } else {
    layer_breakdown(m.graph, *cm, inputs[0], median(sampler.untraced), trace,
                    out);
    core_microbench(m.spec, m.graph.tensor_stats(), o.seed, trace, out);
    pool_spawn_bench(o.nproc, trace, out);
    serve_probe(m.graph, m.spec, m.h, m.w, inputs[0], median(sampler.untraced),
                trace, out);
    add_sim_and_core_counts(first_report, sampler.first_estimate, out);
    add(out.gated, "trace.overhead_s",
        median(sampler.traced) - median(sampler.untraced), "s");
  }
  add_pass_detail(compile_s, sampler, out);
  add(out.detail, "threads", static_cast<double>(m.spec.threads), "count");
  return out;
}

// ---------------------------------------------------------------------------
// serve-zipf.
// ---------------------------------------------------------------------------

constexpr int kServeCatalogue = 32;
constexpr double kZipfS = 1.1;
constexpr int kServeH = 8, kServeW = 8;
constexpr double kServeBlockSeconds = 1.0;

RunSpec serve_spec() {
  RunSpec spec;
  spec.policy = PrecisionPolicy::all_fp16();
  spec.threads = 1;
  return spec;
}

serve::ServerConfig serve_config() {
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 8;
  // Deep enough that the heavy phase's bursts queue instead of shedding:
  // a shed request is a failure of this workload.
  cfg.queue_capacity = 4096;
  return cfg;
}

GraphModel serve_graph(uint64_t seed) {
  GraphModel g = resnet_basic_block_graph(16, 16, 1);
  g.materialize_weights(stream_seed(seed, kWeightStream));
  return g;
}

struct PhaseResult {
  std::string name;
  std::vector<double> latency, queue_wait, exec, gen_lag;
  int64_t sent = 0, within_slo = 0;
  std::map<std::string, int64_t> shed;
  serve::ServerMetrics before, after;
};

/// One open-loop phase: Poisson arrivals at `rate` for `seconds`, inputs
/// drawn zipf over the catalogue, sent by this (single generator) thread.
/// Latency runs from when a request was due until its future resolved.
PhaseResult run_phase(serve::ServingRuntime& rt, serve::ModelHandle h,
                      const std::string& name, double rate, double seconds,
                      double slo_s, uint64_t seed,
                      const std::vector<Tensor>& catalogue,
                      const std::vector<uint64_t>& want, Trace& trace,
                      int64_t& request_id, Outcome& out) {
  PhaseResult pr;
  pr.name = name;
  Rng rng(seed);
  const int count = std::max(1, static_cast<int>(std::ceil(rate * seconds)));
  const std::vector<double> arrivals = serve::poisson_arrivals(rng, rate, count);
  const std::vector<int> idx = serve::zipf_indices(rng, kZipfS, kServeCatalogue, count);

  struct Sent {
    double due = 0.0, send = 0.0;
    int input = 0;
    std::future<serve::ServeResult> fut;
  };
  std::vector<Sent> sent(static_cast<size_t>(count));
  pr.before = rt.metrics();
  const double t0 = now_s() + 0.01;
  for (int i = 0; i < count; ++i) {
    Sent& s = sent[static_cast<size_t>(i)];
    s.due = t0 + arrivals[static_cast<size_t>(i)];
    s.input = idx[static_cast<size_t>(i)];
    const auto due_tp = std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(s.due)));
    std::this_thread::sleep_until(due_tp);
    s.send = now_s();
    s.fut = rt.submit(h, catalogue[static_cast<size_t>(s.input)]);
  }
  for (Sent& s : sent) {
    serve::ServeResult r = s.fut.get();
    ++pr.sent;
    const double lag = s.send - s.due;
    pr.gen_lag.push_back(lag);
    const bool ok = r.ok() && report_digest(r.report) ==
                                  want[static_cast<size_t>(s.input)];
    out.check(ok);
    if (!r.ok()) {
      ++pr.shed[serve::reject_reason_name(r.rejected)];
      continue;
    }
    const double lat = lag + r.total_s;
    pr.latency.push_back(lat);
    pr.queue_wait.push_back(r.queue_wait_s);
    pr.exec.push_back(r.total_s - r.queue_wait_s);
    if (ok && lat <= slo_s) ++pr.within_slo;
    if (trace.enabled()) {
      const int64_t g = request_id++;
      const int root = trace.add("serve.request", s.due, s.due + lat, -1, g);
      trace.add("serve.gen_lag", s.due, s.send, root, g);
      trace.add("serve.queue_wait", s.send, s.send + r.queue_wait_s, root, g);
      trace.add("serve.exec", s.send + r.queue_wait_s, s.send + r.total_s,
                root, g);
    }
  }
  pr.after = rt.metrics();
  return pr;
}

void report_phase(const PhaseResult& pr, Outcome& out) {
  const std::string p = pr.name + ".";
  const size_t n = pr.latency.size();
  add(out.detail, p + "sent", static_cast<double>(pr.sent), "count");
  add(out.detail, p + "latency_s_p50", percentile(pr.latency, 50), "s");
  // Tail: p99 when the sample supports it, else the highest percentile
  // with at least kMinTailSamples samples beyond it.
  const int tail = highest_supported_percentile(n);
  if (tail > 50) {
    add(out.detail, p + "latency_s_p" + std::to_string(tail),
        percentile(pr.latency, tail), "s");
  }
  add(out.detail, p + "slo_attain",
      pr.sent > 0 ? static_cast<double>(pr.within_slo) /
                        static_cast<double>(pr.sent)
                  : 0.0,
      "share");
  add(out.detail, p + "gen_lag_s_p99", percentile(pr.gen_lag, 99), "s");
  add(out.detail, p + "queue_wait_s_p50", percentile(pr.queue_wait, 50), "s");
  if (tail == 99) {
    add(out.detail, p + "queue_wait_s_p99", percentile(pr.queue_wait, 99), "s");
  }
  add(out.detail, p + "exec_s_p50", percentile(pr.exec, 50), "s");
  const double completed =
      static_cast<double>(pr.after.completed - pr.before.completed);
  const double batches =
      static_cast<double>(pr.after.batches - pr.before.batches);
  add(out.detail, p + "mean_batch_size", batches > 0 ? completed / batches : 0.0,
      "count");
  add(out.detail, p + "coalesced_share",
      completed > 0 ? static_cast<double>(pr.after.coalesced -
                                          pr.before.coalesced) /
                          completed
                    : 0.0,
      "share_of_completed");
  add(out.detail, p + "queue_high_water",
      static_cast<double>(pr.after.queue_high_water), "count");
  for (const auto& [reason, count] : pr.shed) {
    add(out.detail, p + "shed." + reason, static_cast<double>(count), "count");
  }
}

Outcome run_serve_workload(const Options& o, Trace& trace) {
  if (o.light_rps <= 0.0 || o.heavy_rps <= 0.0 || o.slo_p99_s <= 0.0) {
    throw std::invalid_argument(
        "serve-zipf needs --light-rps, --heavy-rps and --slo-p99-s");
  }
  Outcome out;
  const GraphModel g = serve_graph(o.seed);
  const RunSpec spec = serve_spec();

  // setup_s: load() into a fresh runtime (a repeat load into the same one
  // is a plan-cache hit).  Loads take under a millisecond, so take 31: the
  // serving runtime's own, and ten into throwaway runtimes in each of the
  // three blocks below.
  std::vector<double> load_s;
  const auto load = [&](serve::ServingRuntime& r) {
    Scoped span(trace, "serve.load");
    const double t0 = now_s();
    const serve::ModelHandle handle = r.load(g, kServeH, kServeW);
    load_s.push_back(now_s() - t0);
    return handle;
  };
  const auto throwaway_loads = [&](int n) {
    for (int i = 0; i < n; ++i) {
      serve::ServingRuntime r(spec, serve_config());
      (void)load(r);
    }
  };
  serve::ServingRuntime rt(spec, serve_config());
  const serve::ModelHandle h = load(rt);
  const std::shared_ptr<const CompiledModel> cm = rt.model(h);
  const std::vector<Tensor> catalogue =
      make_inputs(g, cm->input_c(), kServeH, kServeW, kServeCatalogue, o.seed);

  // Expected reports: a direct run of every catalogue input.  Direct
  // closed-loop passes and estimates are timed in three blocks of at least
  // kServeBlockSeconds -- before, between and after the open-loop phases --
  // never while requests are in flight.
  std::vector<uint64_t> want(catalogue.size());
  for (size_t i = 0; i < catalogue.size(); ++i) {
    want[i] = report_digest(cm->run(catalogue[i], kPassOptions));
  }
  ModelSampler sampler(*cm, catalogue, want, trace, out);
  throwaway_loads(10);
  sampler.run(kServeBlockSeconds, kServeCatalogue);

  // Untimed warm-up through the runtime: every catalogue input once.
  for (size_t i = 0; i < catalogue.size(); ++i) {
    serve::ServeResult r = rt.serve(h, catalogue[i]);
    out.check(r.ok() && report_digest(r.report) == want[i]);
  }

  int64_t request_id = 0;
  // The heavy phase gets enough requests for a p99 with ten samples
  // beyond it at the committed rates; the light phase reports its tail at
  // the highest percentile its sample supports.
  const double light_s = 0.4 * o.seconds;
  const PhaseResult light =
      run_phase(rt, h, "light", o.light_rps, light_s, o.slo_p99_s,
                stream_seed(o.seed, kTrafficStream), catalogue, want, trace,
                request_id, out);
  throwaway_loads(10);
  sampler.run(kServeBlockSeconds, kServeCatalogue);
  const PhaseResult heavy =
      run_phase(rt, h, "heavy", o.heavy_rps, o.seconds - light_s,
                o.slo_p99_s, stream_seed(o.seed, kTrafficStream + 1),
                catalogue, want, trace, request_id, out);
  throwaway_loads(10);
  sampler.run(kServeBlockSeconds, kServeCatalogue, 3);
  finish_digest(want, sampler.first_estimate.total_cycles, o, out);

  if (!trace.enabled()) {
    add_end_to_end(load_s, sampler, out);
  } else {
    layer_breakdown(g, *cm, catalogue[0], median(sampler.untraced), trace,
                    out);
    core_microbench(spec, g.tensor_stats(), o.seed, trace, out);
    pool_spawn_bench(o.nproc, trace, out);
    serve_probe(g, spec, kServeH, kServeW, catalogue[0],
                median(sampler.untraced), trace, out);
    const RunReport rep = cm->run(catalogue[0], kPassOptions);
    add_sim_and_core_counts(rep, sampler.first_estimate, out);
    add(out.gated, "trace.overhead_s",
        median(sampler.traced) - median(sampler.untraced), "s");
  }
  add_pass_detail(load_s, sampler, out);
  report_phase(light, out);
  report_phase(heavy, out);
  add(out.detail, "light.rate_rps", o.light_rps, "1/s");
  add(out.detail, "heavy.rate_rps", o.heavy_rps, "1/s");
  add(out.detail, "heavy.slo_p99_limit_s", o.slo_p99_s, "s");
  rt.shutdown(serve::ServingRuntime::Shutdown::kDrain);
  out.check(rt.metrics().conserved());
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "resnet18-fp16", "resnet18-int8", "inception-a", "serve-zipf"};
  return names;
}

Outcome run_workload(const Options& o, Trace& trace) {
  if (o.workload == "serve-zipf") return run_serve_workload(o, trace);
  return run_model_workload(o, trace);
}

}  // namespace perfbench
