// Serving: what compile-once buys, and what the serving runtime adds on top.
//
// First, per request on one thread, for the fp16 and int8 policies:
//
//   * recompile-every-request -- what a naive server does: a fresh
//     Session::run pays the whole weight pipeline (FP16 rounding / INT
//     quantization, decode, nibble decomposition, per-clip-class stream
//     packing) every time;
//   * compiled -- one compile at load time, then CompiledModel::run per
//     request: each request pays only activation prep + the datapath.
//
// Then two load shapes, measured on the SAME request sequence:
//
//   * closed-loop baseline -- a single client issuing compiled.run(),
//     waiting, issuing again.  Its arrival rate adapts to the service rate,
//     so this is exactly the hand-rolled serving loop a caller writes
//     around a CompiledModel;
//   * batched runtime -- the same requests pushed through ServingRuntime's
//     bounded queue: the worker gathers up to max_batch queued same-model
//     requests per dispatch and coalesces byte-identical inputs so
//     duplicates execute ONCE (exact: execution is deterministic).
//
// Request streams are zipfian over a small input catalog (the hot-key skew
// of production traffic: a few inputs dominate) -- the regime coalescing
// exists for.  An all-distinct stream is measured and reported alongside,
// honestly: with nothing to coalesce on one core, the runtime matches the
// closed loop (~1.0x) and buys queueing/SLO machinery, not throughput.
// An open-loop Poisson sweep (below/at/above capacity) plus a bursty point
// reports the SLO picture: p50/p95/p99 latency, shed counts, batch sizes.
//
// Outputs are verified byte-identical before anything is timed: recompiled
// vs compiled runs (tensors), and the batched runtime vs direct serial
// execution (tensors AND per-layer stats).  The process exits non-zero if
// either gate fails; both feed the JSON's bit_identical flag.
//
// --soak adds a fixed-duration zipf soak with a mid-run fault window: the
// middle third of the run injects execution faults (FaultPlan), the circuit
// breaker opens, and the bench measures how long after the faults clear the
// runtime takes to recover to its pre-fault throughput.  The soak section
// lands in BENCH_server.json.  --no-soak-faults keeps the soak but disables
// the fault window (CI smoke: deterministic, no chaos on shared runners).
//
//   ./bench_server [--smoke] [--json [path]] [--soak] [--no-soak-faults]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "serve/fault.h"

#include "api/json.h"
#include "api/session.h"
#include "bench_util.h"
#include "common/rng.h"
#include "core/simd/simd.h"
#include "serve/serving_runtime.h"
#include "serve/traffic.h"

namespace mpipu {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using bench::tensors_identical;

/// FC-style serving head: chained 1x1 convs on a 1x1 map.  Per-request
/// activations are tiny and weights are everything -- the shape a
/// classifier head serves at, and the one where the weight pipeline is the
/// largest honest share of a request.
GraphModel serving_head(Rng& rng, int c0, int c1, int c_out) {
  std::vector<ModelLayer> layers(3);
  layers[0].name = "fc1";
  layers[0].filters = random_filters(rng, c1, c0, 1, 1, ValueDist::kNormal, 0.15);
  layers[0].relu = true;
  layers[1].name = "fc2";
  layers[1].filters = random_filters(rng, c1, c1, 1, 1, ValueDist::kNormal, 0.1);
  layers[1].relu = true;
  layers[2].name = "logits";
  layers[2].filters = random_filters(rng, c_out, c1, 1, 1, ValueDist::kNormal, 0.1);
  return GraphModel::from_layers("server-head", std::move(layers));
}

/// One row of the recompile-every-request vs compiled comparison.
struct RecompileResult {
  std::string mode;
  double recompile_s_per_req = 0.0;
  double compiled_s_per_req = 0.0;
  double speedup = 0.0;
  bool bit_identical = true;
};

Json to_json(const RecompileResult& r) {
  Json j = Json::object();
  j.set("mode", r.mode);
  j.set("recompile_s_per_req", r.recompile_s_per_req);
  j.set("compiled_s_per_req", r.compiled_s_per_req);
  j.set("speedup_compiled_vs_recompile", r.speedup);
  j.set("bit_identical", r.bit_identical);
  return j;
}

/// Single-thread seconds per request over the same request stream: a fresh
/// Session per request (recompiles the weights) vs one CompiledModel.
RecompileResult run_recompile_vs_compiled(std::string mode, const RunSpec& spec,
                                          const GraphModel& model,
                                          const std::vector<Tensor>& inputs,
                                          int requests,
                                          const RunOptions& opts) {
  RecompileResult r;
  r.mode = std::move(mode);
  const CompiledModel compiled =
      CompiledModel::compile(model, spec, {inputs[0].h, inputs[0].w});
  for (const Tensor& in : inputs) {
    if (!tensors_identical(Session(spec).run(model, in, opts).output,
                           compiled.run(in, opts).output)) {
      r.bit_identical = false;
      return r;
    }
  }
  double t0 = now_seconds();
  for (int q = 0; q < requests; ++q) {
    Session fresh(spec);
    (void)fresh.run(model, inputs[static_cast<size_t>(q) % inputs.size()], opts);
  }
  r.recompile_s_per_req = (now_seconds() - t0) / requests;
  t0 = now_seconds();
  for (int q = 0; q < requests; ++q) {
    (void)compiled.run(inputs[static_cast<size_t>(q) % inputs.size()], opts);
  }
  r.compiled_s_per_req = (now_seconds() - t0) / requests;
  r.speedup = r.recompile_s_per_req / r.compiled_s_per_req;
  return r;
}

struct LoadResult {
  std::string label;
  int requests = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t coalesced = 0;
  double elapsed_s = 0.0;
  double throughput_rps = 0.0;   ///< completed / elapsed
  double mean_batch = 0.0;
  bench::LatencySummary latency;
  size_t queue_high_water = 0;
};

Json to_json(const LoadResult& r) {
  Json j = Json::object();
  j.set("label", r.label);
  j.set("requests", r.requests);
  j.set("completed", static_cast<double>(r.completed));
  j.set("shed", static_cast<double>(r.shed));
  j.set("coalesced", static_cast<double>(r.coalesced));
  j.set("elapsed_s", r.elapsed_s);
  j.set("throughput_rps", r.throughput_rps);
  j.set("mean_batch_size", r.mean_batch);
  j.set("latency_p50_s", r.latency.p50_s);
  j.set("latency_p95_s", r.latency.p95_s);
  j.set("latency_p99_s", r.latency.p99_s);
  j.set("queue_high_water", static_cast<double>(r.queue_high_water));
  return j;
}

/// Closed-loop one-at-a-time loop over the request sequence: the hand-
/// rolled baseline.  Latency == service time (the client never queues).
LoadResult run_closed_loop(const CompiledModel& compiled,
                           const std::vector<Tensor>& catalog,
                           const std::vector<int>& sequence,
                           const RunOptions& opts) {
  LoadResult r;
  r.label = "closed-loop 1-at-a-time";
  r.requests = static_cast<int>(sequence.size());
  std::vector<double> lats;
  lats.reserve(sequence.size());
  const double t0 = now_seconds();
  for (int idx : sequence) {
    const double s = now_seconds();
    const RunReport rep = compiled.run(catalog[static_cast<size_t>(idx)], opts);
    (void)rep;
    lats.push_back(now_seconds() - s);
  }
  r.elapsed_s = now_seconds() - t0;
  r.completed = static_cast<uint64_t>(sequence.size());
  r.throughput_rps = static_cast<double>(r.completed) / r.elapsed_s;
  r.mean_batch = 1.0;
  r.latency = bench::summarize_latencies(std::move(lats));
  return r;
}

/// Push the request sequence through a fresh ServingRuntime.  With
/// `arrivals` empty the client submits as fast as it can (fully saturating
/// open loop); otherwise submissions replay the arrival schedule.
LoadResult run_batched(const RunSpec& spec, const serve::ServerConfig& cfg,
                       const GraphModel& model,
                       const std::vector<Tensor>& catalog,
                       const std::vector<int>& sequence, std::string label,
                       const std::vector<double>& arrivals = {}) {
  serve::ServingRuntime rt(spec, cfg);
  const serve::ModelHandle h =
      rt.load(model, catalog[0].h, catalog[0].w);

  LoadResult r;
  r.label = std::move(label);
  r.requests = static_cast<int>(sequence.size());
  std::vector<std::future<serve::ServeResult>> futs;
  futs.reserve(sequence.size());
  const double t0 = now_seconds();
  for (size_t i = 0; i < sequence.size(); ++i) {
    if (!arrivals.empty()) {
      const double target = t0 + arrivals[i];
      while (now_seconds() < target) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    futs.push_back(
        rt.submit(h, catalog[static_cast<size_t>(sequence[i])]));
  }
  std::vector<double> lats;
  lats.reserve(futs.size());
  for (auto& f : futs) {
    const serve::ServeResult res = f.get();
    if (res.ok()) lats.push_back(res.total_s);
  }
  r.elapsed_s = now_seconds() - t0;
  const serve::ServerMetrics m = rt.metrics();
  r.completed = m.completed;
  r.shed = m.shed_queue_full + m.shed_deadline + m.shed_shutdown;
  r.coalesced = m.coalesced;
  r.throughput_rps = static_cast<double>(r.completed) / r.elapsed_s;
  r.mean_batch = m.mean_batch_size;
  r.queue_high_water = m.queue_high_water;
  r.latency = bench::summarize_latencies(std::move(lats));
  return r;
}

/// Fixed-duration soak with a mid-run fault window (the --soak leg).
struct SoakResult {
  bool faults_enabled = false;
  double duration_s = 0.0;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;        ///< kExecError resolutions (injected faults)
  uint64_t shed_unhealthy = 0;
  uint64_t breaker_opened = 0;
  double pre_fault_rps = 0.0;   ///< first third (clean)
  double fault_rps = 0.0;       ///< middle third (faults firing)
  double post_fault_rps = 0.0;  ///< last third (faults cleared)
  /// Faults-cleared -> first 100 ms bucket back at >= 70% of the pre-fault
  /// rate.  0 when faults are disabled; negative if it never recovered.
  double recovery_s = 0.0;
  bool conserved = false;  ///< invariant held in EVERY sampled snapshot
};

Json to_json(const SoakResult& r) {
  Json j = Json::object();
  j.set("faults_enabled", r.faults_enabled);
  j.set("duration_s", r.duration_s);
  j.set("submitted", static_cast<double>(r.submitted));
  j.set("completed", static_cast<double>(r.completed));
  j.set("failed", static_cast<double>(r.failed));
  j.set("shed_unhealthy", static_cast<double>(r.shed_unhealthy));
  j.set("breaker_opened", static_cast<double>(r.breaker_opened));
  j.set("pre_fault_rps", r.pre_fault_rps);
  j.set("fault_rps", r.fault_rps);
  j.set("post_fault_rps", r.post_fault_rps);
  j.set("recovery_s", r.recovery_s);
  j.set("conserved", r.conserved);
  return j;
}

SoakResult run_soak(const RunSpec& spec, const GraphModel& model,
                    const std::vector<Tensor>& catalog, double duration_s,
                    bool with_faults) {
  // The fault window fails nearly every execution attempt, so the breaker
  // (threshold 3) is guaranteed to open; the cooldown is sized well inside
  // the post-fault third so recovery is observable within the run.
  auto faults = std::make_shared<serve::FaultPlan>(
      serve::FaultPlan::Config{.seed = 5150, .throw_prob = 0.9});
  faults->set_enabled(false);
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  cfg.queue_capacity = 64;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.open_cooldown_s = duration_s / 30.0;
  cfg.faults = faults;
  serve::ServingRuntime rt(spec, cfg);
  const serve::ModelHandle h = rt.load(model, catalog[0].h, catalog[0].w);

  // Two closed-loop zipf clients: serve() returns typed results, so the
  // stream keeps flowing straight through the fault window.
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      Rng crng(7700 + static_cast<uint64_t>(t));
      const std::vector<int> seq = serve::zipf_indices(
          crng, 1.1, static_cast<int>(catalog.size()), 1 << 20);
      for (size_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
        const serve::ServeResult res =
            rt.serve(h, catalog[static_cast<size_t>(seq[i % seq.size()])]);
        // A shed (breaker open, injected failure) resolves in microseconds:
        // back off briefly instead of spinning the admission path.
        if (!res.ok()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }

  // Sample completed-count trajectory in 100 ms buckets; flip the fault
  // window on at T/3 and off at 2T/3.
  const double t0 = now_seconds();
  const double t_fault_on = t0 + duration_s / 3.0;
  const double t_fault_off = t0 + 2.0 * duration_s / 3.0;
  const double t_end = t0 + duration_s;
  std::vector<double> sample_t;
  std::vector<uint64_t> sample_done;
  bool conserved = true;
  double t = t0;
  while (t < t_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    t = now_seconds();
    if (with_faults && !faults->enabled() && t >= t_fault_on &&
        t < t_fault_off) {
      faults->set_enabled(true);
    }
    if (faults->enabled() && t >= t_fault_off) faults->set_enabled(false);
    const serve::ServerMetrics m = rt.metrics();
    conserved = conserved && m.conserved();
    sample_t.push_back(t);
    sample_done.push_back(m.completed);
  }
  faults->set_enabled(false);
  stop.store(true, std::memory_order_release);
  for (std::thread& c : clients) c.join();

  const auto rate_between = [&](double from, double until) {
    uint64_t done_a = 0, done_b = 0;
    double ta = t0, tb = t0;
    for (size_t i = 0; i < sample_t.size(); ++i) {
      if (sample_t[i] <= from) { done_a = sample_done[i]; ta = sample_t[i]; }
      if (sample_t[i] <= until) { done_b = sample_done[i]; tb = sample_t[i]; }
    }
    return tb > ta ? static_cast<double>(done_b - done_a) / (tb - ta) : 0.0;
  };

  SoakResult r;
  r.faults_enabled = with_faults;
  r.duration_s = duration_s;
  r.pre_fault_rps = rate_between(t0, t_fault_on);
  r.fault_rps = rate_between(t_fault_on, t_fault_off);
  r.post_fault_rps = rate_between(t_fault_off, t_end);
  if (with_faults) {
    // First bucket after the faults clear that is back at >= 70% of the
    // pre-fault rate.
    r.recovery_s = -1.0;
    for (size_t i = 1; i < sample_t.size(); ++i) {
      if (sample_t[i - 1] < t_fault_off) continue;
      const double rps = static_cast<double>(sample_done[i] - sample_done[i - 1]) /
                         (sample_t[i] - sample_t[i - 1]);
      if (rps >= 0.7 * r.pre_fault_rps) {
        r.recovery_s = sample_t[i] - t_fault_off;
        break;
      }
    }
  }
  const serve::ServerMetrics m = rt.metrics();
  r.submitted = m.submitted;
  r.completed = m.completed;
  r.failed = m.failed;
  r.shed_unhealthy = m.shed_unhealthy;
  for (const serve::ModelHealthSnapshot& s : m.models) {
    r.breaker_opened += s.times_opened;
  }
  r.conserved = conserved && m.conserved() && m.in_flight == 0;
  return r;
}

}  // namespace
}  // namespace mpipu

int main(int argc, char** argv) {
  using namespace mpipu;

  bool smoke = false;
  bool soak = false;
  bool soak_faults = true;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--soak") == 0) {
      soak = true;
    } else if (std::strcmp(argv[i], "--no-soak-faults") == 0) {
      soak_faults = false;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i]
                                                          : "BENCH_server.json";
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json [path]] [--soak] "
                   "[--no-soak-faults]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::title(
      "Serving: compile once vs recompile, batching runtime vs closed loop");

  Rng rng(5150);
  const int c0 = smoke ? 96 : 256;
  const int c1 = smoke ? 96 : 256;
  const int c_out = smoke ? 32 : 64;
  const int kCatalog = smoke ? 4 : 8;
  const int kRequests = smoke ? 48 : 320;
  const double kZipfS = 1.1;

  const GraphModel model = serving_head(rng, c0, c1, c_out);
  std::vector<Tensor> catalog;
  for (int i = 0; i < kCatalog; ++i) {
    catalog.push_back(random_tensor(rng, c0, 1, 1, ValueDist::kHalfNormal, 1.0));
  }
  const std::vector<int> zipf_seq =
      serve::zipf_indices(rng, kZipfS, kCatalog, kRequests);
  std::vector<int> distinct_seq(static_cast<size_t>(kRequests));
  std::vector<Tensor> distinct_catalog;
  for (int i = 0; i < kRequests; ++i) {
    // Distinct stream: every request a different input (nothing to
    // coalesce).  Same geometry, fresh random values.
    distinct_catalog.push_back(
        random_tensor(rng, c0, 1, 1, ValueDist::kHalfNormal, 1.0));
    distinct_seq[static_cast<size_t>(i)] = i;
  }

  RunSpec spec;
  spec.datapath = DatapathConfig::for_scheme(DecompositionScheme::kTemporal);
  spec.datapath.adder_tree_width = 16;
  spec.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
  spec.threads = 1;

  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  cfg.queue_capacity = static_cast<size_t>(kRequests) + 1;  // throughput legs: no shedding

  const CompiledModel compiled = Session(spec).compile(model, {1, 1});

  // --- Compile once vs recompile every request, fp16 and int8. -----------
  RunSpec int8_spec = spec;
  int8_spec.policy = PrecisionPolicy::all_int(8);
  const std::vector<Tensor> recompile_inputs(catalog.begin(),
                                             catalog.begin() + 3);
  const int recompile_requests = smoke ? 4 : 12;
  const std::vector<RecompileResult> recompile = {
      run_recompile_vs_compiled("fp16+fp32acc", spec, model, recompile_inputs,
                                recompile_requests, cfg.run_options),
      run_recompile_vs_compiled("int8x8", int8_spec, model, recompile_inputs,
                                recompile_requests, cfg.run_options)};
  bench::Table recompile_table({"policy", "recompile s/req", "compiled s/req",
                                "speedup", "bit-identical"});
  bool recompile_identical = true;
  for (const RecompileResult& r : recompile) {
    recompile_table.add_row({r.mode, bench::fmt(r.recompile_s_per_req, 4),
                             bench::fmt(r.compiled_s_per_req, 4),
                             bench::fmt(r.speedup, 2) + "x",
                             r.bit_identical ? "yes" : "NO"});
    recompile_identical = recompile_identical && r.bit_identical;
  }
  std::printf("compile once vs recompile every request (%d requests, one "
              "thread):\n", recompile_requests);
  recompile_table.print();
  std::printf("\n");

  // --- Byte-identity gate: runtime-served outputs AND per-layer stats must
  // match direct serial execution exactly, coalesced or not. ---------------
  bool runtime_identical = true;
  {
    serve::ServingRuntime rt(spec, cfg);
    const serve::ModelHandle h = rt.load(model, 1, 1);
    std::vector<std::future<serve::ServeResult>> futs;
    for (int i = 0; i < kCatalog * 3; ++i) {  // duplicates force coalescing
      futs.push_back(rt.submit(h, catalog[static_cast<size_t>(i % kCatalog)]));
    }
    for (int i = 0; i < kCatalog * 3; ++i) {
      const serve::ServeResult res = futs[static_cast<size_t>(i)].get();
      const RunReport direct =
          compiled.run(catalog[static_cast<size_t>(i % kCatalog)],
                       cfg.run_options);
      if (!res.ok() ||
          !tensors_identical(res.report.output, direct.output) ||
          to_json_value(res.report.totals).dump(0) !=
              to_json_value(direct.totals).dump(0)) {
        runtime_identical = false;
      }
    }
  }
  std::printf("byte-identity gate (batched+coalesced vs direct serial): %s\n\n",
              runtime_identical ? "yes" : "NO");
  const bool bit_identical = recompile_identical && runtime_identical;

  // --- Saturating throughput: closed loop vs batched runtime. -------------
  RunOptions opts = cfg.run_options;
  const LoadResult closed = run_closed_loop(compiled, catalog, zipf_seq, opts);
  const LoadResult batched = run_batched(
      spec, cfg, model, catalog, zipf_seq,
      "batched runtime, zipf(s=" + bench::fmt(kZipfS, 1) + ") stream");
  const LoadResult closed_distinct =
      run_closed_loop(compiled, distinct_catalog, distinct_seq, opts);
  const LoadResult batched_distinct =
      run_batched(spec, cfg, model, distinct_catalog, distinct_seq,
                  "batched runtime, all-distinct stream");
  const double speedup_zipf = batched.throughput_rps / closed.throughput_rps;
  const double speedup_distinct =
      batched_distinct.throughput_rps / closed_distinct.throughput_rps;

  bench::Table table({"path", "req", "done", "req/s", "p50 ms", "p95 ms",
                      "p99 ms", "mean batch", "coalesced"});
  const auto add = [&table](const LoadResult& r) {
    table.add_row({r.label, std::to_string(r.requests),
                   std::to_string(r.completed), bench::fmt(r.throughput_rps, 1),
                   bench::fmt(r.latency.p50_s * 1e3, 2),
                   bench::fmt(r.latency.p95_s * 1e3, 2),
                   bench::fmt(r.latency.p99_s * 1e3, 2),
                   bench::fmt(r.mean_batch, 2),
                   std::to_string(r.coalesced)});
  };
  add(closed);
  add(batched);
  add(closed_distinct);
  add(batched_distinct);
  table.print();
  std::printf("\nsaturating-load throughput, batched/closed: zipf %.2fx "
              "(coalescing collapses hot-key duplicates), all-distinct %.2fx "
              "(nothing to coalesce on one core -- honest ~1.0x)\n",
              speedup_zipf, speedup_distinct);

  // --- Open-loop SLO sweep: Poisson below/at/above capacity + a burst. ----
  const double capacity = closed.throughput_rps;
  std::vector<LoadResult> sweep;
  serve::ServerConfig sweep_cfg = cfg;
  sweep_cfg.queue_capacity = 64;  // bounded: overload sheds instead of piling
  const int sweep_n = smoke ? 32 : 160;
  for (double mult : {0.5, 1.0, 2.0}) {
    Rng arng(9000 + static_cast<uint64_t>(mult * 10));
    const double rate = capacity * mult;
    const std::vector<double> arrivals =
        serve::poisson_arrivals(arng, rate, sweep_n);
    const std::vector<int> seq =
        serve::zipf_indices(arng, kZipfS, kCatalog, sweep_n);
    sweep.push_back(run_batched(
        spec, sweep_cfg, model, catalog, seq,
        "poisson " + bench::fmt(mult, 1) + "x capacity", arrivals));
  }
  {
    Rng arng(9999);
    serve::BurstyConfig bc;
    bc.burst_rate_rps = capacity * 4.0;
    bc.idle_rate_rps = 0.0;
    bc.mean_burst_s = 8.0 / capacity;   // ~8-request bursts
    bc.mean_idle_s = 16.0 / capacity;
    const std::vector<double> arrivals =
        serve::bursty_arrivals(arng, bc, sweep_n);
    const std::vector<int> seq =
        serve::zipf_indices(arng, kZipfS, kCatalog, sweep_n);
    sweep.push_back(run_batched(spec, sweep_cfg, model, catalog, seq,
                                "bursty 4x/idle", arrivals));
  }

  bench::Table slo({"open-loop load", "req", "done", "shed", "p50 ms",
                    "p95 ms", "p99 ms", "mean batch", "queue hw"});
  for (const LoadResult& r : sweep) {
    slo.add_row({r.label, std::to_string(r.requests),
                 std::to_string(r.completed), std::to_string(r.shed),
                 bench::fmt(r.latency.p50_s * 1e3, 2),
                 bench::fmt(r.latency.p95_s * 1e3, 2),
                 bench::fmt(r.latency.p99_s * 1e3, 2),
                 bench::fmt(r.mean_batch, 2),
                 std::to_string(r.queue_high_water)});
  }
  std::printf("\n");
  slo.print();

  std::printf("\nheadline: %.2fx throughput at saturating load on the zipf "
              "hot-key stream, byte-identical to serial execution\n",
              speedup_zipf);

  // --- Optional soak: fixed-duration stream with a mid-run fault window. --
  SoakResult soak_r;
  if (soak) {
    const double soak_s = smoke ? 1.5 : 6.0;
    std::printf("\nsoak: %.1f s zipf stream, fault window %s\n", soak_s,
                soak_faults ? "in the middle third (throw=0.9)" : "DISABLED");
    soak_r = run_soak(spec, model, catalog, soak_s, soak_faults);
    std::printf("  pre-fault %.1f req/s | fault window %.1f req/s | "
                "post-fault %.1f req/s\n",
                soak_r.pre_fault_rps, soak_r.fault_rps, soak_r.post_fault_rps);
    if (soak_faults) {
      std::printf("  %llu injected failures, breaker opened %llu time(s), "
                  "recovery to 70%% of pre-fault rate in %.2f s\n",
                  static_cast<unsigned long long>(soak_r.failed),
                  static_cast<unsigned long long>(soak_r.breaker_opened),
                  soak_r.recovery_s);
    }
    std::printf("  metrics conserved across every sampled snapshot: %s\n",
                soak_r.conserved ? "yes" : "NO");
  }

  Json root = Json::object();
  root.set("bench", "server");
  root.set("smoke", smoke);
  Json workload = Json::object();
  workload.set("model", std::to_string(c0) + "->" + std::to_string(c1) + "->" +
                            std::to_string(c1) + "->" + std::to_string(c_out) +
                            " fc head (1x1 convs)");
  workload.set("catalog_inputs", kCatalog);
  workload.set("requests", kRequests);
  workload.set("zipf_s", kZipfS);
  workload.set("max_batch", cfg.max_batch);
  workload.set("workers", cfg.workers);
  root.set("workload", std::move(workload));
  root.set("kernel_backend", simd::backend_name());
  Json recompile_j = Json::array();
  for (const RecompileResult& r : recompile) recompile_j.push(to_json(r));
  root.set("recompile_vs_compiled", std::move(recompile_j));
  Json sat = Json::object();
  sat.set("closed_loop_zipf", to_json(closed));
  sat.set("batched_zipf", to_json(batched));
  sat.set("closed_loop_distinct", to_json(closed_distinct));
  sat.set("batched_distinct", to_json(batched_distinct));
  sat.set("speedup_batched_vs_closed_zipf", speedup_zipf);
  sat.set("speedup_batched_vs_closed_distinct", speedup_distinct);
  root.set("saturating", std::move(sat));
  Json sweep_j = Json::array();
  for (const LoadResult& r : sweep) sweep_j.push(to_json(r));
  root.set("open_loop_sweep", std::move(sweep_j));
  root.set("speedup_batched_vs_closed", speedup_zipf);
  root.set("bit_identical", bit_identical);
  if (soak) root.set("soak", to_json(soak_r));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << root.dump() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  // The soak's conservation audit is a correctness gate just like
  // byte-identity: a non-balancing ledger fails the bench.
  return (bit_identical && (!soak || soak_r.conserved)) ? 0 : 1;
}
