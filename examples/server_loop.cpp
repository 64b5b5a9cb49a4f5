// Server loop: the load-once / serve-many pattern, end to end.
//
// A serving process prepares its fixed weights exactly once at load time
// and then executes requests against the immutable plan.  src/serve's
// ServingRuntime puts the machinery a real serving process needs around
// that plan: a bounded request queue, a dynamic batching window, async
// workers, typed overload shedding and SLO metrics.
//
//   load(model)  -> handle            (compile once into the plan cache)
//   submit(h, x) -> future<result>    (never throws for overload)
//   model(h)     -> the CompiledModel (direct, reentrant run() calls)
//   metrics()    -> throughput, p50/p95/p99, shed counts, batch sizes
#include <cstdio>
#include <future>
#include <vector>

#include "api/run_report.h"
#include "common/rng.h"
#include "serve/serving_runtime.h"
#include "serve/traffic.h"

using namespace mpipu;

int main() {
  // ---- load time: model + runtime --------------------------------------
  Rng rng(99);
  std::vector<ModelLayer> layers(3);
  layers[0] = {"stem", random_filters(rng, 16, 3, 3, 3, ValueDist::kNormal, 0.3),
               ConvSpec{.stride = 1, .pad = 1}, /*relu=*/true, PoolOp::kNone};
  layers[1] = {"body", random_filters(rng, 24, 16, 3, 3, ValueDist::kNormal, 0.1),
               ConvSpec{.stride = 1, .pad = 1}, /*relu=*/true, PoolOp::kMax2};
  layers[2] = {"head", random_filters(rng, 10, 24, 1, 1, ValueDist::kNormal, 0.2),
               ConvSpec{}, /*relu=*/false, PoolOp::kGlobalAvg};
  const GraphModel model =
      GraphModel::from_layers("tiny-cnn", std::move(layers));

  RunSpec spec;
  spec.datapath.adder_tree_width = 16;  // MC-IPU(16)
  spec.policy = PrecisionPolicy::int8_except_first_last();
  spec.threads = 1;  // serving: parallelism across requests, not within one

  serve::ServerConfig cfg;
  cfg.workers = 1;          // async workers behind the queue
  cfg.queue_capacity = 32;  // bounded: overload sheds instead of piling up
  cfg.max_batch = 8;        // gather up to 8 same-model requests per dispatch
  serve::ServingRuntime rt(spec, cfg);
  const serve::ModelHandle h = rt.load(model, 16, 16);
  std::printf("loaded '%s' -> handle %d (%zu plan(s), %zu plan bytes)\n",
              rt.model(h)->model_name().c_str(), h, rt.loaded_count(),
              rt.metrics().plan_cache_bytes);

  // ---- request time: a zipf-skewed burst of requests --------------------
  // A small catalog with hot-key skew, like production traffic; identical
  // inputs inside one batch execute once and fan out (exact: the datapath
  // is deterministic).
  std::vector<Tensor> catalog;
  for (int i = 0; i < 4; ++i) {
    catalog.push_back(random_tensor(rng, 3, 16, 16, ValueDist::kHalfNormal, 1.0));
  }
  const std::vector<int> stream = serve::zipf_indices(rng, 1.2, 4, 24);

  std::vector<std::future<serve::ServeResult>> futures;
  for (int idx : stream) {
    serve::SubmitOptions opts;
    opts.timeout_s = 2.0;  // shed at dispatch if still queued past this
    futures.push_back(rt.submit(h, catalog[static_cast<size_t>(idx)], opts));
  }

  // The same plan also serves direct calls: CompiledModel::run is
  // reentrant, and a request's bytes do not depend on the path it took.
  const int probe = stream[0];
  const RunReport direct =
      rt.model(h)->run(catalog[static_cast<size_t>(probe)], cfg.run_options);
  bool identical = true;
  int ok = 0, rejected = 0, coalesced = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const serve::ServeResult r = futures[i].get();
    if (r.ok()) {
      ++ok;
      if (r.coalesced) ++coalesced;
      if (stream[i] == probe) {
        identical = identical && r.report.output.data == direct.output.data &&
                    to_json_value(r.report.totals).dump(0) ==
                        to_json_value(direct.totals).dump(0);
      }
    } else {
      ++rejected;
      std::printf("request rejected: %s\n",
                  serve::reject_reason_name(r.rejected));
    }
  }
  std::printf("served %d requests (%d coalesced onto an identical twin), "
              "%d rejected\n", ok, coalesced, rejected);
  std::printf("runtime vs direct rt.model(h)->run(): %s\n",
              identical ? "byte-identical" : "MISMATCH");

  // ---- the SLO picture ---------------------------------------------------
  const serve::ServerMetrics m = rt.metrics();
  std::printf("throughput %.1f req/s | latency p50 %.2f ms, p95 %.2f ms, "
              "p99 %.2f ms | mean batch %.2f | queue high-water %zu | "
              "shed full/deadline/shutdown %llu/%llu/%llu\n",
              m.throughput_rps, m.latency.p50_s * 1e3, m.latency.p95_s * 1e3,
              m.latency.p99_s * 1e3, m.mean_batch_size, m.queue_high_water,
              static_cast<unsigned long long>(m.shed_queue_full),
              static_cast<unsigned long long>(m.shed_deadline),
              static_cast<unsigned long long>(m.shed_shutdown));

  rt.shutdown(serve::ServingRuntime::Shutdown::kDrain);  // complete, then stop
  return identical ? 0 : 1;
}
