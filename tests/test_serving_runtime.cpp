// Tests for the serving runtime (src/serve): the semantics the header
// promises, pinned under real thread interleavings.
//
//  * byte-identity: everything served through the queue/batcher -- batched,
//    coalesced or alone -- matches a direct CompiledModel::run of the same
//    input exactly (outputs AND per-layer stats);
//  * overload: a saturating client against a tiny bounded queue sheds
//    kQueueFull, and completed + shed always accounts for every submission;
//  * deadlines: an expired request is shed at dispatch without executing;
//  * shutdown: kDrain completes every accepted request, kAbort resolves the
//    still-queued ones as kShutdown, submissions after shutdown are
//    rejected immediately;
//  * the load() plan cache: content dedup, handle lifetime, and requests
//    that keep flowing while another model compiles;
//  * fault tolerance: admission-time bad-input shedding, per-request
//    isolation of a poisoned batch, the circuit breaker's full
//    open/half-open/closed cycle under a ManualClock, the watchdog's stall
//    accounting, and shutdown racing a lingering batch window;
//  * the conservation invariant -- every submission accounted for, exactly
//    once, in every metrics() snapshot including mid-flight ones;
//  * FaultPlan schedule determinism and the MPIPU_FAULT grammar;
//  * ServeClient retry/backoff/give-up behavior (virtual clock: the whole
//    backoff schedule runs in zero wall time);
//  * traffic synthesis (open-loop schedules) and the shared nearest-rank
//    percentile helper.
//
// Timing-dependent assertions are deliberately loose (>= 1 shed, counts
// that add up) -- the tests must pass on any scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "serve/fault.h"
#include "serve/health.h"
#include "serve/serve_client.h"
#include "serve/serving_runtime.h"
#include "serve/traffic.h"
#include "workload/graph_builders.h"

namespace mpipu::serve {
namespace {

DatapathConfig small_datapath() {
  DatapathConfig cfg = DatapathConfig::for_scheme(DecompositionScheme::kTemporal);
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 16;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  return cfg;
}

RunSpec serving_spec() {
  RunSpec spec;
  spec.datapath = small_datapath();
  spec.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
  spec.threads = 1;
  return spec;
}

/// Small 2-layer CNN (fast: the default request payload).
GraphModel fast_model(Rng& rng, const std::string& name = "serve_fast") {
  std::vector<ModelLayer> layers(2);
  layers[0].name = "conv1";
  layers[0].filters = random_filters(rng, 4, 3, 3, 3, ValueDist::kNormal, 0.3);
  layers[0].spec.pad = 1;
  layers[0].relu = true;
  layers[1].name = "head";
  layers[1].filters = random_filters(rng, 2, 4, 1, 1, ValueDist::kNormal, 0.2);
  return GraphModel::from_layers(name, std::move(layers));
}

/// Wider 3-layer CNN (slow: used to hold a worker busy while the queue
/// builds up behind it).
GraphModel slow_model(Rng& rng) {
  std::vector<ModelLayer> layers(3);
  layers[0].name = "conv1";
  layers[0].filters =
      random_filters(rng, 16, 3, 3, 3, ValueDist::kNormal, 0.3);
  layers[0].spec.pad = 1;
  layers[0].relu = true;
  layers[1].name = "conv2";
  layers[1].filters =
      random_filters(rng, 16, 16, 3, 3, ValueDist::kNormal, 0.15);
  layers[1].spec.pad = 1;
  layers[1].relu = true;
  layers[2].name = "head";
  layers[2].filters =
      random_filters(rng, 4, 16, 1, 1, ValueDist::kNormal, 0.2);
  return GraphModel::from_layers("serve_slow", std::move(layers));
}

TEST(ServingRuntime, BatchedAndCoalescedResultsAreByteIdentical) {
  Rng rng(7001);
  const GraphModel slow = slow_model(rng);
  const GraphModel fast = fast_model(rng);
  const Tensor plug = random_tensor(rng, 3, 16, 16, ValueDist::kHalfNormal, 1.0);
  std::vector<Tensor> catalog;
  for (int i = 0; i < 3; ++i) {
    catalog.push_back(random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0));
  }

  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.queue_capacity = 64;
  ServingRuntime rt(serving_spec(), cfg);
  const ModelHandle hs = rt.load(slow, 16, 16);
  const ModelHandle hf = rt.load(fast, 10, 10);

  // Direct baselines (no queue, no batcher) from the same compiled plans.
  std::vector<RunReport> direct;
  for (const Tensor& in : catalog) {
    direct.push_back(rt.model(hf)->run(in, cfg.run_options));
  }

  // The plug occupies the worker while the 12 fast requests pile up, so
  // batches (and in-batch duplicates) form deterministically.
  std::future<ServeResult> plug_fut = rt.submit(hs, plug);
  constexpr int kRequests = 12;
  std::vector<std::future<ServeResult>> futs;
  for (int i = 0; i < kRequests; ++i) {
    futs.push_back(rt.submit(hf, catalog[static_cast<size_t>(i % 3)]));
  }

  ASSERT_TRUE(plug_fut.get().ok());
  int batched = 0, coalesced = 0;
  for (int i = 0; i < kRequests; ++i) {
    ServeResult r = futs[static_cast<size_t>(i)].get();
    ASSERT_TRUE(r.ok()) << "request " << i << " rejected: "
                        << reject_reason_name(r.rejected);
    const RunReport& want = direct[static_cast<size_t>(i % 3)];
    ASSERT_EQ(r.report.output.data.size(), want.output.data.size());
    EXPECT_EQ(r.report.output.data, want.output.data) << "request " << i;
    // Per-layer stats byte-identity (via the shared JSON emitter).
    ASSERT_EQ(r.report.layers.size(), want.layers.size());
    EXPECT_EQ(to_json_value(r.report.totals).dump(0),
              to_json_value(want.totals).dump(0));
    if (r.batch_size > 1) ++batched;
    if (r.coalesced) ++coalesced;
    EXPECT_GE(r.total_s, r.queue_wait_s);
  }
  // With the worker plugged, the 12 queued requests must have formed
  // multi-request batches; 4 requests over a 3-input catalog guarantees a
  // duplicate in every full batch.
  EXPECT_GT(batched, 0);
  EXPECT_GT(coalesced, 0);

  const ServerMetrics m = rt.metrics();
  EXPECT_EQ(m.submitted, static_cast<uint64_t>(kRequests) + 1);
  EXPECT_EQ(m.completed, static_cast<uint64_t>(kRequests) + 1);
  EXPECT_EQ(m.coalesced, static_cast<uint64_t>(coalesced));
  EXPECT_GT(m.batches, 0u);
  EXPECT_GE(m.queue_high_water, 2u);
  EXPECT_EQ(m.latency.count, m.completed);
  EXPECT_GE(m.latency.p99_s, m.latency.p50_s);
}

TEST(ServingRuntime, CoalescingOffStillByteIdentical) {
  Rng rng(7002);
  const GraphModel fast = fast_model(rng);
  const Tensor input = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);

  ServerConfig cfg;
  cfg.coalesce_identical = false;
  cfg.max_batch = 4;
  ServingRuntime rt(serving_spec(), cfg);
  const ModelHandle h = rt.load(fast, 10, 10);
  const RunReport want = rt.model(h)->run(input, cfg.run_options);

  std::vector<std::future<ServeResult>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(rt.submit(h, input));
  for (auto& f : futs) {
    ServeResult r = f.get();
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.coalesced);
    EXPECT_EQ(r.report.output.data, want.output.data);
  }
  EXPECT_EQ(rt.metrics().coalesced, 0u);
}

TEST(ServingRuntime, SaturatingClientShedsQueueFull) {
  Rng rng(7003);
  const GraphModel slow = slow_model(rng);
  const Tensor input = random_tensor(rng, 3, 16, 16, ValueDist::kHalfNormal, 1.0);

  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.max_batch = 1;  // drain one at a time: the queue stays full
  ServingRuntime rt(serving_spec(), cfg);
  const ModelHandle h = rt.load(slow, 16, 16);

  constexpr int kRequests = 24;
  std::vector<std::future<ServeResult>> futs;
  for (int i = 0; i < kRequests; ++i) futs.push_back(rt.submit(h, input));

  uint64_t ok = 0, shed = 0;
  for (auto& f : futs) {
    const ServeResult r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.rejected, RejectReason::kQueueFull);
      EXPECT_EQ(r.batch_size, 0);
      ++shed;
    }
  }
  // Submission is microseconds per request against a multi-millisecond
  // service time and a 2-deep queue: shedding is unavoidable, and at least
  // the in-flight + queued requests complete.
  EXPECT_GE(shed, 1u);
  EXPECT_GE(ok, 1u);
  EXPECT_EQ(ok + shed, static_cast<uint64_t>(kRequests));

  const ServerMetrics m = rt.metrics();
  EXPECT_EQ(m.submitted, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(m.completed, ok);
  EXPECT_EQ(m.shed_queue_full, shed);
  EXPECT_LE(m.queue_high_water, cfg.queue_capacity);
}

TEST(ServingRuntime, PerModelAdmissionCapIsolatesAGreedyModel) {
  Rng rng(7004);
  const GraphModel slow = slow_model(rng);
  const GraphModel fast = fast_model(rng);
  const Tensor slow_in = random_tensor(rng, 3, 16, 16, ValueDist::kHalfNormal, 1.0);
  const Tensor fast_in = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);

  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 64;
  cfg.per_model_queue_cap = 2;
  cfg.max_batch = 1;
  ServingRuntime rt(serving_spec(), cfg);
  const ModelHandle hs = rt.load(slow, 16, 16);
  const ModelHandle hf = rt.load(fast, 10, 10);

  // The greedy model floods; its queue share is capped at 2, so the fast
  // model's request is still admitted.
  std::vector<std::future<ServeResult>> greedy;
  for (int i = 0; i < 16; ++i) greedy.push_back(rt.submit(hs, slow_in));
  std::future<ServeResult> precious = rt.submit(hf, fast_in);

  EXPECT_TRUE(precious.get().ok());
  uint64_t shed = 0;
  for (auto& f : greedy) {
    if (!f.get().ok()) ++shed;
  }
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(rt.metrics().shed_queue_full, shed);
}

TEST(ServingRuntime, ExpiredDeadlineShedsWithoutExecuting) {
  Rng rng(7005);
  const GraphModel slow = slow_model(rng);
  const GraphModel fast = fast_model(rng);
  const Tensor slow_in = random_tensor(rng, 3, 16, 16, ValueDist::kHalfNormal, 1.0);
  const Tensor fast_in = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);

  ServerConfig cfg;
  cfg.workers = 1;
  ServingRuntime rt(serving_spec(), cfg);
  const ModelHandle hs = rt.load(slow, 16, 16);
  const ModelHandle hf = rt.load(fast, 10, 10);

  // The slow request occupies the worker; the zero-timeout fast request
  // expires while queued (it cannot join the slow batch: batches are
  // same-model) and must be shed at dispatch, not executed.
  std::future<ServeResult> blocker = rt.submit(hs, slow_in);
  SubmitOptions expired;
  expired.timeout_s = 0.0;
  const ServeResult r = rt.serve(hf, fast_in, expired);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.rejected, RejectReason::kDeadline);
  EXPECT_TRUE(blocker.get().ok());
  EXPECT_EQ(rt.metrics().shed_deadline, 1u);

  // A generous deadline passes untouched.
  SubmitOptions plenty;
  plenty.timeout_s = 60.0;
  EXPECT_TRUE(rt.serve(hf, fast_in, plenty).ok());
}

TEST(ServingRuntime, DrainCompletesEveryAcceptedRequest) {
  Rng rng(7006);
  const GraphModel fast = fast_model(rng);
  const Tensor input = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);

  auto rt = std::make_unique<ServingRuntime>(serving_spec(), ServerConfig{});
  const ModelHandle h = rt->load(fast, 10, 10);
  constexpr int kRequests = 10;
  std::vector<std::future<ServeResult>> futs;
  for (int i = 0; i < kRequests; ++i) futs.push_back(rt->submit(h, input));

  rt->shutdown(ServingRuntime::Shutdown::kDrain);
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(rt->metrics().completed, static_cast<uint64_t>(kRequests));

  // After shutdown, submissions resolve kShutdown immediately (no throw).
  const ServeResult late = rt->serve(h, input);
  EXPECT_EQ(late.rejected, RejectReason::kShutdown);
  rt.reset();  // destructor's second shutdown is a no-op
}

TEST(ServingRuntime, AbortShedsQueuedButFinishesInFlight) {
  Rng rng(7007);
  const GraphModel slow = slow_model(rng);
  const Tensor input = random_tensor(rng, 3, 16, 16, ValueDist::kHalfNormal, 1.0);

  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;  // one request per dispatch: the rest stay queued
  ServingRuntime rt(serving_spec(), cfg);
  const ModelHandle h = rt.load(slow, 16, 16);

  constexpr int kRequests = 8;
  std::vector<std::future<ServeResult>> futs;
  for (int i = 0; i < kRequests; ++i) futs.push_back(rt.submit(h, input));
  rt.shutdown(ServingRuntime::Shutdown::kAbort);

  uint64_t ok = 0, shed = 0;
  for (auto& f : futs) {
    const ServeResult r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.rejected, RejectReason::kShutdown);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, static_cast<uint64_t>(kRequests));
  // Multi-millisecond service vs a microsecond abort: most of the queue is
  // still pending when the abort lands.
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(rt.metrics().shed_shutdown, shed);
}

TEST(ServingRuntime, LoadDedupsByContentAndGeometry) {
  Rng rng(7008);
  const GraphModel a = fast_model(rng, "serve_a");
  const GraphModel b = fast_model(rng, "serve_b");
  ServingRuntime rt(serving_spec());

  const ModelHandle ha = rt.load(a, 10, 10);
  EXPECT_EQ(rt.load(a, 10, 10), ha);  // content dedup
  EXPECT_EQ(rt.loaded_count(), 1u);
  // Same content at different geometry is a distinct plan.
  const ModelHandle ha8 = rt.load(a, 8, 8);
  EXPECT_NE(ha8, ha);
  const ModelHandle hb = rt.load(b, 10, 10);
  EXPECT_NE(hb, ha);
  EXPECT_NE(hb, ha8);
  EXPECT_EQ(rt.loaded_count(), 3u);
  EXPECT_EQ(rt.model(ha)->input_h(), 10);
  EXPECT_EQ(rt.model(ha8)->input_h(), 8);
  EXPECT_EQ(rt.model(hb)->model_name(), "serve_b");

  // A handle the cache does not hold (never issued here; an evicted one
  // behaves the same -- test_plan_cache evicts) is a caller bug.
  const ModelHandle unknown = hb + 100;
  EXPECT_THROW((void)rt.model(unknown), std::out_of_range);
  EXPECT_THROW((void)rt.model(-1), std::out_of_range);
  EXPECT_THROW({
    Tensor in = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);
    (void)rt.submit(unknown, std::move(in));  // must throw, not return a future
  }, std::out_of_range);
}

// Regression: load() used to compile while holding the plan-cache mutex,
// and submit() takes that mutex to resolve its handle -- so every request
// to an already-loaded model waited out any other model's compile.  Serve
// a small loaded model while another thread loads a ResNet basic block
// whose compile takes far longer than one request: requests must keep
// completing before load() returns.
TEST(ServingRuntime, RequestsFlowWhileAnotherModelCompiles) {
  Rng rng(7010);
  const GraphModel fast = fast_model(rng);
  GraphModel heavy = resnet_basic_block_graph(128, 128, 1, "serve_heavy");
  heavy.materialize_weights(7011);
  ServingRuntime rt(serving_spec());
  const ModelHandle h = rt.load(fast, 10, 10);
  const Tensor input = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);
  ASSERT_TRUE(rt.serve(h, input).ok());

  std::atomic<bool> loading{false};
  std::atomic<bool> loaded{false};
  std::thread loader([&] {
    loading.store(true);
    (void)rt.load(heavy, 8, 8);
    loaded.store(true);
  });
  while (!loading.load()) std::this_thread::yield();
  // Let the loader get into its compile before the first request.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  int served_during_load = 0;
  while (!loaded.load()) {
    const ServeResult r = rt.serve(h, input);
    ASSERT_TRUE(r.ok()) << reject_reason_name(r.rejected);
    if (!loaded.load()) ++served_during_load;
  }
  loader.join();
  EXPECT_GE(served_during_load, 1);
  EXPECT_EQ(rt.loaded_count(), 2u);
}

TEST(ServingRuntime, RacingLoadsOfOneNewModelShareAHandle) {
  Rng rng(7012);
  const GraphModel model = slow_model(rng);
  ServingRuntime rt(serving_spec());
  ModelHandle handles[2] = {-1, -1};
  std::atomic<int> ready{0};
  std::vector<std::thread> loaders;
  for (int t = 0; t < 2; ++t) {
    loaders.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      handles[t] = rt.load(model, 16, 16);
    });
  }
  for (std::thread& th : loaders) th.join();
  EXPECT_EQ(handles[0], handles[1]);
  EXPECT_EQ(rt.loaded_count(), 1u);
  EXPECT_EQ(rt.metrics().models.size(), 1u);
}

TEST(ServingRuntime, MetricsJsonHasTheContractKeys) {
  Rng rng(7009);
  const GraphModel fast = fast_model(rng);
  ServingRuntime rt(serving_spec());
  const ModelHandle h = rt.load(fast, 10, 10);
  ASSERT_TRUE(
      rt.serve(h, random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0))
          .ok());
  EXPECT_GT(rt.model(h)->plan_bytes(), 0u);
  EXPECT_EQ(rt.metrics().plan_cache_bytes, rt.model(h)->plan_bytes());

  const std::string json = rt.metrics().to_json_value().dump();
  for (const char* key :
       {"\"submitted\"", "\"completed\"", "\"shed_queue_full\"",
        "\"shed_deadline\"", "\"shed_shutdown\"", "\"shed_bad_input\"",
        "\"shed_unhealthy\"", "\"failed\"", "\"in_flight\"", "\"conserved\"",
        "\"coalesced\"", "\"batches\"", "\"isolation_fallbacks\"",
        "\"watchdog_stalls\"", "\"queue_high_water\"", "\"batch_size_hist\"",
        "\"plan_cache_bytes\"",
        "\"models\"", "\"breaker\"", "\"times_opened\"",
        "\"currently_stalled\"", "\"p50_s\"", "\"p95_s\"", "\"p99_s\"",
        "\"throughput_rps\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

// ---------------------------------------------------------------------------
// Fault tolerance: validation, isolation, breaker, watchdog, fault plans,
// and the retry client.
// ---------------------------------------------------------------------------

TEST(ServingFaults, BadInputShedsAtAdmissionWithoutExecuting) {
  Rng rng(7101);
  const GraphModel fast = fast_model(rng);
  ServingRuntime rt(serving_spec());
  const ModelHandle h = rt.load(fast, 10, 10);

  // Wrong geometry: shed immediately, typed, with the mismatch message.
  const ServeResult wrong_shape =
      rt.serve(h, random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0));
  EXPECT_EQ(wrong_shape.rejected, RejectReason::kBadInput);
  EXPECT_FALSE(wrong_shape.error.empty());
  EXPECT_EQ(wrong_shape.batch_size, 0);

  // Right shape but a short data vector: also caught at admission.
  Tensor torn = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);
  torn.data.pop_back();
  EXPECT_EQ(rt.serve(h, torn).rejected, RejectReason::kBadInput);

  const ServerMetrics m = rt.metrics();
  EXPECT_EQ(m.shed_bad_input, 2u);
  EXPECT_EQ(m.completed, 0u);
  EXPECT_EQ(m.batches, 0u);  // nothing ever executed
  EXPECT_TRUE(m.conserved());
  ASSERT_EQ(m.models.size(), 1u);
  EXPECT_EQ(m.models[0].bad_inputs, 2u);
  // Bad input is the client's fault: the breaker stays closed.
  EXPECT_EQ(m.models[0].state, BreakerState::kClosed);
}

TEST(ServingFaults, BadBatchmateIsIsolatedNotPoisoning) {
  Rng rng(7102);
  const GraphModel slow = slow_model(rng);
  const GraphModel fast = fast_model(rng);
  const Tensor plug = random_tensor(rng, 3, 16, 16, ValueDist::kHalfNormal, 1.0);
  const Tensor good_a = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);
  const Tensor good_b = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);
  const Tensor bad = random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0);

  // The regression this pins: before per-request isolation, ONE bad input
  // reaching run_batch failed every batchmate.  Admission validation is
  // turned OFF so the bad tensor actually reaches execution.
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.validate_at_admission = false;
  ServingRuntime rt(serving_spec(), cfg);
  const ModelHandle hs = rt.load(slow, 16, 16);
  const ModelHandle hf = rt.load(fast, 10, 10);
  const RunReport want_a = rt.model(hf)->run(good_a, cfg.run_options);
  const RunReport want_b = rt.model(hf)->run(good_b, cfg.run_options);

  // Plug the worker so good_a, bad, good_b queue up into one batch.
  std::future<ServeResult> plug_fut = rt.submit(hs, plug);
  std::future<ServeResult> fa = rt.submit(hf, good_a);
  std::future<ServeResult> fbad = rt.submit(hf, bad);
  std::future<ServeResult> fb = rt.submit(hf, good_b);
  ASSERT_TRUE(plug_fut.get().ok());

  const ServeResult ra = fa.get();
  const ServeResult rbad = fbad.get();
  const ServeResult rb = fb.get();

  // The bad request resolves typed (never an exception on the future)...
  EXPECT_EQ(rbad.rejected, RejectReason::kBadInput);
  EXPECT_FALSE(rbad.error.empty());
  // ...and its batchmates complete ok, byte-identical to direct runs.
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra.report.output.data, want_a.output.data);
  EXPECT_EQ(rb.report.output.data, want_b.output.data);
  EXPECT_EQ(ra.batch_size, 3);  // all three shared the dispatch

  const ServerMetrics m = rt.metrics();
  EXPECT_GE(m.isolation_fallbacks, 1u);
  EXPECT_EQ(m.shed_bad_input, 1u);
  EXPECT_EQ(m.completed, 3u);  // plug + the two good batchmates
  EXPECT_EQ(m.in_flight, 0u);
  EXPECT_TRUE(m.conserved());
}

TEST(ServingFaults, NonFiniteFp16InputIsBadInputAtExecution) {
  // The right geometry passes admission, but a value past FP16's range
  // cannot enter the datapath: run rejects it, and the runtime resolves it
  // as the client's bad input (the breaker stays closed).
  Rng rng(7104);
  const GraphModel fast = fast_model(rng);
  ServingRuntime rt(serving_spec());
  const ModelHandle h = rt.load(fast, 10, 10);
  Tensor huge = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);
  huge.data[17] = 1e6;
  const ServeResult r = rt.serve(h, huge);
  EXPECT_EQ(r.rejected, RejectReason::kBadInput);
  EXPECT_NE(r.error.find("finite FP16"), std::string::npos) << r.error;

  const ServerMetrics m = rt.metrics();
  EXPECT_EQ(m.shed_bad_input, 1u);
  EXPECT_TRUE(m.conserved());
  ASSERT_EQ(m.models.size(), 1u);
  EXPECT_EQ(m.models[0].state, BreakerState::kClosed);
}

TEST(ServingFaults, ConservationInvariantHoldsMidFlight) {
  Rng rng(7103);
  const GraphModel slow = slow_model(rng);
  const Tensor input = random_tensor(rng, 3, 16, 16, ValueDist::kHalfNormal, 1.0);

  ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 4;
  cfg.max_batch = 2;
  ServingRuntime rt(serving_spec(), cfg);
  const ModelHandle h = rt.load(slow, 16, 16);

  // A metrics reader hammers snapshots while a saturating client submits:
  // conserved() must hold in EVERY snapshot, not just at rest.
  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (!rt.metrics().conserved()) {
        violations.fetch_add(1, std::memory_order_acq_rel);
      }
    }
  });

  constexpr int kRequests = 32;
  std::vector<std::future<ServeResult>> futs;
  for (int i = 0; i < kRequests; ++i) futs.push_back(rt.submit(h, input));
  uint64_t ok = 0, shed = 0;
  for (auto& f : futs) {
    if (f.get().ok()) ++ok; else ++shed;
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(violations.load(), 0u);
  const ServerMetrics m = rt.metrics();
  EXPECT_TRUE(m.conserved());
  EXPECT_EQ(m.in_flight, 0u);  // at rest, nothing is unaccounted
  EXPECT_EQ(m.submitted, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(m.completed, ok);
  EXPECT_EQ(m.shed_queue_full, shed);
}

TEST(ServingFaults, BreakerOpensFastShedsAndRecoversViaProbe) {
  Rng rng(7104);
  const GraphModel fast = fast_model(rng);
  const Tensor input = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);

  ManualClock clock;
  auto faults = std::make_shared<FaultPlan>(
      FaultPlan::Config{.seed = 1, .throw_prob = 1.0});
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.open_cooldown_s = 5.0;
  cfg.faults = faults;
  cfg.clock = &clock;
  ServingRuntime rt(serving_spec(), cfg);
  const ModelHandle h = rt.load(fast, 10, 10);

  // Every execution attempt throws: three consecutive failures open the
  // breaker.
  for (int i = 0; i < 3; ++i) {
    const ServeResult r = rt.serve(h, input);
    EXPECT_EQ(r.rejected, RejectReason::kExecError) << "request " << i;
    EXPECT_FALSE(r.error.empty());
  }
  {
    const ServerMetrics m = rt.metrics();
    ASSERT_EQ(m.models.size(), 1u);
    EXPECT_EQ(m.models[0].state, BreakerState::kOpen);
    EXPECT_EQ(m.models[0].times_opened, 1u);
    EXPECT_EQ(m.failed, 3u);
    EXPECT_GT(m.models[0].cooldown_remaining_s, 0.0);
  }

  // Open breaker: submissions fail fast as kUnhealthy, nothing executes.
  const uint64_t batches_before = rt.metrics().batches;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rt.serve(h, input).rejected, RejectReason::kUnhealthy);
  }
  EXPECT_EQ(rt.metrics().batches, batches_before);
  EXPECT_EQ(rt.metrics().shed_unhealthy, 4u);

  // Cooldown elapses (one virtual advance), faults clear: the next request
  // is the half-open probe, succeeds, and closes the breaker.
  clock.advance(cfg.breaker.open_cooldown_s + 0.1);
  faults->set_enabled(false);
  EXPECT_TRUE(rt.serve(h, input).ok());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(rt.serve(h, input).ok());

  const ServerMetrics m = rt.metrics();
  EXPECT_EQ(m.models[0].state, BreakerState::kClosed);
  EXPECT_EQ(m.models[0].consecutive_failures, 0);
  EXPECT_EQ(m.completed, 6u);
  EXPECT_TRUE(m.conserved());
  EXPECT_EQ(m.in_flight, 0u);
}

TEST(ServingFaults, WatchdogCountsStallsAgainstTheBudget) {
  Rng rng(7105);
  const GraphModel fast = fast_model(rng);
  const Tensor input = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);

  // Every execution is delayed 50 virtual ms against a 5 ms budget; under
  // the ManualClock the delay is an instant advance, so the test sees
  // deterministic stalls in zero wall time.
  ManualClock clock;
  auto faults = std::make_shared<FaultPlan>(
      FaultPlan::Config{.seed = 2, .delay_prob = 1.0, .delay_s = 0.05});
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.stall_budget_s = 0.005;
  cfg.faults = faults;
  cfg.clock = &clock;
  ServingRuntime rt(serving_spec(), cfg);
  const ModelHandle h = rt.load(fast, 10, 10);

  for (int i = 0; i < 3; ++i) EXPECT_TRUE(rt.serve(h, input).ok());

  const ServerMetrics m = rt.metrics();
  EXPECT_EQ(m.watchdog_stalls, 3u);
  ASSERT_EQ(m.models.size(), 1u);
  EXPECT_EQ(m.models[0].stall_events, 3u);
  EXPECT_GE(m.models[0].longest_exec_s, 0.05);
  EXPECT_FALSE(m.models[0].currently_stalled);  // nothing executing now
  // A stall is slowness, not failure: the breaker never saw a thing.
  EXPECT_EQ(m.models[0].state, BreakerState::kClosed);
  EXPECT_EQ(m.failed, 0u);
}

TEST(ServingFaults, DrainRacesTheBatchWindow) {
  Rng rng(7106);
  const GraphModel fast = fast_model(rng);
  const Tensor input = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);

  // A 30 s batch window would block a naive drain for 30 s.  The leader
  // must abandon the linger when stopping_ flips and execute what it has.
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  cfg.batch_window_s = 30.0;
  auto rt = std::make_unique<ServingRuntime>(serving_spec(), cfg);
  const ModelHandle h = rt->load(fast, 10, 10);

  std::future<ServeResult> fut = rt->submit(h, input);
  // Give the leader a moment to enter the window, then drain under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  rt->shutdown(ServingRuntime::Shutdown::kDrain);
  const double shutdown_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  EXPECT_TRUE(fut.get().ok());  // drain completes the accepted request
  EXPECT_LT(shutdown_s, 10.0);  // and does NOT sit out the 30 s window
  const ServerMetrics m = rt->metrics();
  EXPECT_TRUE(m.conserved());
  EXPECT_EQ(m.in_flight, 0u);
  rt.reset();
}

TEST(ServingFaults, AbortRacesTheBatchWindow) {
  Rng rng(7107);
  const GraphModel fast = fast_model(rng);
  const Tensor input = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);

  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  cfg.batch_window_s = 30.0;
  ServingRuntime rt(serving_spec(), cfg);
  const ModelHandle h = rt.load(fast, 10, 10);

  std::vector<std::future<ServeResult>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(rt.submit(h, input));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  rt.shutdown(ServingRuntime::Shutdown::kAbort);
  const double shutdown_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(shutdown_s, 10.0);

  // Whatever the leader had gathered completes; the rest shed kShutdown.
  // Either way every future resolves typed.
  uint64_t ok = 0, shed = 0;
  for (auto& f : futs) {
    const ServeResult r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.rejected, RejectReason::kShutdown);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, 4u);
  const ServerMetrics m = rt.metrics();
  EXPECT_TRUE(m.conserved());
  EXPECT_EQ(m.in_flight, 0u);
  EXPECT_EQ(m.completed, ok);
  EXPECT_EQ(m.shed_shutdown, shed);
}

TEST(FaultPlan, ScheduleIsDeterministicPerSeed) {
  FaultPlan::Config cfg;
  cfg.seed = 42;
  cfg.throw_prob = 0.3;
  cfg.delay_prob = 0.3;
  cfg.delay_s = 0.001;
  FaultPlan a(cfg), b(cfg);

  // Same seed, same fate for every index -- whichever thread asks.
  int throws = 0, delays = 0;
  for (uint64_t i = 0; i < 512; ++i) {
    const FaultDecision da = a.decision_for(i);
    const FaultDecision db = b.decision_for(i);
    EXPECT_EQ(static_cast<int>(da.kind), static_cast<int>(db.kind)) << i;
    if (da.kind == FaultDecision::Kind::kThrow) ++throws;
    if (da.kind == FaultDecision::Kind::kDelay) {
      ++delays;
      EXPECT_EQ(da.delay_s, 0.001);
    }
  }
  // ~30% each at n = 512: loose bounds, but never zero and never all.
  EXPECT_GT(throws, 64);
  EXPECT_LT(throws, 448);
  EXPECT_GT(delays, 32);

  // A different seed produces a different schedule somewhere.
  cfg.seed = 43;
  FaultPlan c(cfg);
  bool differs = false;
  for (uint64_t i = 0; i < 512 && !differs; ++i) {
    differs = static_cast<int>(a.decision_for(i).kind) !=
              static_cast<int>(c.decision_for(i).kind);
  }
  EXPECT_TRUE(differs);

  // next_attempt() walks the same schedule in index order.
  EXPECT_EQ(static_cast<int>(a.next_attempt().kind),
            static_cast<int>(b.decision_for(0).kind));
  EXPECT_EQ(static_cast<int>(a.next_attempt().kind),
            static_cast<int>(b.decision_for(1).kind));
  EXPECT_EQ(a.attempts(), 2u);
}

TEST(FaultPlan, WindowEnableAndParseGrammar) {
  // after/until fence the faulted index range.
  FaultPlan::Config cfg;
  cfg.throw_prob = 1.0;
  cfg.first_attempt = 4;
  cfg.last_attempt = 6;
  FaultPlan plan(cfg);
  for (uint64_t i = 0; i < 10; ++i) {
    const bool faulted =
        plan.decision_for(i).kind == FaultDecision::Kind::kThrow;
    EXPECT_EQ(faulted, i >= 4 && i < 6) << i;
  }

  // Disabled: everything is kNone, but the counter still advances so
  // re-enabling stays schedule-aligned.
  plan.set_enabled(false);
  EXPECT_EQ(static_cast<int>(plan.next_attempt().kind),
            static_cast<int>(FaultDecision::Kind::kNone));
  EXPECT_EQ(plan.attempts(), 1u);
  EXPECT_EQ(plan.window_stall_s(), 0.0);

  // The MPIPU_FAULT grammar.
  const FaultPlan::Config parsed =
      FaultPlan::parse("seed=9,throw=0.25,delay=0.5:0.002,stall=0.01,after=3,until=100");
  EXPECT_EQ(parsed.seed, 9u);
  EXPECT_EQ(parsed.throw_prob, 0.25);
  EXPECT_EQ(parsed.delay_prob, 0.5);
  EXPECT_EQ(parsed.delay_s, 0.002);
  EXPECT_EQ(parsed.window_stall_s, 0.01);
  EXPECT_EQ(parsed.first_attempt, 3u);
  EXPECT_EQ(parsed.last_attempt, 100u);

  // A typo'd chaos knob must not silently run a clean experiment.
  EXPECT_THROW(FaultPlan::parse("thorw=0.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("throw"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("throw=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("delay=0.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("delay=0.5:-1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("seed=banana"), std::invalid_argument);
}

TEST(CircuitBreakerUnit, FullOpenHalfOpenClosedCycle) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.open_cooldown_s = 10.0;
  cfg.half_open_probes = 1;
  CircuitBreaker br(cfg);

  // Closed: admits; one failure is not enough.
  EXPECT_EQ(br.admit(0.0), AdmitDecision::kAdmit);
  br.on_failure(0.0);
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  // A success resets the consecutive count.
  br.on_success(0.5);
  EXPECT_EQ(br.consecutive_failures(), 0);
  // Two consecutive failures open it.
  br.on_failure(1.0);
  br.on_failure(1.5);
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_EQ(br.times_opened(), 1u);
  EXPECT_NEAR(br.cooldown_remaining(2.0), 9.5, 1e-12);

  // During the cooldown: shed.  A straggler failure does not restart it.
  EXPECT_EQ(br.admit(5.0), AdmitDecision::kShed);
  br.on_failure(6.0);
  EXPECT_EQ(br.times_opened(), 1u);

  // Cooldown over: exactly one probe slot; the second concurrent request
  // sheds until the probe resolves.
  EXPECT_EQ(br.admit(12.0), AdmitDecision::kProbe);
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(br.admit(12.0), AdmitDecision::kShed);
  // The probe fails: re-open for another cooldown.
  br.on_failure(12.5);
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_EQ(br.times_opened(), 2u);

  // Second cooldown, this time the probe never executes (shed later in the
  // admission chain): release_probe frees the slot for the next request.
  EXPECT_EQ(br.admit(23.0), AdmitDecision::kProbe);
  br.release_probe();
  EXPECT_EQ(br.admit(23.0), AdmitDecision::kProbe);
  // The probe succeeds: closed, full service.
  br.on_success(23.5);
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_EQ(br.admit(24.0), AdmitDecision::kAdmit);

  // threshold = 0 disables the breaker entirely.
  CircuitBreaker off(CircuitBreakerConfig{.failure_threshold = 0});
  for (int i = 0; i < 10; ++i) off.on_failure(static_cast<double>(i));
  EXPECT_EQ(off.admit(100.0), AdmitDecision::kAdmit);
  EXPECT_EQ(off.state(), BreakerState::kClosed);
}

TEST(ServeClientUnit, BackoffScheduleAndRetryGates) {
  Rng rng(7108);
  const GraphModel fast = fast_model(rng);
  ManualClock clock;
  ServerConfig cfg;
  cfg.clock = &clock;
  ServingRuntime rt(serving_spec(), cfg);
  rt.load(fast, 10, 10);

  RetryPolicy policy;
  policy.initial_backoff_s = 0.01;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 0.04;
  policy.jitter = 0.0;
  ServeClient client(rt, policy);

  // jitter = 0: the schedule is the pure capped exponential.
  EXPECT_DOUBLE_EQ(client.backoff_s(0), 0.01);
  EXPECT_DOUBLE_EQ(client.backoff_s(1), 0.02);
  EXPECT_DOUBLE_EQ(client.backoff_s(2), 0.04);
  EXPECT_DOUBLE_EQ(client.backoff_s(3), 0.04);  // capped

  // With jitter, every draw lands in [1 - jitter, 1] x base and two
  // differently-seeded clients de-synchronize.
  RetryPolicy jp = policy;
  jp.jitter = 0.5;
  ServeClient j1(rt, jp, /*jitter_seed=*/11), j2(rt, jp, /*jitter_seed=*/22);
  bool differed = false;
  for (int i = 0; i < 16; ++i) {
    const double b1 = j1.backoff_s(0), b2 = j2.backoff_s(0);
    EXPECT_GE(b1, 0.005 - 1e-12);
    EXPECT_LE(b1, 0.01 + 1e-12);
    if (b1 != b2) differed = true;
  }
  EXPECT_TRUE(differed);

  // The per-reason gates.
  EXPECT_TRUE(ServeClient::retryable(policy, RejectReason::kQueueFull));
  EXPECT_TRUE(ServeClient::retryable(policy, RejectReason::kUnhealthy));
  EXPECT_TRUE(ServeClient::retryable(policy, RejectReason::kExecError));
  EXPECT_FALSE(ServeClient::retryable(policy, RejectReason::kDeadline));
  EXPECT_FALSE(ServeClient::retryable(policy, RejectReason::kBadInput));
  EXPECT_FALSE(ServeClient::retryable(policy, RejectReason::kShutdown));
  EXPECT_FALSE(ServeClient::retryable(policy, RejectReason::kNone));
}

TEST(ServeClientUnit, RetriesThroughTransientFaultsThenGivesUp) {
  Rng rng(7109);
  const GraphModel fast = fast_model(rng);
  const Tensor input = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);
  const Tensor bad = random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0);

  // Each serve() burns two fault-plan attempts when it fails (the batch
  // attempt, then the per-request isolation attempt): until=4 means the
  // first two calls fail and the third succeeds.
  ManualClock clock;
  auto faults = std::make_shared<FaultPlan>(
      FaultPlan::Config{.seed = 3, .throw_prob = 1.0, .last_attempt = 4});
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.breaker.failure_threshold = 0;  // isolate retry behavior from breaking
  cfg.faults = faults;
  cfg.clock = &clock;
  ServingRuntime rt(serving_spec(), cfg);
  const ModelHandle h = rt.load(fast, 10, 10);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.jitter = 0.0;
  ServeClient client(rt, policy);

  // Transient failures: attempt 1 and 2 fail, attempt 3 succeeds -- and the
  // backoff sleeps advanced the ManualClock instead of wall time.
  const double t0 = clock.now();
  const ServeResult r = client.call(h, input);
  EXPECT_TRUE(r.ok());
  EXPECT_NEAR(clock.now() - t0, 0.01 + 0.02, 1e-9);
  ClientStats s = client.stats();
  EXPECT_EQ(s.calls, 1u);
  EXPECT_EQ(s.attempts, 3u);
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.gave_up, 0u);

  // A deterministic rejection is never retried.
  const ServeResult rb = client.call(h, bad);
  EXPECT_EQ(rb.rejected, RejectReason::kBadInput);
  s = client.stats();
  EXPECT_EQ(s.calls, 2u);
  EXPECT_EQ(s.attempts, 4u);  // exactly one more submission
  EXPECT_EQ(s.gave_up, 0u);

  // Permanent faults: the client retries max_attempts times, then returns
  // the last typed rejection.
  auto forever = std::make_shared<FaultPlan>(
      FaultPlan::Config{.seed = 4, .throw_prob = 1.0});
  ServerConfig cfg2 = cfg;
  cfg2.faults = forever;
  ServingRuntime rt2(serving_spec(), cfg2);
  const ModelHandle h2 = rt2.load(fast, 10, 10);
  ServeClient client2(rt2, policy);
  const ServeResult rf = client2.call(h2, input);
  EXPECT_EQ(rf.rejected, RejectReason::kExecError);
  const ClientStats s2 = client2.stats();
  EXPECT_EQ(s2.attempts, 3u);
  EXPECT_EQ(s2.gave_up, 1u);
  EXPECT_TRUE(rt2.metrics().conserved());
}

TEST(Traffic, PoissonArrivalsAreAscendingDeterministicAndRateTrue) {
  Rng a(42), b(42);
  const std::vector<double> t1 = poisson_arrivals(a, 200.0, 4000);
  const std::vector<double> t2 = poisson_arrivals(b, 200.0, 4000);
  EXPECT_EQ(t1, t2);  // deterministic from the seed
  ASSERT_EQ(t1.size(), 4000u);
  EXPECT_GT(t1.front(), 0.0);
  for (size_t i = 1; i < t1.size(); ++i) EXPECT_GE(t1[i], t1[i - 1]);
  // Mean rate within 10% at n = 4000.
  const double rate = 4000.0 / t1.back();
  EXPECT_NEAR(rate, 200.0, 20.0);
  EXPECT_THROW(poisson_arrivals(a, 0.0, 1), std::invalid_argument);
}

TEST(Traffic, BurstyArrivalsClusterAndMatchTheMeanRate) {
  Rng rng(43);
  BurstyConfig cfg;
  cfg.burst_rate_rps = 500.0;
  cfg.idle_rate_rps = 0.0;
  cfg.mean_burst_s = 0.05;
  cfg.mean_idle_s = 0.2;
  const std::vector<double> t = bursty_arrivals(rng, cfg, 2000);
  ASSERT_EQ(t.size(), 2000u);
  for (size_t i = 1; i < t.size(); ++i) EXPECT_GE(t[i], t[i - 1]);
  // Long-run rate approaches the analytic mean (loose: dwell times are
  // exponential, so 2000 arrivals span ~40 cycles).
  const double mean = bursty_mean_rate(cfg);
  EXPECT_NEAR(mean, 100.0, 1e-9);  // 500 * 0.05 / 0.25
  const double rate = 2000.0 / t.back();
  EXPECT_GT(rate, mean * 0.5);
  EXPECT_LT(rate, mean * 2.0);
  // On/off traffic must contain gaps far above the in-burst mean gap.
  double max_gap = 0.0;
  for (size_t i = 1; i < t.size(); ++i) max_gap = std::max(max_gap, t[i] - t[i - 1]);
  EXPECT_GT(max_gap, 0.05);
}

TEST(Traffic, ZipfIndicesSkewTowardTheHead) {
  Rng rng(44);
  const int kCatalog = 16;
  const std::vector<int> idx = zipf_indices(rng, 1.2, kCatalog, 8000);
  std::vector<int> hist(kCatalog, 0);
  for (int v : idx) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, kCatalog);
    ++hist[static_cast<size_t>(v)];
  }
  // Head dominance: index 0 beats index 1, and the top-4 carry most mass.
  EXPECT_GT(hist[0], hist[1]);
  int top4 = hist[0] + hist[1] + hist[2] + hist[3];
  EXPECT_GT(top4, 8000 / 2);
  // s = 0 degenerates to (roughly) uniform: no index gets > 20%.
  const std::vector<int> uni = zipf_indices(rng, 0.0, kCatalog, 8000);
  std::vector<int> uhist(kCatalog, 0);
  for (int v : uni) ++uhist[static_cast<size_t>(v)];
  for (int c : uhist) EXPECT_LT(c, 8000 / 5);
}

TEST(Percentile, NearestRankMatchesTheDefinition) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  EXPECT_EQ(percentile_nearest_rank_sorted(v, 50), 50.0);
  EXPECT_EQ(percentile_nearest_rank_sorted(v, 95), 95.0);
  EXPECT_EQ(percentile_nearest_rank_sorted(v, 99), 99.0);
  EXPECT_EQ(percentile_nearest_rank_sorted(v, 100), 100.0);

  // The double-arithmetic trap: ceil(0.95 * 20) evaluates to 20 in floating
  // point; the integer nearest-rank is 19.
  std::vector<double> w;
  for (int i = 1; i <= 20; ++i) w.push_back(static_cast<double>(i));
  EXPECT_EQ(percentile_nearest_rank_sorted(w, 95), 19.0);
  EXPECT_EQ(percentile_nearest_rank_sorted(w, 50), 10.0);

  EXPECT_EQ(percentile_nearest_rank_sorted({}, 95), 0.0);
  const LatencySummary s = summarize_latencies({3.0, 1.0, 2.0});
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.p50_s, 2.0);
  EXPECT_EQ(s.p99_s, 3.0);
  EXPECT_EQ(s.max_s, 3.0);
  EXPECT_NEAR(s.mean_s, 2.0, 1e-12);
}

}  // namespace
}  // namespace mpipu::serve
