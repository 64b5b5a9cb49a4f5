// The chaos wall: the serving runtime's fault-tolerance contract under
// randomized fault schedules, hostile traffic, and shutdowns racing it all.
//
// The contract (serving_runtime.h):
//   1. EXACTLY-ONCE, TYPED: every submitted future resolves exactly once
//      with a typed ServeResult -- .get() never throws, whatever faults
//      fire.  (A double-resolve would abort inside std::promise, so a
//      passing run is a proof, not a spot check.)
//   2. CONSERVATION: submitted == completed + every shed counter + failed
//      + in_flight, in EVERY metrics() snapshot -- sampled concurrently
//      while the chaos runs, and exact (in_flight == 0) at rest.
//   3. RECOVERY: once the fault plan is disabled, the breaker closes via
//      its half-open probe and the runtime returns to full service.
//
// Each scenario derives everything -- server config, fault schedule,
// traffic mix (bad geometry, zero deadlines, duplicate inputs), shutdown
// timing -- from one seed, and the wall runs every seed under both kDrain
// and kAbort.  Assertions are structural (counts that add up, typed
// reasons), never timing-based: the wall must pass on any scheduler,
// including under ThreadSanitizer's ~10x slowdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "serve/fault.h"
#include "serve/serve_client.h"
#include "serve/serving_runtime.h"

namespace mpipu::serve {
namespace {

DatapathConfig chaos_datapath() {
  DatapathConfig cfg = DatapathConfig::for_scheme(DecompositionScheme::kTemporal);
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 16;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  return cfg;
}

RunSpec chaos_spec() {
  RunSpec spec;
  spec.datapath = chaos_datapath();
  spec.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
  spec.threads = 1;
  return spec;
}

GraphModel tiny_model(Rng& rng, const std::string& name) {
  std::vector<ModelLayer> layers(2);
  layers[0].name = "conv1";
  layers[0].filters = random_filters(rng, 4, 3, 3, 3, ValueDist::kNormal, 0.3);
  layers[0].spec.pad = 1;
  layers[0].relu = true;
  layers[1].name = "head";
  layers[1].filters = random_filters(rng, 2, 4, 1, 1, ValueDist::kNormal, 0.2);
  return GraphModel::from_layers(name, std::move(layers));
}

/// One seeded chaos scenario: randomized config + fault schedule + traffic,
/// shut down mid-stream with `mode`, then audit every outcome.
void run_chaos_scenario(uint64_t seed, ServingRuntime::Shutdown mode) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
               (mode == ServingRuntime::Shutdown::kDrain ? "drain" : "abort"));
  Rng rng(9000 + seed);

  // Scenario shape, all seed-derived.
  ServerConfig cfg;
  cfg.workers = 1 + static_cast<int>(seed % 3);
  cfg.queue_capacity = (seed % 2 == 0) ? 8 : 32;
  cfg.max_batch = 1 << (seed % 3);  // 1, 2, 4
  cfg.batch_window_s = (seed % 2 == 0) ? 0.0 : 0.001;
  cfg.coalesce_identical = (seed % 3 != 2);
  cfg.validate_at_admission = (seed % 2 == 0);
  cfg.breaker.failure_threshold = (seed % 2 == 0) ? 3 : 0;
  cfg.breaker.open_cooldown_s = 0.005;
  cfg.stall_budget_s = (seed % 2 == 0) ? 0.0005 : 0.0;
  FaultPlan::Config fault_cfg;
  fault_cfg.seed = seed;
  fault_cfg.throw_prob = 0.15;
  fault_cfg.delay_prob = 0.15;
  fault_cfg.delay_s = 0.0005;
  fault_cfg.window_stall_s = 0.0002;
  cfg.faults = std::make_shared<FaultPlan>(fault_cfg);

  ServingRuntime rt(chaos_spec(), cfg);
  const ModelHandle ha = rt.load(tiny_model(rng, "chaos_a"), 10, 10);
  const ModelHandle hb = rt.load(tiny_model(rng, "chaos_b"), 10, 10);

  // Traffic material: a small catalog (duplicates exercise coalescing) and
  // two malformed tensors (wrong shape / torn data).
  std::vector<Tensor> goods;
  for (int i = 0; i < 3; ++i) {
    goods.push_back(random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0));
  }
  std::vector<Tensor> bads;
  bads.push_back(random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0));
  bads.push_back(goods[0]);
  bads.back().data.pop_back();

  // Concurrent conservation audit: every snapshot taken WHILE the chaos
  // runs must balance.
  std::atomic<bool> stop_sampling{false};
  std::atomic<uint64_t> snapshots{0}, violations{0};
  std::thread sampler([&] {
    while (!stop_sampling.load(std::memory_order_acquire)) {
      if (!rt.metrics().conserved()) {
        violations.fetch_add(1, std::memory_order_acq_rel);
      }
      snapshots.fetch_add(1, std::memory_order_acq_rel);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Three submitter threads, each with its own seeded request mix.  The
  // futures are harvested afterwards; submissions racing the shutdown are
  // part of the scenario (they must shed kShutdown, typed).
  constexpr int kThreads = 3;
  constexpr int kPerThread = 24;
  std::vector<std::vector<std::future<ServeResult>>> futs(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Rng trng(seed * 100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const ModelHandle h = trng.uniform_int(0, 1) == 0 ? ha : hb;
        const bool bad = trng.uniform_int(0, 7) == 0;
        const Tensor& input =
            bad ? bads[static_cast<size_t>(trng.uniform_int(0, 1))]
                : goods[static_cast<size_t>(trng.uniform_int(0, 2))];
        SubmitOptions opts;
        const int roll = trng.uniform_int(0, 9);
        if (roll == 0) {
          opts.timeout_s = 0.0;  // expired on arrival
        } else if (roll <= 2) {
          opts.timeout_s = 0.002;
        }
        futs[static_cast<size_t>(t)].push_back(rt.submit(h, input, opts));
        if (trng.uniform_int(0, 3) == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              static_cast<int64_t>(trng.uniform_int(0, 300))));
        }
      }
    });
  }

  // Let traffic build, then shut down UNDER the submitters.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  rt.shutdown(mode);
  for (std::thread& s : submitters) s.join();

  // Audit: every future resolves (get() returning at all proves it; a
  // typed value proves no exception ever reached a promise).
  std::map<RejectReason, uint64_t> tally;
  for (auto& per_thread : futs) {
    for (auto& f : per_thread) {
      const ServeResult r = f.get();
      ++tally[r.rejected];
      if (r.ok()) {
        EXPECT_GT(r.report.output.data.size(), 0u);
        EXPECT_GE(r.batch_size, 1);
      } else {
        EXPECT_EQ(r.batch_size, 0);
        if (r.rejected == RejectReason::kBadInput ||
            r.rejected == RejectReason::kExecError) {
          EXPECT_FALSE(r.error.empty());
        }
      }
      if (mode == ServingRuntime::Shutdown::kDrain) {
        // A drain never abandons an accepted request: kShutdown results can
        // only come from submissions made after stopping_ flipped, which
        // resolve at submit() -- so no drain-specific check here; the
        // conservation audit below covers the accounting.
      }
    }
  }
  stop_sampling.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_EQ(violations.load(), 0u)
      << "conservation violated in " << violations.load() << " of "
      << snapshots.load() << " concurrent snapshots";
  EXPECT_GT(snapshots.load(), 0u);

  // The final ledger: at rest, the runtime's counters must reproduce the
  // per-reason tally of what the futures actually delivered -- exactly.
  const ServerMetrics m = rt.metrics();
  EXPECT_TRUE(m.conserved());
  EXPECT_EQ(m.in_flight, 0u);
  EXPECT_EQ(m.submitted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(m.completed, tally[RejectReason::kNone]);
  EXPECT_EQ(m.shed_queue_full, tally[RejectReason::kQueueFull]);
  EXPECT_EQ(m.shed_deadline, tally[RejectReason::kDeadline]);
  EXPECT_EQ(m.shed_shutdown, tally[RejectReason::kShutdown]);
  EXPECT_EQ(m.shed_bad_input, tally[RejectReason::kBadInput]);
  EXPECT_EQ(m.shed_unhealthy, tally[RejectReason::kUnhealthy]);
  EXPECT_EQ(m.failed, tally[RejectReason::kExecError]);
}

TEST(ServeChaos, RandomizedFaultSchedulesUnderDrain) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    run_chaos_scenario(seed, ServingRuntime::Shutdown::kDrain);
  }
}

TEST(ServeChaos, RandomizedFaultSchedulesUnderAbort) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    run_chaos_scenario(seed, ServingRuntime::Shutdown::kAbort);
  }
}

TEST(ServeChaos, RuntimeReturnsToFullServiceAfterFaultsClear) {
  Rng rng(9100);
  const GraphModel model = tiny_model(rng, "chaos_recovery");
  const Tensor input = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);

  ManualClock clock;
  auto faults = std::make_shared<FaultPlan>(
      FaultPlan::Config{.seed = 7, .throw_prob = 1.0});
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.open_cooldown_s = 1.0;
  cfg.faults = faults;
  cfg.clock = &clock;
  ServingRuntime rt(chaos_spec(), cfg);
  const ModelHandle h = rt.load(model, 10, 10);

  // Fault phase: executions fail until the breaker opens, then submissions
  // shed kUnhealthy without touching a worker.
  EXPECT_EQ(rt.serve(h, input).rejected, RejectReason::kExecError);
  EXPECT_EQ(rt.serve(h, input).rejected, RejectReason::kExecError);
  EXPECT_EQ(rt.serve(h, input).rejected, RejectReason::kUnhealthy);

  // Faults clear, the cooldown elapses: the half-open probe succeeds and
  // service is FULLY restored -- a long run of consecutive successes with
  // the breaker closed throughout.
  faults->set_enabled(false);
  clock.advance(cfg.breaker.open_cooldown_s + 0.1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(rt.serve(h, input).ok()) << "post-recovery request " << i;
  }
  const ServerMetrics m = rt.metrics();
  EXPECT_EQ(m.completed, 20u);
  ASSERT_EQ(m.models.size(), 1u);
  EXPECT_EQ(m.models[0].state, BreakerState::kClosed);
  EXPECT_EQ(m.models[0].times_opened, 1u);  // never re-opened after recovery
  EXPECT_TRUE(m.conserved());
  EXPECT_EQ(m.in_flight, 0u);
}

TEST(ServeChaos, RetryClientRidesOutTransientChaos) {
  Rng rng(9200);
  const GraphModel model = tiny_model(rng, "chaos_client");
  std::vector<Tensor> catalog;
  for (int i = 0; i < 2; ++i) {
    catalog.push_back(random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0));
  }

  // Moderate chaos, breaker off: every failure surfaces to the client,
  // whose retry budget has to absorb it.
  auto faults = std::make_shared<FaultPlan>(FaultPlan::Config{
      .seed = 13, .throw_prob = 0.3, .delay_prob = 0.2, .delay_s = 0.0003});
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  cfg.breaker.failure_threshold = 0;
  cfg.faults = faults;
  ServingRuntime rt(chaos_spec(), cfg);
  const ModelHandle h = rt.load(model, 10, 10);

  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_s = 0.0002;
  policy.max_backoff_s = 0.002;

  // One client per thread (the documented threading model).
  constexpr int kThreads = 3;
  constexpr int kCalls = 12;
  std::atomic<uint64_t> ok_calls{0}, typed_rejects{0};
  std::vector<std::thread> threads;
  std::vector<ClientStats> stats(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ServeClient client(rt, policy, /*jitter_seed=*/100 + static_cast<uint64_t>(t));
      Rng trng(300 + static_cast<uint64_t>(t));
      for (int i = 0; i < kCalls; ++i) {
        const ServeResult r = client.call(
            h, catalog[static_cast<size_t>(trng.uniform_int(0, 1))]);
        if (r.ok()) {
          ok_calls.fetch_add(1, std::memory_order_acq_rel);
        } else {
          // Gave up after max_attempts: still a typed rejection.
          EXPECT_EQ(r.rejected, RejectReason::kExecError);
          typed_rejects.fetch_add(1, std::memory_order_acq_rel);
        }
      }
      stats[static_cast<size_t>(t)] = client.stats();
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ok_calls.load() + typed_rejects.load(),
            static_cast<uint64_t>(kThreads * kCalls));
  // P(6 consecutive throws) ~ 0.03% per call at throw = 0.3 -- retries make
  // the overwhelming majority of calls land.
  EXPECT_GT(ok_calls.load(), static_cast<uint64_t>(kThreads * kCalls / 2));
  uint64_t attempts = 0, calls = 0;
  for (const ClientStats& s : stats) {
    EXPECT_EQ(s.calls, static_cast<uint64_t>(kCalls));
    EXPECT_GE(s.attempts, s.calls);
    EXPECT_EQ(s.retries + s.calls + s.hedges, s.attempts);
    attempts += s.attempts;
    calls += s.calls;
  }
  EXPECT_GE(attempts, calls);

  const ServerMetrics m = rt.metrics();
  EXPECT_TRUE(m.conserved());
  EXPECT_EQ(m.in_flight, 0u);
  EXPECT_EQ(m.submitted, attempts);
  EXPECT_EQ(m.completed, ok_calls.load());
}

}  // namespace
}  // namespace mpipu::serve
