// Fault-tolerant serving: the full robustness stack in one runnable tour.
//
//   FaultPlan        -- a seeded chaos schedule makes executions fail on
//                       demand (same faults every run of a seed);
//   ServingRuntime   -- classifies every failure into a typed ServeResult:
//                       futures NEVER throw, batchmates of a faulting
//                       request are isolated and complete ok;
//   CircuitBreaker   -- consecutive failures open the breaker, submissions
//                       shed kUnhealthy in microseconds, a half-open probe
//                       restores service after the cooldown;
//   ServeClient      -- bounded retries with exponential backoff + jitter
//                       ride out the transient window.
//
// A ManualClock drives the whole demo, so the breaker cooldown "elapses"
// instantly and the run takes milliseconds of wall time.  The same chaos
// can be pointed at any serving binary without a rebuild:
//
//   MPIPU_FAULT="seed=7,throw=0.3,delay=0.1:0.002" ./bench_server --smoke
#include <cstdio>

#include "common/clock.h"
#include "common/rng.h"
#include "serve/fault.h"
#include "serve/serve_client.h"
#include "serve/serving_runtime.h"

using namespace mpipu;
using namespace mpipu::serve;

int main() {
  Rng rng(77);
  std::vector<ModelLayer> layers(2);
  layers[0] = {"stem", random_filters(rng, 8, 3, 3, 3, ValueDist::kNormal, 0.3),
               ConvSpec{.stride = 1, .pad = 1}, /*relu=*/true, PoolOp::kNone};
  layers[1] = {"head", random_filters(rng, 4, 8, 1, 1, ValueDist::kNormal, 0.2),
               ConvSpec{}, /*relu=*/false, PoolOp::kGlobalAvg};
  const GraphModel model =
      GraphModel::from_layers("ft-demo", std::move(layers));
  const Tensor input = random_tensor(rng, 3, 12, 12, ValueDist::kHalfNormal, 1.0);

  // A chaos schedule that fails EVERY execution attempt until switched off.
  auto faults = std::make_shared<FaultPlan>(
      FaultPlan::Config{.seed = 7, .throw_prob = 1.0});

  ManualClock clock;
  RunSpec spec;
  spec.datapath.adder_tree_width = 16;
  spec.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
  spec.threads = 1;
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.open_cooldown_s = 30.0;  // virtual seconds: free under ManualClock
  cfg.faults = faults;
  cfg.clock = &clock;
  ServingRuntime rt(spec, cfg);
  const ModelHandle h = rt.load(model, 12, 12);

  // ---- phase 1: chaos.  Typed failures, then the breaker takes over. -----
  std::printf("-- fault phase (every execution throws) --\n");
  for (int i = 0; i < 5; ++i) {
    const ServeResult r = rt.serve(h, input);
    std::printf("request %d -> %s%s%s\n", i, reject_reason_name(r.rejected),
                r.error.empty() ? "" : ": ", r.error.c_str());
  }
  // Requests 0-2 fail kExecError (and open the breaker); 3-4 shed
  // kUnhealthy without ever reaching a worker.

  // A malformed request is the CLIENT's fault: shed kBadInput at admission,
  // and deliberately invisible to the breaker.
  const ServeResult bad =
      rt.serve(h, random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0));
  std::printf("bad geometry -> %s\n", reject_reason_name(bad.rejected));

  // ---- phase 2: recovery.  Faults clear, the cooldown elapses. -----------
  faults->set_enabled(false);
  clock.advance(cfg.breaker.open_cooldown_s + 1.0);

  // A retrying client would have ridden the whole thing out on its own;
  // here it lands on the half-open probe and closes the breaker.
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_s = 0.05;  // virtual: the backoff costs no wall time
  ServeClient client(rt, policy);
  const ServeResult ok = client.call(h, input);
  std::printf("-- recovery --\nretrying client -> %s (top output %.4f)\n",
              reject_reason_name(ok.rejected),
              ok.ok() ? ok.report.output.data[0] : 0.0);
  const ClientStats cs = client.stats();
  std::printf("client stats: %llu call(s), %llu attempt(s), %llu retried\n",
              static_cast<unsigned long long>(cs.calls),
              static_cast<unsigned long long>(cs.attempts),
              static_cast<unsigned long long>(cs.retries));

  // ---- the ledger: every submission accounted for, exactly once. ---------
  const ServerMetrics m = rt.metrics();
  std::printf(
      "metrics: submitted=%llu completed=%llu failed=%llu unhealthy=%llu "
      "bad_input=%llu in_flight=%llu conserved=%s\n",
      static_cast<unsigned long long>(m.submitted),
      static_cast<unsigned long long>(m.completed),
      static_cast<unsigned long long>(m.failed),
      static_cast<unsigned long long>(m.shed_unhealthy),
      static_cast<unsigned long long>(m.shed_bad_input),
      static_cast<unsigned long long>(m.in_flight),
      m.conserved() ? "true" : "false");
  for (const ModelHealthSnapshot& s : m.models) {
    std::printf("model '%s': breaker %s, %llu exec failure(s), opened %llu time(s)\n",
                s.model.c_str(), breaker_state_name(s.state),
                static_cast<unsigned long long>(s.exec_failures),
                static_cast<unsigned long long>(s.times_opened));
  }
  return m.conserved() ? 0 : 1;
}
