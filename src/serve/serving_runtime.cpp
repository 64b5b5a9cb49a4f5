#include "serve/serving_runtime.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace mpipu::serve {

namespace {

/// Latency samples kept for the percentile digest.  A runtime serving past
/// this simply stops recording samples (counters keep counting); at bench
/// and test scale the cap is never approached.
constexpr size_t kMaxLatencySamples = 1u << 20;

}  // namespace

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kDeadline: return "deadline";
    case RejectReason::kShutdown: return "shutdown";
    case RejectReason::kBadInput: return "bad_input";
    case RejectReason::kUnhealthy: return "unhealthy";
    case RejectReason::kExecError: return "exec_error";
  }
  return "?";
}

Json ServerMetrics::to_json_value() const {
  Json j = Json::object();
  j.set("submitted", static_cast<double>(submitted));
  j.set("completed", static_cast<double>(completed));
  j.set("shed_queue_full", static_cast<double>(shed_queue_full));
  j.set("shed_deadline", static_cast<double>(shed_deadline));
  j.set("shed_shutdown", static_cast<double>(shed_shutdown));
  j.set("shed_bad_input", static_cast<double>(shed_bad_input));
  j.set("shed_unhealthy", static_cast<double>(shed_unhealthy));
  j.set("failed", static_cast<double>(failed));
  j.set("in_flight", static_cast<double>(in_flight));
  j.set("conserved", conserved());
  j.set("coalesced", static_cast<double>(coalesced));
  j.set("batches", static_cast<double>(batches));
  j.set("isolation_fallbacks", static_cast<double>(isolation_fallbacks));
  j.set("watchdog_stalls", static_cast<double>(watchdog_stalls));
  j.set("queue_high_water", static_cast<double>(queue_high_water));
  j.set("plan_cache_bytes", static_cast<double>(plan_cache_bytes));
  j.set("mean_batch_size", mean_batch_size);
  Json hist = Json::array();
  for (uint64_t v : batch_size_hist) hist.push(static_cast<double>(v));
  j.set("batch_size_hist", std::move(hist));
  Json model_health = Json::array();
  for (const ModelHealthSnapshot& s : models) {
    model_health.push(s.to_json_value());
  }
  j.set("models", std::move(model_health));
  j.set("elapsed_s", elapsed_s);
  j.set("throughput_rps", throughput_rps);
  Json lat = Json::object();
  lat.set("count", static_cast<double>(latency.count));
  lat.set("mean_s", latency.mean_s);
  lat.set("p50_s", latency.p50_s);
  lat.set("p95_s", latency.p95_s);
  lat.set("p99_s", latency.p99_s);
  lat.set("max_s", latency.max_s);
  j.set("latency", std::move(lat));
  return j;
}

ServingRuntime::ServingRuntime(RunSpec spec, ServerConfig cfg)
    : spec_(std::move(spec)), cfg_(std::move(cfg)),
      plans_(spec_, kPlanCacheBytes) {
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.queue_capacity < 1) cfg_.queue_capacity = 1;
  if (cfg_.max_batch < 1) cfg_.max_batch = 1;
  clock_ = cfg_.clock != nullptr ? cfg_.clock : &real_clock();
  // Chaos hooks are compiled in always: an explicitly configured plan wins,
  // else MPIPU_FAULT, else a null plan (every hook a no-op).
  faults_ = cfg_.faults != nullptr ? cfg_.faults : FaultPlan::from_env();
  counters_.batch_size_hist.assign(static_cast<size_t>(cfg_.max_batch) + 1, 0);
  start_t_ = clock_->now();
  workers_.reserve(static_cast<size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ServingRuntime::~ServingRuntime() { shutdown(Shutdown::kDrain); }

ModelHealth& ServingRuntime::health_entry(ModelHandle h) {
  auto it = health_.find(h);
  if (it == health_.end()) {
    it = health_.emplace(h, ModelHealth{CircuitBreaker(cfg_.breaker)}).first;
  }
  return it->second;
}

ModelHandle ServingRuntime::load(const GraphModel& model, int input_h,
                                 int input_w) {
  const PlanCache::Entry e = plans_.get_or_compile(model, input_h, input_w);
  const auto handle = static_cast<ModelHandle>(e.id);
  // Health is born with the model (so metrics list it before any traffic)
  // and deliberately survives eviction: breaker history is diagnosis data.
  MutexLock lock(health_mu_);
  health_entry(handle);
  model_names_[handle] = e.plan->model_name();
  return handle;
}

std::shared_ptr<const CompiledModel> ServingRuntime::model(
    ModelHandle h) const {
  // A negative handle maps to an id no cache ever issues: out_of_range.
  return plans_.find(static_cast<uint64_t>(h));
}

size_t ServingRuntime::loaded_count() const { return plans_.size(); }

std::future<ServeResult> ServingRuntime::submit(ModelHandle h, Tensor input,
                                                const SubmitOptions& opts) {
  Pending p;
  p.model = model(h);  // throws out_of_range for a bad handle (caller bug)
  p.handle = h;
  p.input = std::move(input);
  p.enqueue_t = clock_->now();
  if (opts.timeout_s < std::numeric_limits<double>::infinity()) {
    p.deadline = p.enqueue_t + opts.timeout_s;
  }
  std::future<ServeResult> fut = p.promise.get_future();

  // Admission chain: bad input -> breaker -> queue.  Each stage sheds a
  // typed value; nothing on this path throws.
  RejectReason reject = RejectReason::kNone;
  std::string error;
  if (cfg_.validate_at_admission) {
    error = p.model->input_geometry_mismatch(p.input);
    if (!error.empty()) reject = RejectReason::kBadInput;
  }
  if (reject == RejectReason::kNone && cfg_.breaker.failure_threshold > 0) {
    MutexLock lock(health_mu_);
    ModelHealth& hh = health_entry(h);
    switch (hh.breaker.admit(p.enqueue_t)) {
      case AdmitDecision::kShed:
        reject = RejectReason::kUnhealthy;
        ++hh.shed_unhealthy;
        break;
      case AdmitDecision::kProbe:
        p.probe = true;
        break;
      case AdmitDecision::kAdmit:
        break;
    }
  }
  // Read before p can be moved into the queue: the rejection paths below
  // must not touch p's members once std::move(p) is a possibility on ANY
  // branch (bugprone-use-after-move).
  const bool probe = p.probe;
  const double enqueue_t = p.enqueue_t;
  if (reject == RejectReason::kNone) {
    MutexLock lock(mu_);
    if (stopping_) {
      reject = RejectReason::kShutdown;
    } else if (queue_.size() >= cfg_.queue_capacity) {
      reject = RejectReason::kQueueFull;
    } else if (cfg_.per_model_queue_cap > 0) {
      size_t queued = 0;
      for (const Pending& q : queue_) {
        if (q.handle == h) ++queued;
      }
      if (queued >= cfg_.per_model_queue_cap) {
        reject = RejectReason::kQueueFull;
      }
    }
    if (reject == RejectReason::kNone) {
      queue_.push_back(std::move(p));
      queue_high_water_ = std::max(queue_high_water_, queue_.size());
    }
  }
  if (reject != RejectReason::kNone &&
      (probe || reject == RejectReason::kBadInput)) {
    MutexLock lock(health_mu_);
    ModelHealth& hh = health_entry(h);
    // A probe that never reached the queue returns its slot so the next
    // submission can probe instead.
    if (probe) hh.breaker.release_probe();
    if (reject == RejectReason::kBadInput) ++hh.bad_inputs;
  }
  {
    // submitted and its outcome move under ONE lock acquisition, so the
    // conservation invariant holds at every instant, not just at rest.
    MutexLock lock(metrics_mu_);
    ++counters_.submitted;
    switch (reject) {
      case RejectReason::kNone: ++counters_.in_flight; break;
      case RejectReason::kQueueFull: ++counters_.shed_queue_full; break;
      case RejectReason::kShutdown: ++counters_.shed_shutdown; break;
      case RejectReason::kBadInput: ++counters_.shed_bad_input; break;
      case RejectReason::kUnhealthy: ++counters_.shed_unhealthy; break;
      case RejectReason::kDeadline:
      case RejectReason::kExecError:
        break;  // never decided at admission
    }
  }
  if (reject == RejectReason::kNone) {
    queue_cv_.notify_one();
  } else {
    ServeResult r;
    r.rejected = reject;
    r.error = std::move(error);
    r.total_s = clock_->now() - enqueue_t;
    p.promise.set_value(std::move(r));
  }
  return fut;
}

ServeResult ServingRuntime::serve(ModelHandle h, Tensor input,
                                  const SubmitOptions& opts) {
  return submit(h, std::move(input), opts).get();
}

void ServingRuntime::resolve_in_flight_rejected(Pending&& p,
                                                RejectReason reason) {
  if (p.probe) {
    MutexLock lock(health_mu_);
    health_entry(p.handle).breaker.release_probe();
  }
  {
    MutexLock lock(metrics_mu_);
    --counters_.in_flight;
    switch (reason) {
      case RejectReason::kDeadline: ++counters_.shed_deadline; break;
      case RejectReason::kShutdown: ++counters_.shed_shutdown; break;
      default: break;  // exec outcomes are accounted in execute_batch
    }
  }
  ServeResult r;
  r.rejected = reason;
  r.total_s = clock_->now() - p.enqueue_t;
  p.promise.set_value(std::move(r));
}

void ServingRuntime::maybe_inject_fault() {
  if (faults_ == nullptr) return;
  const FaultDecision d = faults_->next_attempt();
  switch (d.kind) {
    case FaultDecision::Kind::kNone:
      return;
    case FaultDecision::Kind::kDelay:
      clock_->sleep_for(d.delay_s);
      return;
    case FaultDecision::Kind::kThrow:
      // lint:allow-throw -- injected chaos: takes the same catch path as a real fault
      throw InjectedFault("injected execution fault (FaultPlan seed " +
                          std::to_string(faults_->config().seed) + ")");
  }
}

void ServingRuntime::record_outcome(ModelHealth& health,
                                    const SlotOutcome& outcome, bool probe,
                                    double now) {
  switch (outcome.reason) {
    case RejectReason::kNone:
      health.breaker.on_success(now);
      break;
    case RejectReason::kExecError:
      ++health.exec_failures;
      health.breaker.on_failure(now);
      break;
    case RejectReason::kBadInput:
      // The client's fault, not the model's: the breaker learns nothing,
      // but a probe slot spent on it frees up for a real probe.
      ++health.bad_inputs;
      if (probe) health.breaker.release_probe();
      break;
    default:
      break;
  }
}

void ServingRuntime::gather_same_model(std::vector<Pending>& batch) {
  const ModelHandle h = batch.front().handle;
  for (auto it = queue_.begin();
       it != queue_.end() &&
       static_cast<int>(batch.size()) < cfg_.max_batch;) {
    if (it->handle == h) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServingRuntime::worker_loop() {
  // Long-lived per-worker execution pool: requests never pay per-call
  // thread spawn.  spec_.threads == 1 (the serving default) keeps it
  // threadless.
  ThreadPool pool(spec_.threads);
  std::vector<Pending> batch;
  for (;;) {
    batch.clear();
    {
      UniqueLock lock(mu_);
      queue_cv_.wait(lock, [&]() MPIPU_REQUIRES(mu_) {
        return stopping_ || !queue_.empty();
      });
      if (queue_.empty()) {
        if (stopping_) return;  // drained (or aborted): done
        continue;
      }
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      gather_same_model(batch);
      if (static_cast<int>(batch.size()) < cfg_.max_batch &&
          cfg_.batch_window_s > 0.0 && !stopping_) {
        // Linger for more same-model arrivals.  Draining skips the window
        // (stopping_ breaks the loop), and every wake re-gathers whatever
        // arrived.
        const auto window_end =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(cfg_.batch_window_s));
        while (static_cast<int>(batch.size()) < cfg_.max_batch &&
               !stopping_) {
          if (queue_cv_.wait_until(lock, window_end) ==
              std::cv_status::timeout) {
            gather_same_model(batch);
            break;
          }
          gather_same_model(batch);
        }
      }
    }
    execute_batch(batch, pool);
  }
}

void ServingRuntime::execute_batch(std::vector<Pending>& batch,
                                   ThreadPool& pool) {
  // Injected window stall: the leader hangs before dispatch, exactly like
  // a genuinely stuck batch -- queued deadlines keep expiring behind it.
  if (faults_ != nullptr) {
    const double stall = faults_->window_stall_s();
    if (stall > 0.0) clock_->sleep_for(stall);
  }
  const double dispatch_t = clock_->now();

  // Dispatch-time deadline shedding: expired requests never execute.
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (Pending& p : batch) {
    if (dispatch_t > p.deadline) {
      resolve_in_flight_rejected(std::move(p), RejectReason::kDeadline);
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  // Coalesce byte-identical inputs: every request maps to a slot in the
  // unique-input list; duplicates reuse the first twin's execution.  Exact
  // double equality on the raw data -- the same predicate the reference
  // cache uses -- and execution is deterministic, so fan-out is exact.
  std::vector<Tensor> inputs;
  std::vector<size_t> slot_of(live.size());
  if (cfg_.coalesce_identical) {
    for (size_t i = 0; i < live.size(); ++i) {
      size_t s = 0;
      while (s < inputs.size() && inputs[s].data != live[i].input.data) ++s;
      if (s == inputs.size()) inputs.push_back(live[i].input);
      slot_of[i] = s;
    }
  } else {
    inputs.reserve(live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      inputs.push_back(live[i].input);
      slot_of[i] = i;
    }
  }

  const ModelHandle handle = live.front().handle;
  const CompiledModel& model = *live.front().model;

  // Watchdog registration: metrics() can see this dispatch as currently
  // stalled while it runs.
  uint64_t exec_id;
  {
    MutexLock lock(health_mu_);
    exec_id = next_exec_id_++;
    active_execs_.push_back({exec_id, handle, dispatch_t});
  }

  // One run_batch call for the whole window, on this worker's long-lived
  // pool.  If ANYTHING throws out of it -- one bad input (admission
  // validation off), an injected fault, a real execution failure -- the
  // batch falls back to per-request execution so the failure is isolated:
  // batchmates complete ok(), only the faulting request resolves with a
  // typed error.  The worker itself never dies.
  std::vector<SlotOutcome> outcomes(inputs.size());
  BatchRunReport reports;
  bool fell_back = false;
  try {
    maybe_inject_fault();
    reports = model.run_batch(inputs, cfg_.run_options, pool);
  } catch (...) {
    fell_back = true;
    reports.runs.clear();
    reports.runs.resize(inputs.size());
    for (size_t s = 0; s < inputs.size(); ++s) {
      try {
        maybe_inject_fault();
        reports.runs[s] = model.run(inputs[s], cfg_.run_options, pool);
      } catch (const std::invalid_argument& e) {
        outcomes[s] = {RejectReason::kBadInput, e.what()};
      } catch (const std::exception& e) {
        outcomes[s] = {RejectReason::kExecError, e.what()};
      } catch (...) {
        outcomes[s] = {RejectReason::kExecError, "unknown execution failure"};
      }
    }
  }
  const double done_t = clock_->now();
  const double exec_s = done_t - dispatch_t;
  const bool stalled = cfg_.stall_budget_s > 0.0 && exec_s > cfg_.stall_budget_s;

  // First twin of each slot executed; later twins are coalesced fan-outs.
  std::vector<bool> was_coalesced(live.size(), false);
  {
    std::vector<bool> slot_used(inputs.size(), false);
    for (size_t i = 0; i < live.size(); ++i) {
      was_coalesced[i] = slot_used[slot_of[i]];
      slot_used[slot_of[i]] = true;
    }
  }

  uint64_t n_ok = 0, n_exec_err = 0, n_bad = 0, coalesced_ok = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    switch (outcomes[slot_of[i]].reason) {
      case RejectReason::kNone:
        ++n_ok;
        if (was_coalesced[i]) ++coalesced_ok;
        break;
      case RejectReason::kExecError: ++n_exec_err; break;
      case RejectReason::kBadInput: ++n_bad; break;
      default: break;
    }
  }

  // Health bookkeeping: watchdog + breaker, one lock acquisition.
  {
    MutexLock lock(health_mu_);
    for (size_t i = 0; i < active_execs_.size(); ++i) {
      if (active_execs_[i].id == exec_id) {
        active_execs_.erase(active_execs_.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
    ModelHealth& hh = health_entry(handle);
    if (stalled) ++hh.stall_events;
    if (exec_s > hh.longest_exec_s) hh.longest_exec_s = exec_s;
    for (size_t i = 0; i < live.size(); ++i) {
      record_outcome(hh, outcomes[slot_of[i]], live[i].probe, done_t);
    }
  }

  // Metrics BEFORE promises: a client whose future just resolved must see
  // its own completion in the very next metrics() snapshot.
  {
    MutexLock lock(metrics_mu_);
    counters_.in_flight -= live.size();
    counters_.completed += n_ok;
    counters_.failed += n_exec_err;
    counters_.shed_bad_input += n_bad;
    counters_.coalesced += coalesced_ok;
    ++counters_.batches;
    if (fell_back) ++counters_.isolation_fallbacks;
    if (stalled) ++counters_.watchdog_stalls;
    const size_t b = std::min(live.size(),
                              counters_.batch_size_hist.size() - 1);
    ++counters_.batch_size_hist[b];
    for (size_t i = 0; i < live.size(); ++i) {
      if (outcomes[slot_of[i]].reason == RejectReason::kNone &&
          latencies_.size() < kMaxLatencySamples) {
        latencies_.push_back(done_t - live[i].enqueue_t);
      }
    }
  }

  for (size_t i = 0; i < live.size(); ++i) {
    Pending& p = live[i];
    const SlotOutcome& oc = outcomes[slot_of[i]];
    ServeResult r;
    r.queue_wait_s = dispatch_t - p.enqueue_t;
    r.total_s = done_t - p.enqueue_t;
    if (oc.reason == RejectReason::kNone) {
      r.rejected = RejectReason::kNone;
      r.batch_size = static_cast<int>(live.size());
      r.coalesced = was_coalesced[i];
      // The last twin of each slot may move the report; earlier ones copy.
      const bool last_use =
          [&] {
            for (size_t j = i + 1; j < live.size(); ++j) {
              if (slot_of[j] == slot_of[i]) return false;
            }
            return true;
          }();
      if (last_use) {
        r.report = std::move(reports.runs[slot_of[i]]);
      } else {
        r.report = reports.runs[slot_of[i]];
      }
    } else {
      r.rejected = oc.reason;
      r.error = oc.error;
    }
    p.promise.set_value(std::move(r));
  }
}

void ServingRuntime::shutdown(Shutdown mode) {
  MutexLock shutdown_lock(shutdown_mu_);
  std::vector<Pending> dropped;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    if (mode == Shutdown::kAbort) {
      while (!queue_.empty()) {
        dropped.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
  }
  queue_cv_.notify_all();
  for (Pending& p : dropped) {
    resolve_in_flight_rejected(std::move(p), RejectReason::kShutdown);
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

ServerMetrics ServingRuntime::metrics() const {
  ServerMetrics m;
  std::vector<double> lats;
  {
    MutexLock lock(metrics_mu_);
    m = counters_;
    lats = latencies_;
  }
  {
    MutexLock lock(mu_);
    m.queue_high_water = queue_high_water_;
  }
  m.plan_cache_bytes = plans_.bytes();
  const double now = clock_->now();
  {
    MutexLock lock(health_mu_);
    for (const auto& [handle, hh] : health_) {
      ModelHealthSnapshot s;
      s.handle = handle;
      const auto name_it = model_names_.find(handle);
      if (name_it != model_names_.end()) s.model = name_it->second;
      s.state = hh.breaker.state();
      s.consecutive_failures = hh.breaker.consecutive_failures();
      s.times_opened = hh.breaker.times_opened();
      s.cooldown_remaining_s = hh.breaker.cooldown_remaining(now);
      s.exec_failures = hh.exec_failures;
      s.bad_inputs = hh.bad_inputs;
      s.shed_unhealthy = hh.shed_unhealthy;
      s.stall_events = hh.stall_events;
      s.longest_exec_s = hh.longest_exec_s;
      if (cfg_.stall_budget_s > 0.0) {
        for (const ActiveExec& e : active_execs_) {
          if (e.handle == handle && now - e.start_t > cfg_.stall_budget_s) {
            s.currently_stalled = true;
            break;
          }
        }
      }
      m.models.push_back(std::move(s));
    }
  }
  m.latency = summarize_latencies(std::move(lats));
  m.elapsed_s = now - start_t_;
  m.throughput_rps =
      m.elapsed_s > 0.0 ? static_cast<double>(m.completed) / m.elapsed_s : 0.0;
  m.mean_batch_size =
      m.batches > 0
          ? static_cast<double>(m.completed) / static_cast<double>(m.batches)
          : 0.0;
  return m;
}

}  // namespace mpipu::serve
