#include "api/plan_cache.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace mpipu {

PlanCache::PlanCache(RunSpec spec, size_t budget_bytes)
    : spec_(std::move(spec)), budget_(budget_bytes) {}

size_t PlanCache::touch(const GraphModel& model, int input_h, int input_w) {
  // matches() rejects on cheap field checks (name, shapes, specs) before it
  // compares any weight bytes, so a miss over many entries stays cheap.
  for (size_t i = 0; i < entries_.size(); ++i) {
    const CompiledModel& plan = *entries_[i].plan;
    if (plan.input_h() == input_h && plan.input_w() == input_w &&
        plan.matches(model)) {
      std::rotate(entries_.begin() + static_cast<ptrdiff_t>(i),
                  entries_.begin() + static_cast<ptrdiff_t>(i) + 1,
                  entries_.end());
      return entries_.size() - 1;
    }
  }
  return entries_.size();
}

PlanCache::Entry PlanCache::get_or_compile(const GraphModel& model,
                                           int input_h, int input_w) {
  {
    MutexLock lock(mu_);
    const size_t i = touch(model, input_h, input_w);
    if (i < entries_.size()) return entries_[i];
  }
  auto plan = std::make_shared<const CompiledModel>(CompiledModel::compile(
      model, spec_, CompileOptions{.input_h = input_h, .input_w = input_w}));
  MutexLock lock(mu_);
  // A racing caller may have inserted the same plan while this one
  // compiled: keep theirs, so one model never holds two ids.
  const size_t i = touch(model, input_h, input_w);
  if (i < entries_.size()) return entries_[i];
  bytes_ += plan->plan_bytes();
  entries_.push_back({next_id_++, std::move(plan)});
  while (bytes_ > budget_ && entries_.size() > 1) {
    bytes_ -= entries_.front().plan->plan_bytes();
    entries_.erase(entries_.begin());
  }
  return entries_.back();
}

std::shared_ptr<const CompiledModel> PlanCache::find(uint64_t id) const {
  MutexLock lock(mu_);
  for (const Entry& e : entries_) {
    if (e.id == id) return e.plan;
  }
  throw std::out_of_range("PlanCache::find: unknown or evicted id " +
                          std::to_string(id));
}

size_t PlanCache::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

size_t PlanCache::bytes() const {
  MutexLock lock(mu_);
  return bytes_;
}

}  // namespace mpipu
