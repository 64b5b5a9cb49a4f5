// PlanCache: the one compile-once plan cache, behind both Session::run
// (compile on first use) and serve::ServingRuntime::load (compile at load
// time).
//
// An entry is one CompiledModel, keyed by exact model content
// (CompiledModel::matches) plus input geometry under the cache's fixed
// RunSpec.  Every entry gets a monotonic id at insertion; ServingRuntime
// hands it out as its ModelHandle.  Plans are held as shared_ptrs, so an
// evicted plan stays alive for as long as a run (or a queued request) holds
// it.
//
// Memory is bounded by bytes, not by entries: after an insert the least
// recently used entries are evicted until the sum of their
// CompiledModel::plan_bytes() fits the budget.  The most recently used
// entry is never evicted, so a single plan larger than the whole budget is
// still served from the cache instead of recompiled on every call.
//
// Compiles run OUTSIDE the mutex: a lookup, a find() or a hit never waits
// for another model's compile.  Two callers missing on the same model both
// compile; the first to re-take the lock inserts, the other drops its copy
// and returns the winner's entry (compilation is deterministic, so the two
// plans are identical).  A compile that throws changes nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/compiled_model.h"
#include "common/annotated_mutex.h"

namespace mpipu {

/// The plan budget of Session's and ServingRuntime's caches: 1 GiB.  A
/// ResNet-18 plan is about 0.1 GB at 32x32 inputs and 0.6 GB at >= 128x128.
inline constexpr size_t kPlanCacheBytes = size_t{1} << 30;

class PlanCache {
 public:
  struct Entry {
    uint64_t id = 0;
    std::shared_ptr<const CompiledModel> plan;
  };

  /// Every entry is compiled against `spec`.  `budget_bytes` bounds the
  /// summed plan_bytes() of the entries (see the header comment for the
  /// one entry that may exceed it).
  PlanCache(RunSpec spec, size_t budget_bytes);

  /// The entry for (`model`, input_h x input_w), compiled on a miss.  A hit
  /// (or a lost compile race) marks the entry most recently used.  Throws
  /// whatever CompiledModel::compile throws, leaving the cache unchanged.
  Entry get_or_compile(const GraphModel& model, int input_h, int input_w);

  /// The plan behind `id`.  Does not touch recency.  Throws
  /// std::out_of_range for an id never issued or already evicted.
  std::shared_ptr<const CompiledModel> find(uint64_t id) const;

  size_t size() const;
  /// Summed plan_bytes() of the cached entries.
  size_t bytes() const;
  size_t budget_bytes() const { return budget_; }

 private:
  /// Index of the entry matching (model, geometry), moved to the back
  /// (most recently used); entries_.size() on a miss.
  size_t touch(const GraphModel& model, int input_h, int input_w)
      MPIPU_REQUIRES(mu_);

  const RunSpec spec_;
  const size_t budget_;
  mutable Mutex mu_;
  /// LRU order: least recently used at the front.
  std::vector<Entry> entries_ MPIPU_GUARDED_BY(mu_);
  size_t bytes_ MPIPU_GUARDED_BY(mu_) = 0;
  uint64_t next_id_ MPIPU_GUARDED_BY(mu_) = 0;
};

}  // namespace mpipu
