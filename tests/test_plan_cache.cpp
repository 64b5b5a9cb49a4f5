// Tests for PlanCache (src/api/plan_cache.h), the one plan cache behind
// Session::run and ServingRuntime::load:
//
//  * lookup: equal model content shares one entry, geometry is part of the
//    key, ids are monotonic;
//  * byte-bounded LRU eviction under a small budget, and the most recently
//    used entry kept even when it alone is over the budget;
//  * a compile that throws leaves the cache untouched;
//  * find() on an evicted or never-issued id throws std::out_of_range, and
//    a plan handed out before its eviction stays usable;
//  * 8 threads compiling, hitting and evicting under a 2-plan budget while
//    running the plans they get back, against a serial baseline.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/plan_cache.h"
#include "common/rng.h"

namespace mpipu {
namespace {

RunSpec small_spec() {
  RunSpec spec;
  spec.datapath = DatapathConfig::for_scheme(DecompositionScheme::kTemporal);
  spec.datapath.n_inputs = 16;
  spec.datapath.adder_tree_width = 16;
  spec.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
  spec.threads = 1;
  return spec;
}

/// Two-layer CNN; every model of this shape has the same plan_bytes() at a
/// given geometry, so budgets below are whole multiples of one plan.
GraphModel small_model(uint64_t seed, const std::string& name) {
  Rng rng(seed);
  std::vector<ModelLayer> layers(2);
  layers[0].name = "conv1";
  layers[0].filters = random_filters(rng, 8, 3, 3, 3, ValueDist::kNormal, 0.3);
  layers[0].spec.pad = 1;
  layers[0].relu = true;
  layers[1].name = "head";
  layers[1].filters = random_filters(rng, 4, 8, 1, 1, ValueDist::kNormal, 0.2);
  return GraphModel::from_layers(name, std::move(layers));
}

size_t plan_bytes_at(const GraphModel& model, int h, int w) {
  return CompiledModel::compile(model, small_spec(), {h, w}).plan_bytes();
}

TEST(PlanCache, DedupsByContentAndKeysOnGeometry) {
  PlanCache cache(small_spec(), kPlanCacheBytes);
  const GraphModel a = small_model(1, "a");
  const PlanCache::Entry first = cache.get_or_compile(a, 8, 8);
  // A separately built model with the same content hits the same entry.
  const PlanCache::Entry again = cache.get_or_compile(small_model(1, "a"), 8, 8);
  EXPECT_EQ(again.id, first.id);
  EXPECT_EQ(again.plan, first.plan);
  EXPECT_EQ(cache.size(), 1u);

  // Same content at another geometry, and other content, are new entries.
  const PlanCache::Entry a10 = cache.get_or_compile(a, 10, 10);
  const PlanCache::Entry b = cache.get_or_compile(small_model(2, "b"), 8, 8);
  EXPECT_GT(a10.id, first.id);
  EXPECT_GT(b.id, a10.id);
  EXPECT_EQ(a10.plan->input_h(), 10);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.bytes(), first.plan->plan_bytes() + a10.plan->plan_bytes() +
                               b.plan->plan_bytes());
  EXPECT_EQ(cache.find(a10.id), a10.plan);
}

TEST(PlanCache, EvictsLeastRecentlyUsedByBytes) {
  const GraphModel a = small_model(1, "a");
  const GraphModel b = small_model(2, "b");
  const GraphModel c = small_model(3, "c");
  const size_t one = plan_bytes_at(a, 8, 8);
  ASSERT_EQ(plan_bytes_at(b, 8, 8), one);
  PlanCache cache(small_spec(), 2 * one);

  const PlanCache::Entry ea = cache.get_or_compile(a, 8, 8);
  const PlanCache::Entry eb = cache.get_or_compile(b, 8, 8);
  EXPECT_EQ(cache.get_or_compile(a, 8, 8).id, ea.id);  // a is now the newest
  const PlanCache::Entry ec = cache.get_or_compile(c, 8, 8);

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 2 * one);
  EXPECT_EQ(cache.find(ea.id), ea.plan);
  EXPECT_EQ(cache.find(ec.id), ec.plan);
  EXPECT_THROW((void)cache.find(eb.id), std::out_of_range);
  EXPECT_THROW((void)cache.find(ec.id + 1), std::out_of_range);  // never issued

  // The evicted plan stays alive and correct for whoever still holds it.
  Rng rng(4);
  const Tensor input = random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0);
  EXPECT_EQ(eb.plan->run(input).output.data,
            CompiledModel::compile(b, small_spec(), {8, 8}).run(input).output.data);

  // Re-requesting an evicted model compiles it again under a fresh id.
  EXPECT_GT(cache.get_or_compile(b, 8, 8).id, ec.id);
}

TEST(PlanCache, KeepsTheNewestEntryEvenOverBudget) {
  const GraphModel a = small_model(1, "a");
  PlanCache cache(small_spec(), 1);
  const PlanCache::Entry ea = cache.get_or_compile(a, 8, 8);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GT(cache.bytes(), cache.budget_bytes());
  // Served from the cache, not recompiled on every call.
  const PlanCache::Entry hit = cache.get_or_compile(a, 8, 8);
  EXPECT_EQ(hit.id, ea.id);
  EXPECT_EQ(hit.plan, ea.plan);

  const PlanCache::Entry eb = cache.get_or_compile(small_model(2, "b"), 8, 8);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(eb.id), eb.plan);
  EXPECT_THROW((void)cache.find(ea.id), std::out_of_range);
}

TEST(PlanCache, ThrowingCompileEvictsNothing) {
  const GraphModel a = small_model(1, "a");
  // A budget of exactly one plan: any insert would evict `a`.
  PlanCache cache(small_spec(), plan_bytes_at(a, 8, 8));
  const PlanCache::Entry ea = cache.get_or_compile(a, 8, 8);

  GraphModel::Builder shape_only("shape-only");
  shape_only.conv_shape("c", 4, 3, 3, 3, ConvSpec{.stride = 1, .pad = 1},
                        shape_only.input());
  EXPECT_THROW((void)cache.get_or_compile(shape_only.build(), 8, 8),
               std::invalid_argument);
  EXPECT_THROW((void)cache.get_or_compile(small_model(2, "b"), 0, 0),
               std::invalid_argument);

  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), ea.plan->plan_bytes());
  EXPECT_EQ(cache.find(ea.id), ea.plan);
  // No id was spent on the failed compiles.
  EXPECT_EQ(cache.get_or_compile(small_model(3, "c"), 8, 8).id, ea.id + 1);
}

// 8 threads over 6 models with room for only 2 plans: misses, racing
// compiles of one model, hits, LRU rotations and evictions all interleave,
// and plans are evicted while other threads are still running them.
TEST(PlanCache, ConcurrentCallersUnderATwoPlanBudget) {
  constexpr int kThreads = 8;
  constexpr int kModels = 6;
  constexpr int kRounds = 6;

  std::vector<GraphModel> models;
  std::vector<Tensor> inputs;
  std::vector<std::vector<double>> expected;
  Rng rng(5);
  for (int m = 0; m < kModels; ++m) {
    models.push_back(
        small_model(100 + static_cast<uint64_t>(m), std::to_string(m)));
    inputs.push_back(random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0));
    expected.push_back(CompiledModel::compile(models.back(), small_spec(), {8, 8})
                           .run(inputs.back())
                           .output.data);
  }
  PlanCache cache(small_spec(), 2 * plan_bytes_at(models[0], 8, 8));

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const auto m = static_cast<size_t>((t + r * 5) % kModels);
        const PlanCache::Entry e = cache.get_or_compile(models[m], 8, 8);
        if (!e.plan->matches(models[m]) ||
            e.plan->run(inputs[m]).output.data != expected[m]) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_LE(cache.size(), 2u);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
}

}  // namespace
}  // namespace mpipu
