// Tests for the unified Datapath interface (core/datapath.h):
//
//  * one class per scheme: each unit is built only from a config naming
//    its scheme, and make_datapath builds that unit;
//  * cross-scheme agreement: with an exact accumulator and MC banding all
//    three schemes reproduce reference.h's exact inner product bit for bit
//    (the §5 orthogonality claim at the value level);
//  * the scheme-generic service-cycle model used for tile costing matches
//    the cycles the bit-accurate units actually report;
//  * ThreadPool partition correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/datapath.h"
#include "core/ipu.h"
#include "core/reference.h"
#include "core/serial_ipu.h"
#include "core/spatial_ipu.h"

namespace mpipu {
namespace {

constexpr auto kAllSchemes = {DecompositionScheme::kTemporal,
                              DecompositionScheme::kSerial,
                              DecompositionScheme::kSpatial};

std::vector<Fp16> random_fp16_bits(Rng& rng, int n) {
  std::vector<Fp16> v;
  while (static_cast<int>(v.size()) < n) {
    const Fp16 f = Fp16::from_bits(static_cast<uint32_t>(rng.next_u64()));
    if (f.is_finite()) v.push_back(f);
  }
  return v;
}

AccumulatorConfig unbounded_acc() {
  AccumulatorConfig acc;
  acc.frac_bits = 100;
  acc.lossless = true;
  return acc;
}

DatapathConfig base_config(DecompositionScheme scheme, int w) {
  // for_scheme sets each scheme's defaults (spatial gets skip_empty_bands).
  DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
  cfg.n_inputs = 16;
  cfg.adder_tree_width = w;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  return cfg;
}

// --- One class per scheme -----------------------------------------------------

/// Unit must build from a config naming `own` and reject the other two.
template <typename Unit>
void expect_rejects_other_schemes(DecompositionScheme own) {
  for (auto scheme : kAllSchemes) {
    const DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
    if (scheme == own) {
      EXPECT_NO_THROW(Unit{cfg}) << scheme_name(own);
    } else {
      EXPECT_THROW(Unit{cfg}, std::invalid_argument)
          << scheme_name(own) << " unit, " << scheme_name(scheme) << " config";
    }
  }
}

TEST(DatapathUnits, ConstructorRejectsConfigNamingAnotherScheme) {
  expect_rejects_other_schemes<Ipu>(DecompositionScheme::kTemporal);
  expect_rejects_other_schemes<SerialIpu>(DecompositionScheme::kSerial);
  expect_rejects_other_schemes<SpatialIpu>(DecompositionScheme::kSpatial);
}

TEST(DatapathUnits, MakeDatapathBuildsTheSchemeUnit) {
  const auto unit = [](DecompositionScheme s) {
    return make_datapath(DatapathConfig::for_scheme(s));
  };
  EXPECT_NE(dynamic_cast<Ipu*>(unit(DecompositionScheme::kTemporal).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<SerialIpu*>(unit(DecompositionScheme::kSerial).get()),
            nullptr);
  EXPECT_NE(
      dynamic_cast<SpatialIpu*>(unit(DecompositionScheme::kSpatial).get()),
      nullptr);
}

TEST(DatapathWrapping, SerialWidthIsClampedToProductWidth) {
  DatapathConfig cfg = base_config(DecompositionScheme::kSerial, 10);
  EXPECT_EQ(cfg.effective_adder_tree_width(), 13);
  EXPECT_EQ(cfg.safe_precision(), 1);
  auto dp = make_datapath(cfg);
  Rng rng(4);
  const auto a = random_fp16_bits(rng, 16);
  const auto b = random_fp16_bits(rng, 16);
  EXPECT_GE(dp->dot(a, b).cycles, 12);
}

TEST(DatapathPresets, ForSchemeSetsTheSchemeDefaults) {
  EXPECT_FALSE(DatapathConfig::for_scheme(DecompositionScheme::kTemporal)
                   .skip_empty_bands);
  EXPECT_FALSE(DatapathConfig::for_scheme(DecompositionScheme::kSerial)
                   .skip_empty_bands);
  const DatapathConfig sp =
      DatapathConfig::for_scheme(DecompositionScheme::kSpatial);
  EXPECT_EQ(sp.scheme, DecompositionScheme::kSpatial);
  EXPECT_TRUE(sp.skip_empty_bands);
}

// --- Cross-scheme agreement (§5 orthogonality at the value level) ------------

TEST(DatapathCrossScheme, AllSchemesMatchExactReferenceWithUnboundedAccumulator) {
  // MC banding is lossless for every scheme when the accumulator keeps all
  // bits and the software precision covers the FP16 worst case (58).
  Rng rng(5);
  for (auto scheme : kAllSchemes) {
    DatapathConfig cfg = base_config(scheme, 14);
    cfg.software_precision = 58;
    cfg.accumulator = unbounded_acc();
    auto dp = make_datapath(cfg);
    for (int t = 0; t < 800; ++t) {
      const auto a = random_fp16_bits(rng, 16);
      const auto b = random_fp16_bits(rng, 16);
      const FixedPoint exact = exact_fp_inner_product<kFp16Format>(a, b);
      EXPECT_TRUE(dp->dot(a, b).raw == exact)
          << scheme_name(scheme) << " trial " << t;
    }
  }
}

TEST(DatapathCrossScheme, SchemesAgreeBitForBitUnderSharedMasking) {
  // Same software precision, exact accumulator, MC mode: all three schemes
  // mask the same products and lose nothing else, so they agree exactly --
  // on values; cycle counts are where the schemes differ.
  Rng rng(6);
  DatapathConfig cfg = base_config(DecompositionScheme::kTemporal, 16);
  cfg.software_precision = 16;  // FP16-accumulation masking regime
  cfg.accumulator = unbounded_acc();
  std::vector<std::unique_ptr<Datapath>> dps;
  for (auto scheme : kAllSchemes) {
    cfg.scheme = scheme;
    dps.push_back(make_datapath(cfg));
  }
  for (int t = 0; t < 1500; ++t) {
    const auto a = random_fp16_bits(rng, 16);
    const auto b = random_fp16_bits(rng, 16);
    const DotResult r0 = dps[0]->dot(a, b);
    for (size_t s = 1; s < dps.size(); ++s) {
      const DotResult rs = dps[s]->dot(a, b);
      EXPECT_TRUE(rs.raw == r0.raw)
          << scheme_name(dps[s]->config().scheme) << " trial " << t;
    }
  }
}

TEST(DatapathCrossScheme, IntModeExactWhereSupported) {
  Rng rng(7);
  for (auto scheme : {DecompositionScheme::kTemporal, DecompositionScheme::kSerial}) {
    auto dp = make_datapath(base_config(scheme, 16));
    ASSERT_TRUE(dp->supports_int(8, 8));
    for (int t = 0; t < 300; ++t) {
      std::vector<int32_t> a, b;
      for (int k = 0; k < 16; ++k) {
        a.push_back(static_cast<int32_t>(rng.uniform_int(-128, 127)));
        b.push_back(static_cast<int32_t>(rng.uniform_int(-128, 127)));
      }
      dp->reset_accumulator();
      dp->int_accumulate(a, b, 8, 8);
      EXPECT_EQ(dp->read_int(), exact_int_inner_product(a, b))
          << scheme_name(scheme) << " trial " << t;
    }
  }
  EXPECT_FALSE(make_datapath(base_config(DecompositionScheme::kSpatial, 16))
                   ->supports_int(8, 8));
}

// --- Tile-costing model vs bit-accurate cycles -------------------------------

TEST(DatapathCostModel, ServiceCyclesMatchBitAccurateUnits) {
  // The exponent-only service model (fp16_op_service_cycles) drives the
  // cycle simulator's tile costing; it must agree with what the bit-level
  // units actually charge, for every scheme.
  Rng rng(8);
  for (auto scheme : kAllSchemes) {
    for (int w : {14, 16, 28}) {
      const DatapathConfig cfg = base_config(scheme, w);  // preset handles
                                                          // skip_empty_bands
      auto dp = make_datapath(cfg);
      std::vector<int> exps(16);
      for (int t = 0; t < 400; ++t) {
        const auto a = random_fp16_bits(rng, 16);
        const auto b = random_fp16_bits(rng, 16);
        for (int k = 0; k < 16; ++k) {
          exps[static_cast<size_t>(k)] =
              a[static_cast<size_t>(k)].decode().exp + b[static_cast<size_t>(k)].decode().exp;
        }
        EXPECT_EQ(fp16_op_service_cycles(exps, cfg), dp->dot(a, b).cycles)
            << scheme_name(scheme) << " w=" << w << " trial " << t;
      }
    }
  }
}

/// fp16_op_service_cycles without its shortcuts (one band; the highest
/// band alone for the serve-loop count): the full §3.2 band loop over every
/// live lane, and for the spatial scheme over each lane's nine nibble
/// significance offsets 14 - wi - wj, wi, wj in {-1, 3, 7}.
int service_cycles_by_band_loop(const std::vector<int>& exps,
                                const DatapathConfig& cfg) {
  const int iters = fp16_iterations_per_op(cfg.scheme);
  int max_exp = kMaskedProductExp;
  for (int e : exps) max_exp = std::max(max_exp, e);
  if (!cfg.multi_cycle || max_exp == kMaskedProductExp) return iters;
  const int sp = std::max(cfg.safe_precision(), 1);
  std::vector<int> offsets = {0};
  if (cfg.scheme == DecompositionScheme::kSpatial) {
    offsets.clear();
    for (int wi : {-1, 3, 7}) {
      for (int wj : {-1, 3, 7}) offsets.push_back(14 - wi - wj);
    }
  }
  uint64_t occupied = 0;
  for (int e : exps) {
    if (e == kMaskedProductExp) continue;
    const int d = max_exp - e;
    if (d > cfg.software_precision) continue;
    for (int off : offsets) {
      occupied |= uint64_t{1} << std::min((d + off) / sp, 63);
    }
  }
  const int bands = cfg.skip_empty_bands
                        ? std::max(1, __builtin_popcountll(occupied))
                        : (occupied == 0 ? 1 : 64 - __builtin_clzll(occupied));
  return iters * bands;
}

TEST(DatapathCostModel, OneBandShortcutMatchesTheBandLoop) {
  // Narrow exponent spreads around the safe precision, masked lanes, and
  // software precisions below it: where the shortcuts fire and where they
  // must not, with both band counts.
  Rng rng(9);
  for (auto scheme : kAllSchemes) {
    for (int w : {12, 16, 20, 28, 38}) {
      for (int soft : {0, 2, 6, 28}) {
        for (int mode = 0; mode < 4; ++mode) {
          DatapathConfig cfg = base_config(scheme, w);
          cfg.software_precision = soft;
          cfg.multi_cycle = (mode & 1) != 0;
          cfg.skip_empty_bands = (mode & 2) != 0;
          const int sp = std::max(cfg.safe_precision(), 1);
          for (int t = 0; t < 200; ++t) {
            std::vector<int> exps(static_cast<size_t>(rng.uniform_int(1, 16)));
            const int spread = static_cast<int>(rng.uniform_int(0, 2 * sp + 2));
            for (int& e : exps) {
              e = rng.uniform(0.0, 1.0) < 0.3
                      ? kMaskedProductExp
                      : static_cast<int>(rng.uniform_int(-spread, 0)) - 7;
            }
            EXPECT_EQ(fp16_op_service_cycles(exps, cfg),
                      service_cycles_by_band_loop(exps, cfg))
                << scheme_name(scheme) << " w=" << w << " soft=" << soft
                << " mode=" << mode << " trial " << t;
          }
        }
      }
    }
  }
}

// --- ThreadPool ---------------------------------------------------------------

TEST(ThreadPoolTest, PartitionCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    for (int64_t total : {0, 1, 3, 7, 100, 1000}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(total));
      pool.parallel_for(total, [&](int64_t begin, int64_t end, int slot) {
        EXPECT_GE(slot, 0);
        EXPECT_LT(slot, threads);
        for (int64_t i = begin; i < end; ++i) {
          hits[static_cast<size_t>(i)].fetch_add(1);
        }
      });
      for (int64_t i = 0; i < total; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "threads=" << threads << " total=" << total << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.parallel_for(100, [&](int64_t begin, int64_t end, int) {
      for (int64_t i = begin; i < end; ++i) sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
  }
}

TEST(ThreadPoolTest, ExceptionFromAnySliceReachesTheCaller) {
  // A throw on a worker slot (or the caller's slot 0) is rethrown by
  // parallel_for after every slice finished, and the pool stays usable.
  ThreadPool pool(4);
  for (int thrower : {0, 1, 3}) {
    std::atomic<int> finished{0};
    EXPECT_THROW(pool.parallel_for(4,
                                   [&](int64_t, int64_t, int slot) {
                                     if (slot == thrower) {
                                       throw std::runtime_error("slice");
                                     }
                                     finished.fetch_add(1);
                                   }),
                 std::runtime_error)
        << "thrower=" << thrower;
    EXPECT_EQ(finished.load(), 3) << "thrower=" << thrower;
  }
  std::atomic<int64_t> sum{0};
  pool.parallel_for(100, [&](int64_t begin, int64_t end, int) {
    for (int64_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

}  // namespace
}  // namespace mpipu
