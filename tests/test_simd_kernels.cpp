// Differential tests for the portable SIMD kernel layer (core/simd).
//
// Two walls, both pinned against the scalar reference implementations:
//
//  * kernel-level: every KernelTable entry of the AVX2 backend must
//    produce byte-identical outputs to the scalar table over ragged view
//    lengths (vector body + scalar tail), empty bands, all-masked lanes
//    and all-zero operand planes;
//  * datapath-level: a scheme unit running with the AVX2 backend forced
//    must produce bit-identical accumulator values, per-op cycle counts
//    and stats to the same unit running scalar-forced, across scheme x
//    {FP16, INT8, INT4} x adder-tree width x mode sweeps (including the
//    configs that route through the fused whole-op kernels and the ones
//    that fall back to the scalar oracle).
//
// The cycle simulator's mt19937_64 refill is pinned on both backends
// against std::mt19937_64 itself, and its threshold draws (sim/sampler.h)
// against std::bernoulli_distribution.
//
// Every x86-64 build carries the AVX2 backend, so the differential tests
// skip only on hosts without AVX2 (a non-x86 build, or an x86-64 CPU that
// lacks it) -- there is nothing to diff there.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/datapath.h"
#include "core/simd/simd.h"
#include "sim/sampler.h"

namespace mpipu {
namespace {

using simd::Backend;
using simd::KernelTable;

/// The vector backend this binary runs on this CPU: AVX2, or none.
std::vector<Backend> vector_backends() {
  if (simd::backend_compiled(Backend::kAvx2)) return {Backend::kAvx2};
  return {};
}

/// Restores the startup backend selection on scope exit.
struct BackendGuard {
  ~BackendGuard() { simd::reset_backend(); }
};

// View lengths covering empty vector bodies, exact vector widths and ragged
// scalar tails; the fused kernels cap at kFusedLanes.
constexpr size_t kSizes[] = {1, 5, 8, 13, 16, 31, 37};
constexpr size_t kFusedSizes[] = {1, 5, 8, 13, 16};

std::vector<int8_t> random_nibbles(Rng& rng, size_t n, bool all_zero = false) {
  std::vector<int8_t> v(n, 0);
  if (!all_zero) {
    for (auto& x : v) x = static_cast<int8_t>(rng.uniform_int(-15, 15));
  }
  return v;
}

/// Serve-band plane: lane bands in [-1, bands), padded through `pad` with
/// -1 (the driver-owned-plane contract of the fused kernels).
std::vector<int32_t> random_bands(Rng& rng, size_t n, int bands, size_t pad,
                                  bool all_masked = false) {
  std::vector<int32_t> v(std::max(n, pad), -1);
  for (size_t k = 0; k < n; ++k) {
    v[k] = all_masked ? -1
                      : static_cast<int32_t>(rng.uniform_int(-1, bands - 1));
  }
  return v;
}

std::vector<int32_t> random_i32(Rng& rng, size_t n, int64_t lo, int64_t hi,
                                size_t pad = 0) {
  std::vector<int32_t> v(std::max(n, pad), 0);
  for (size_t k = 0; k < n; ++k) {
    v[k] = static_cast<int32_t>(rng.uniform_int(lo, hi));
  }
  return v;
}

// --- backend selection -------------------------------------------------------

// The AVX2 backend is part of every x86-64 build: on an AVX2 CPU it must be
// available and, unless MPIPU_KERNEL pins scalar, selected at startup.
TEST(SimdBackend, Avx2AvailableAndSelectedOnAvx2Cpus) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "this CPU has no AVX2";
  EXPECT_TRUE(simd::backend_compiled(Backend::kAvx2));
  BackendGuard guard;
  simd::reset_backend();
  const char* env = std::getenv("MPIPU_KERNEL");
  const bool pinned_scalar = env != nullptr && std::strcmp(env, "scalar") == 0;
  EXPECT_EQ(simd::active_backend(),
            pinned_scalar ? Backend::kScalar : Backend::kAvx2);
#else
  GTEST_SKIP() << "not an x86-64 build";
#endif
}

// MPIPU_KERNEL parsing: the three documented values (and unset/empty)
// select a backend; anything else is an error, never a silent AVX2 pick.
TEST(SimdBackend, KernelEnvValueParsing) {
  const Backend vec = simd::backend_compiled(Backend::kAvx2) ? Backend::kAvx2
                                                             : Backend::kScalar;
  EXPECT_EQ(simd::backend_from_env("scalar"), Backend::kScalar);
  EXPECT_EQ(simd::backend_from_env("avx2"), vec);
  EXPECT_EQ(simd::backend_from_env("auto"), vec);
  EXPECT_EQ(simd::backend_from_env(""), vec);
  EXPECT_EQ(simd::backend_from_env(nullptr), vec);
  for (const char* bad : {"Scalar", "scalr", "neon", "AVX2", "scalar "}) {
    try {
      simd::backend_from_env(bad);
      ADD_FAILURE() << "MPIPU_KERNEL=" << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("scalar|avx2|auto"),
                std::string::npos)
          << e.what();
    }
  }
}

// --- kernel-level equality ---------------------------------------------------

TEST(SimdKernels, ServeShiftsMatchScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "this host has no AVX2";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(11);
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t n : kSizes) {
      for (int trial = 0; trial < 20; ++trial) {
        // EHU-shaped input: band = align / sp, -1 past the software
        // precision.
        const auto align = random_i32(rng, n, 0, 100);
        const int32_t soft = static_cast<int32_t>(rng.uniform_int(0, 100));
        const int32_t sp = static_cast<int32_t>(rng.uniform_int(1, 40));
        std::vector<int32_t> band(n);
        for (size_t k = 0; k < n; ++k) {
          band[k] = align[k] > soft ? -1 : align[k] / sp;
        }
        std::vector<int32_t> sb_s(n), up_s(n), dn_s(n);
        std::vector<int32_t> sb_v(n), up_v(n), dn_v(n);
        for (int sc = 0; sc < 2; ++sc) {
          S.serve_shifts_i32(align.data(), band.data(), n, sp - 1, sp, sc, 28,
                             sb_s.data(), up_s.data(), dn_s.data());
          V.serve_shifts_i32(align.data(), band.data(), n, sp - 1, sp, sc, 28,
                             sb_v.data(), up_v.data(), dn_v.data());
          EXPECT_EQ(sb_s, sb_v);
          EXPECT_EQ(up_s, up_v);
          EXPECT_EQ(dn_s, dn_v);
        }
      }
    }
  }
}

TEST(SimdKernels, EhuFusedMatchesScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "this host has no AVX2";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(12);
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t n : kSizes) {
      for (int trial = 0; trial < 30; ++trial) {
        // Narrow spreads exercise the banding math; the wide-spread trial
        // exercises the magic-divide bail (both backends must agree on it).
        const bool wide = trial % 10 == 9;
        const auto ea = random_i32(rng, n, -60, 60);
        auto eb = random_i32(rng, n, -60, 60);
        if (wide && n > 0) eb[n - 1] = -200000;
        const int32_t soft = static_cast<int32_t>(rng.uniform_int(0, 60));
        const int32_t sp = static_cast<int32_t>(rng.uniform_int(1, 30));
        std::vector<int32_t> al_s(n), bd_s(n), al_v(n), bd_v(n);
        int32_t me_s, mb_s, nm_s, me_v, mb_v, nm_v;
        uint32_t occ_s, occ_v;
        const bool ok_s =
            S.ehu_fused_i32(ea.data(), eb.data(), n, soft, sp, al_s.data(),
                            bd_s.data(), &me_s, &occ_s, &mb_s, &nm_s);
        const bool ok_v =
            V.ehu_fused_i32(ea.data(), eb.data(), n, soft, sp, al_v.data(),
                            bd_v.data(), &me_v, &occ_v, &mb_v, &nm_v);
        ASSERT_EQ(ok_s, ok_v) << "n=" << n << " trial " << trial;
        if (!ok_s) continue;  // outputs unspecified on the bail path
        EXPECT_EQ(al_s, al_v);
        EXPECT_EQ(bd_s, bd_v);
        EXPECT_EQ(me_s, me_v);
        EXPECT_EQ(occ_s, occ_v);
        EXPECT_EQ(mb_s, mb_v);
        EXPECT_EQ(nm_s, nm_v);
      }
    }
  }
}

// --- temporal stream kernel --------------------------------------------------

/// One operand stream for temporal_stream_i32: exponent planes and nibble
/// planes (stride == len, so the last plane ends the allocation and a read
/// past the stream overruns it under ASan).
struct StreamOperands {
  std::vector<int32_t> a_exp, b_exp;
  std::vector<int8_t> a_nib, b_nib;
  size_t len = 0;
};

StreamOperands random_stream(Rng& rng, size_t len) {
  StreamOperands s;
  s.len = len;
  // FP16 operand exponents (-24 .. 15): product spreads up to 78.
  s.a_exp = random_i32(rng, len, -24, 15);
  s.b_exp = random_i32(rng, len, -24, 15);
  s.a_nib = random_nibbles(rng, 3 * len);
  s.b_nib = random_nibbles(rng, 3 * len);
  return s;
}

/// The temporal config of one kernel call: window w, software precision,
/// mode and skip flags, accumulator fraction and register bits.  The
/// rescale table follows Ipu's construction.
struct StreamConfig {
  int w = 28;
  int soft = 28;
  bool mc = true;
  bool skip_empty_bands = false;
  bool skip_zero_iterations = false;
  int frac_bits = 30;
  int register_width = 46;
  std::vector<int32_t> rescale;

  simd::TemporalStreamArgs args(const StreamOperands& s, size_t chunk) {
    const int guard = w - 10, sp = w - 9;
    rescale.assign(9 * simd::kMaxBands, 0);
    for (int it = 0; it < 9; ++it) {
      // (4i - 1) + (4j - 1) - 2 * 10 - guard + frac_bits.
      const int base = 4 * (it / 3) + 4 * (it % 3) - 22 - guard + frac_bits;
      for (int c = 0; c < simd::kMaxBands; ++c) {
        rescale[static_cast<size_t>(c * 9 + it)] =
            std::max(base - (mc ? c * sp : 0), -63);
      }
    }
    simd::TemporalStreamArgs a{};
    a.a_exp = s.a_exp.data();
    a.a_nib = s.a_nib.data();
    a.a_stride = s.len;
    a.b_exp = s.b_exp.data();
    a.b_nib = s.b_nib.data();
    a.b_stride = s.len;
    a.len = s.len;
    a.chunk = chunk;
    a.soft = soft;
    a.sp = sp;
    a.guard = guard;
    a.window = w;
    a.register_width = register_width;
    a.single_cycle = mc ? 0 : 1;
    a.skip_empty_bands = skip_empty_bands ? 1 : 0;
    a.skip_zero_iterations = skip_zero_iterations ? 1 : 0;
    a.rescale = rescale.data();
    return a;
  }
};

simd::TemporalStreamState fresh_state() {
  simd::TemporalStreamState st{};
  st.empty = 1;
  return st;
}

/// Serves the stream on both tables the way the Ipu driver does -- call,
/// and on a returned offset short of len skip that op and resume -- and
/// asserts identical offsets and identical states after every call.
/// Returns the offsets the calls stopped at.
std::vector<size_t> expect_stream_equal(const KernelTable& S,
                                        const KernelTable& V,
                                        const StreamOperands& ops,
                                        StreamConfig& cfg, size_t chunk,
                                        simd::TemporalStreamState st,
                                        const std::string& what) {
  simd::TemporalStreamArgs args = cfg.args(ops, chunk);
  simd::TemporalStreamState st_s = st, st_v = st;
  std::vector<size_t> stops;
  size_t c0 = 0;
  while (c0 < ops.len) {
    simd::TemporalStreamArgs at = args;
    at.a_exp += c0;
    at.b_exp += c0;
    at.a_nib += c0;
    at.b_nib += c0;
    at.len -= c0;
    const size_t off_s = S.temporal_stream_i32(&at, &st_s);
    const size_t off_v = V.temporal_stream_i32(&at, &st_v);
    EXPECT_EQ(off_s, off_v) << what << " from " << c0;
    EXPECT_EQ(st_s.empty, st_v.empty) << what << " from " << c0;
    if (st_s.empty == 0) {
      EXPECT_EQ(st_s.reg, st_v.reg) << what << " from " << c0;
      EXPECT_EQ(st_s.exp, st_v.exp) << what << " from " << c0;
    }
    EXPECT_EQ(st_s.overflowed, st_v.overflowed) << what << " from " << c0;
    EXPECT_EQ(st_s.ops, st_v.ops) << what << " from " << c0;
    EXPECT_EQ(st_s.cycles, st_v.cycles) << what << " from " << c0;
    EXPECT_EQ(st_s.masked_products, st_v.masked_products) << what;
    EXPECT_EQ(st_s.multi_cycle_iterations, st_v.multi_cycle_iterations)
        << what;
    EXPECT_EQ(st_s.skipped_iterations, st_v.skipped_iterations) << what;
    EXPECT_TRUE(off_s == at.len || off_s % chunk == 0) << what;
    c0 += off_s;
    if (c0 >= ops.len) break;
    stops.push_back(c0);
    c0 += chunk;  // the driver serves this op on the scalar oracle
  }
  return stops;
}

TEST(SimdKernels, TemporalStreamMatchesScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "this host has no AVX2";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(14);
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t len : {1, 11, 16, 27, 144}) {
      for (size_t chunk = 1; chunk <= simd::kFusedLanes; ++chunk) {
        for (int trial = 0; trial < 8; ++trial) {
          StreamOperands ops = random_stream(rng, len);
          StreamConfig cfg;
          cfg.mc = trial % 2 == 0;
          // MC windows start at 10 (sp >= 1); single-cycle ones go down to
          // 4 (negative guard, every product shifted down).
          cfg.w = static_cast<int>(rng.uniform_int(cfg.mc ? 10 : 4, 33));
          cfg.soft = static_cast<int>(rng.uniform_int(0, 80));
          cfg.skip_empty_bands = trial % 4 < 2;
          cfg.skip_zero_iterations = trial % 3 == 0;
          simd::TemporalStreamState st = fresh_state();
          const size_t n_ops = (len + chunk - 1) / chunk;
          const size_t mid = (n_ops / 2) * chunk;  // a mid-stream op start
          const size_t mid_n = std::min(chunk, len - mid);
          std::string what = "len=" + std::to_string(len) +
                             " chunk=" + std::to_string(chunk) + " trial " +
                             std::to_string(trial) + " w=" +
                             std::to_string(cfg.w) + " soft=" +
                             std::to_string(cfg.soft) +
                             (cfg.mc ? " mc" : " sc");
          switch (trial) {
            case 0:  // leading all-zero ops on an empty accumulator
              for (size_t k = 0; k < std::min(len, 2 * chunk); ++k) {
                for (int i = 0; i < 3; ++i) ops.a_nib[i * len + k] = 0;
              }
              break;
            case 1: {  // a mid-stream EHU spread of 2^16 or more
              ops.b_exp[mid + mid_n - 1] = -70000;
              const auto stops =
                  expect_stream_equal(S, V, ops, cfg, chunk, st, what);
              // One lane alone has no spread.
              ASSERT_EQ(stops.size(), mid_n > 1 ? 1u : 0u) << what;
              if (mid_n > 1) {
                EXPECT_EQ(stops[0], mid) << what;
              }
              continue;
            }
            case 2: {  // a mid-stream op with more than kMaxBands bands
              cfg.w = 10;  // sp = 1: a spread of 8 needs 9 bands
              cfg.soft = 80;
              for (size_t k = 0; k < len; ++k) {
                ops.a_exp[k] = 0;
                ops.b_exp[k] = static_cast<int32_t>(k % 3);  // spread 2
              }
              ops.b_exp[mid + mid_n - 1] = -40;
              if (mid_n == 1) ops.b_exp[mid] = 0;  // needs two lanes
              const auto stops =
                  expect_stream_equal(S, V, ops, cfg, chunk, st, what);
              ASSERT_EQ(stops.size(), mid_n > 1 ? 1u : 0u) << what;
              if (mid_n > 1) {
                EXPECT_EQ(stops[0], mid) << what;
              }
              continue;
            }
            case 3:  // a non-empty register below and above the op exponents
              st.empty = 0;
              st.exp = static_cast<int32_t>(rng.uniform_int(-60, 40));
              st.reg = static_cast<int64_t>(rng.uniform_int(-(1LL << 40),
                                                            1LL << 40));
              break;
            case 4:  // masked lanes: a narrow software precision
              cfg.soft = static_cast<int>(rng.uniform_int(0, 6));
              break;
            case 5:  // a register near saturation: clamp order and the flag
            case 6: {
              const int64_t hi = (int64_t{1} << (cfg.register_width - 1)) - 1;
              st.empty = 0;
              st.exp = 40;  // above every op: each add shifts down
              st.reg = trial == 5 ? hi - 3 : -hi + 2;
              break;
            }
            default:  // a narrow register and fraction: clamps and floors
              cfg.frac_bits = 4;
              cfg.register_width = 20;
              break;
          }
          expect_stream_equal(S, V, ops, cfg, chunk, st, what);
        }
      }
    }
  }
}

// Adversarial bound: 16 same-sign lanes at the largest nibble product (225)
// shifted up by the largest guard the stream kernel admits.  Each lane value
// sits just inside int32; the 16-lane sum does not, so it must come back
// exact from the int64 band sums, and the register must hold nine of them.
TEST(SimdKernels, TemporalStreamExactAtLaneBound) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "this host has no AVX2";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  constexpr size_t n = simd::kFusedLanes;
  constexpr int g = simd::kNibbleFusedMaxGuard;
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (int sign : {1, -1}) {
      for (bool mc : {true, false}) {
        StreamOperands ops;
        ops.len = n;
        ops.a_exp.assign(n, 3);
        ops.b_exp.assign(n, -2);
        ops.a_nib.assign(3 * n, static_cast<int8_t>(15 * sign));
        ops.b_nib.assign(3 * n, 15);
        StreamConfig cfg;
        cfg.w = g + 10;
        cfg.mc = mc;
        simd::TemporalStreamArgs args = cfg.args(ops, n);
        // Every add unscaled, so the register is the sum of the nine trees.
        std::fill(cfg.rescale.begin(), cfg.rescale.end(), 0);
        for (const KernelTable* T : {&S, &V}) {
          simd::TemporalStreamState st = fresh_state();
          ASSERT_EQ(T->temporal_stream_i32(&args, &st), n);
          const int64_t lane = int64_t{225} << g;
          ASSERT_LE(lane, int64_t{INT32_MAX});
          EXPECT_EQ(st.reg, sign * 9 * 16 * lane)
              << (T == &S ? "scalar" : simd::backend_name(b));
          EXPECT_EQ(st.exp, 1);
          EXPECT_EQ(st.overflowed, 0);
          EXPECT_EQ(st.cycles, 9);
        }
      }
    }
  }
}

TEST(SimdKernels, SerialKernelsMatchScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "this host has no AVX2";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(15);
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t n : kSizes) {
      for (int trial = 0; trial < 20; ++trial) {
        const auto a_sm = random_i32(rng, n, -2047, 2047);
        const auto b_sm = random_i32(rng, n, -2047, 2047);
        std::vector<uint32_t> mag_s(n), mag_v(n);
        std::vector<int32_t> p_s(n), p_v(n);
        S.serial_lanes_i32(a_sm.data(), b_sm.data(), n, mag_s.data(), p_s.data());
        V.serial_lanes_i32(a_sm.data(), b_sm.data(), n, mag_v.data(), p_v.data());
        EXPECT_EQ(mag_s, mag_v);
        EXPECT_EQ(p_s, p_v);

        const auto up = random_i32(rng, n, 0, simd::kSerialFusedMaxGuard);
        const auto down = random_i32(rng, n, 0, trial % 2 == 0 ? 0 : 13);
        std::vector<int32_t> v_s(n), v_v(n);
        S.shifted_lanes_i32(p_s.data(), up.data(), down.data(), n, v_s.data());
        V.shifted_lanes_i32(p_s.data(), up.data(), down.data(), n, v_v.data());
        EXPECT_EQ(v_s, v_v);
      }
    }
  }
}

/// Runs the serial fused kernel on both tables and asserts identical sums
/// (slots of bands c < bands).
void expect_serial_fused_equal(const KernelTable& S, const KernelTable& V,
                               const std::vector<int32_t>& v,
                               const std::vector<uint32_t>& mag,
                               const std::vector<int32_t>& band, size_t n,
                               int bands, int64_t* s_s) {
  int64_t s_v[simd::kMaxBands * simd::kSerialSteps];
  S.serial_fused_i32(v.data(), mag.data(), band.data(), n, bands, s_s);
  V.serial_fused_i32(v.data(), mag.data(), band.data(), n, bands, s_v);
  for (int i = 0; i < bands * simd::kSerialSteps; ++i) {
    EXPECT_EQ(s_s[i], s_v[i]) << "slot " << i << " n=" << n;
  }
}

TEST(SimdKernels, SerialFusedMatchesScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "this host has no AVX2";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(16);
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t n : kFusedSizes) {
      for (int trial = 0; trial < 30; ++trial) {
        const int bands = static_cast<int>(rng.uniform_int(1, simd::kMaxBands));
        // Lane values below 2^16 in magnitude on even trials, any int32
        // on odd ones; mag < 2^13, zero pads.
        const int64_t vmax = trial % 2 == 0 ? 0xFFFF : INT32_MAX;
        const auto v = random_i32(rng, n, trial % 2 == 0 ? -vmax : INT32_MIN,
                                  vmax, simd::kFusedLanes);
        std::vector<uint32_t> mag(simd::kFusedLanes, 0);
        for (size_t k = 0; k < n; ++k) {
          mag[k] = static_cast<uint32_t>(rng.uniform_int(0, (1 << 13) - 1));
        }
        const auto band =
            random_bands(rng, n, bands, simd::kFusedLanes, trial == 1);
        int64_t s_s[simd::kMaxBands * simd::kSerialSteps];
        expect_serial_fused_equal(S, V, v, mag, band, n, bands, s_s);
      }
    }
  }
}

// Adversarial bound: 16 same-sign lanes at the largest serial multiplicand
// (|p| = 2047) shifted up by the largest guard the serial driver admits,
// with every weight bit set.  shifted_lanes_i32 must keep each lane exact
// in int32 and the fused sums must carry the 16-lane total in int64.
TEST(SimdKernels, SerialFusedExactAtLaneBound) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "this host has no AVX2";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  constexpr size_t n = simd::kFusedLanes;
  constexpr int g = simd::kSerialFusedMaxGuard;
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (int sign : {1, -1}) {
      for (int bands : {1, simd::kMaxBands}) {
        const std::vector<int32_t> p(n, sign * 2047), up(n, g), down(n, 0);
        std::vector<int32_t> v(n), v_v(n);
        S.shifted_lanes_i32(p.data(), up.data(), down.data(), n, v.data());
        V.shifted_lanes_i32(p.data(), up.data(), down.data(), n, v_v.data());
        EXPECT_EQ(v, v_v);
        const int64_t lane = int64_t{2047} << g;
        ASSERT_LE(lane, int64_t{INT32_MAX});
        EXPECT_EQ(v[0], sign * lane);

        const std::vector<uint32_t> mag(n, (1u << simd::kSerialSteps) - 1);
        const std::vector<int32_t> band(n, bands - 1);
        int64_t s_s[simd::kMaxBands * simd::kSerialSteps];
        expect_serial_fused_equal(S, V, v, mag, band, n, bands, s_s);
        for (int c = 0; c < bands; ++c) {
          for (int t = 0; t < simd::kSerialSteps; ++t) {
            EXPECT_EQ(s_s[c * simd::kSerialSteps + t],
                      c == bands - 1 ? sign * 16 * lane : 0)
                << "band " << c << " step " << t;
          }
        }
      }
    }
  }
}

/// Runs the spatial fused kernel on both tables and asserts identical
/// verdicts, band spans, occupancy and (when the op is accepted) sums of
/// bands c <= max_band.  Returns the scalar verdict.
bool expect_spatial_fused_equal(const KernelTable& S, const KernelTable& V,
                                const int8_t* a, const int8_t* b,
                                size_t stride,
                                const std::vector<int32_t>& align,
                                const std::vector<int32_t>& band, size_t n,
                                int32_t sp, int32_t guard, int single_cycle,
                                int32_t window, int64_t* s_s, int32_t* mb_s) {
  constexpr int32_t kOffs0 = 16;  // FP16: top_weight + 2 * pad bits
  int64_t s_v[simd::kMaxBands];
  int32_t mb_v = 0;
  uint32_t occ_s = 0, occ_v = 0;
  const bool ok_s = S.spatial_fused_i32(a, stride, b, stride, align.data(),
                                        band.data(), n, kOffs0, sp, guard,
                                        single_cycle, window, s_s, mb_s,
                                        &occ_s);
  const bool ok_v = V.spatial_fused_i32(a, stride, b, stride, align.data(),
                                        band.data(), n, kOffs0, sp, guard,
                                        single_cycle, window, s_v, &mb_v,
                                        &occ_v);
  EXPECT_EQ(ok_s, ok_v) << "n=" << n << " sp=" << sp;
  EXPECT_EQ(*mb_s, mb_v) << "n=" << n << " sp=" << sp;
  EXPECT_EQ(occ_s, occ_v) << "n=" << n << " sp=" << sp;
  if (ok_s && ok_v) {
    for (int c = 0; c <= std::max(*mb_s, 0); ++c) {
      EXPECT_EQ(s_s[c], s_v[c]) << "band " << c << " n=" << n
                                << " sp=" << sp << " sc=" << single_cycle;
    }
  }
  return ok_s;
}

TEST(SimdKernels, SpatialFusedMatchesScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "this host has no AVX2";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(17);
  constexpr size_t kStride = 32;
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t n : kFusedSizes) {
      int accepted = 0, multi_band = 0;
      for (int trial = 0; trial < 60; ++trial) {
        const int single_cycle = trial % 2;
        // Every third trial runs the largest admitted guard, so up-shifts
        // reach kSpatialFusedMaxGuard; sp = guard + 1 as in SpatialIpu.
        const int32_t guard =
            trial % 3 == 0 ? simd::kSpatialFusedMaxGuard
                           : static_cast<int32_t>(rng.uniform_int(
                                 0, simd::kSpatialFusedMaxGuard));
        const int32_t sp = guard + 1;
        // SpatialIpu's window is guard + 10, where a down-shift of 8 or more
        // already floors every nibble product to 0 or -1; narrower windows
        // make the single-cycle clamp min(shift, window) visible.
        const int32_t window =
            guard + static_cast<int32_t>(rng.uniform_int(0, 10));
        std::vector<int8_t> a(3 * kStride), bb(3 * kStride);
        for (auto& x : a) x = static_cast<int8_t>(rng.uniform_int(-15, 15));
        for (auto& x : bb) x = static_cast<int8_t>(rng.uniform_int(-15, 15));
        if (trial == 2) {
          for (int i = 0; i < 3; ++i) std::memset(a.data() + i * kStride, 0, n);
        }
        // Alignments that keep most MC ops within kMaxBands bands; every
        // fifth trial spans the whole EHU range (mostly the bail path).
        const int64_t amax =
            trial % 5 == 4 ? 0xFFFF
                           : std::max<int64_t>(8 * int64_t{sp} - 17, 0);
        const auto align = random_i32(rng, n, 0, amax, simd::kFusedLanes);
        // Trials 1 (single-cycle) and 6 (MC) mask every lane.
        const bool all_masked = trial == 1 || trial == 6;
        const auto band =
            random_bands(rng, n, 4, simd::kFusedLanes, all_masked);
        int64_t s_s[simd::kMaxBands];
        int32_t mb_s = 0;
        if (expect_spatial_fused_equal(S, V, a.data(), bb.data(), kStride,
                                       align, band, n, sp, guard,
                                       single_cycle, window, s_s, &mb_s)) {
          ++accepted;
          if (mb_s > 0) ++multi_band;
        }
        if (all_masked) {
          EXPECT_EQ(mb_s, -1);
        }
        if (single_cycle) {
          EXPECT_LE(mb_s, 0);
        }
      }
      // The sweep must exercise both the sums and multi-band MC ops.
      EXPECT_GT(accepted, 30) << "n=" << n;
      EXPECT_GT(multi_band, 5) << "n=" << n;
    }
  }
}

// Adversarial bound: 16 same-sign lanes whose middle diagonal holds the
// largest value (3 * 225) shifted up by the largest guard the spatial
// driver admits.  Each lane value sits just inside int32; the 16-lane sums
// do not, so they must come back exact from the int64 band sums on every
// backend, equal to the hand-computed totals.
TEST(SimdKernels, SpatialFusedExactAtLaneBound) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "this host has no AVX2";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  constexpr size_t kStride = 32;
  constexpr size_t n = simd::kFusedLanes;
  constexpr int g = simd::kSpatialFusedMaxGuard;
  constexpr int sp = g + 1;
  const int64_t top = int64_t{675} << g;
  ASSERT_LE(top, int64_t{INT32_MAX});
  ASSERT_GT(int64_t{675} << (g + 1), int64_t{INT32_MAX});
  // Diagonal s holds (1, 2, 3, 2, 1)[s] products of 15 * 15.
  auto diag = [](int s) { return int64_t{225} * (s == 2 ? 3 : s % 2 ? 2 : 1); };
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (int sign : {1, -1}) {
      const std::vector<int8_t> a(3 * kStride, static_cast<int8_t>(15 * sign));
      const std::vector<int8_t> bb(3 * kStride, 15);
      const std::vector<int32_t> band(n, 0);
      // MC: align = 14 + 6*sp puts diagonal 2 at shift 7*sp (local 0, up
      // g) and spreads the op over bands 6 and 7 = kMaxBands - 1, so the
      // lower slots must come back zero.
      for (int base : {0, 6}) {
        const std::vector<int32_t> align(n, 14 + base * sp);
        int64_t s_s[simd::kMaxBands];
        int32_t mb = 0;
        ASSERT_TRUE(expect_spatial_fused_equal(S, V, a.data(), bb.data(),
                                               kStride, align, band, n, sp,
                                               g, 0, g + 10, s_s, &mb));
        ASSERT_EQ(mb, base + 1);
        int64_t want[simd::kMaxBands] = {};
        for (int s = 0; s < 5; ++s) {
          const int shift = 14 + base * sp + 16 - 4 * s;
          want[shift / sp] += 16 * sign * (diag(s) << (g - shift % sp));
        }
        EXPECT_EQ(want[base + 1],
                  16 * sign * ((225 << 13) + (int64_t{450} << 17) + top));
        for (int c = 0; c <= mb; ++c) EXPECT_EQ(s_s[c], want[c]) << c;
      }
      // Single-cycle: align 0 puts diagonal 4 at shift 0 (up g) and
      // diagonal 2 at shift 8 (up g - 8); every diagonal serves band 0.
      const std::vector<int32_t> align(n, 0);
      int64_t s_s[simd::kMaxBands];
      int32_t mb = 0;
      ASSERT_TRUE(expect_spatial_fused_equal(S, V, a.data(), bb.data(),
                                             kStride, align, band, n, sp, g,
                                             1, g + 10, s_s, &mb));
      ASSERT_EQ(mb, 0);
      EXPECT_EQ(s_s[0], 16 * sign *
                            ((225 << 5) + (450 << 9) + (int64_t{675} << 13) +
                             (int64_t{450} << 17) + (int64_t{225} << g)));
    }
  }
}

TEST(SimdKernels, IntKernelsMatchScalar) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "this host has no AVX2";
  const KernelTable& S = *simd::kernels_for(Backend::kScalar);
  Rng rng(18);
  for (Backend b : vecs) {
    const KernelTable& V = *simd::kernels_for(b);
    for (size_t n : kSizes) {
      for (int trial = 0; trial < 20; ++trial) {
        const auto pa = random_nibbles(rng, n, trial == 0);
        const auto pb = random_nibbles(rng, n, trial == 0);
        EXPECT_EQ(S.dot_i8(pa.data(), pb.data(), n),
                  V.dot_i8(pa.data(), pb.data(), n));
        const auto a = random_i32(rng, n, -4095, 4095);
        const auto bits = random_i32(rng, n, 0, (1 << 12) - 1);
        const int t = static_cast<int>(rng.uniform_int(0, 11));
        EXPECT_EQ(S.bit_masked_sum_i32(a.data(), bits.data(), t, n),
                  V.bit_masked_sum_i32(a.data(), bits.data(), t, n));
      }
    }
  }
}

// --- cycle-simulator randomness (sim/sampler.h) -----------------------------

/// The scalar backend plus this host's vector backend, if any.
std::vector<Backend> all_backends() {
  std::vector<Backend> b{Backend::kScalar};
  for (Backend v : vector_backends()) b.push_back(v);
  return b;
}

/// std::mt19937_64's seeding ([rand.eng.mers]): the refill kernels' input.
std::vector<uint64_t> mt64_seeded_state(uint64_t seed) {
  std::vector<uint64_t> x(simd::kMt64Words);
  x[0] = seed;
  for (size_t i = 1; i < x.size(); ++i) {
    x[i] = 6364136223846793005ULL * (x[i - 1] ^ (x[i - 1] >> 62)) + i;
  }
  return x;
}

constexpr uint64_t kMt64Seeds[] = {0, 1, 5489, 0x5eed5eed1234ULL, ~0ULL};

TEST(SimdKernels, Mt64RefillMatchesStdEngine) {
  constexpr size_t kWords = 100000;
  for (Backend b : all_backends()) {
    const KernelTable& K = *simd::kernels_for(b);
    for (uint64_t seed : kMt64Seeds) {
      std::mt19937_64 want(seed);
      std::vector<uint64_t> state = mt64_seeded_state(seed);
      std::vector<uint64_t> out(simd::kMt64Words);
      for (size_t i = 0; i < kWords;) {
        K.mt19937_64_refill(state.data(), out.data());
        for (size_t k = 0; k < out.size() && i < kWords; ++k, ++i) {
          ASSERT_EQ(out[k], want())
              << simd::backend_name(b) << " seed " << seed << " word " << i;
        }
      }
    }
  }
}

TEST(SimSampler, StreamIsStdMt19937_64OnEveryBackend) {
  BackendGuard guard;
  for (Backend b : all_backends()) {
    ASSERT_TRUE(simd::force_backend(b));
    // The standard's check value ([rand.predef]): the 10000th output of a
    // default-seeded mt19937_64.
    Mt64Stream s(5489);
    for (int i = 1; i < 10000; ++i) s.next();
    EXPECT_EQ(s.next(), 9981545732273789042ULL) << simd::backend_name(b);
    for (uint64_t seed : kMt64Seeds) {
      Mt64Stream got(seed);
      std::mt19937_64 want(seed);
      for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(got.next(), want())
            << simd::backend_name(b) << " seed " << seed << " word " << i;
      }
    }
  }
}

/// A generator with mt19937_64's range that returns one fixed word.
struct FixedWord {
  using result_type = uint64_t;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() const { return word; }
  result_type word;
};

bool bernoulli_on(double p, uint64_t word) {
  FixedWord g{word};
  return std::bernoulli_distribution(p)(g);
}

TEST(SimSampler, ThresholdDrawsMatchBernoulliDistribution) {
  std::vector<double> ps = {0.0,  0x1p-64, 0.25, 0.45, 0.5,
                            0.52, 0.72,    0.75, 0.84, std::nextafter(1.0, 0.0),
                            1.0};
  // p * 2^64 an exact integer, and the doubles one ulp either side.
  for (double exact : {0x1p-64, 3 * 0x1p-63, 12345 * 0x1p-40, 0x1p-11,
                       0x1p-1, 0x1.8p-1, 1 - 0x1p-53, 1 - 0x1p-52}) {
    ps.push_back(std::nextafter(exact, 0.0));
    ps.push_back(exact);
    ps.push_back(std::nextafter(exact, 1.0));
  }
  for (size_t i = 0; i < ps.size(); ++i) {
    const double p = ps[i];
    const DrawThreshold t = DrawThreshold::of(p, "p");
    // The same word stream through the threshold and through the library.
    std::mt19937_64 words(1000 + i);
    std::mt19937_64 engine(1000 + i);
    std::bernoulli_distribution d(p);
    for (int k = 0; k < 1000000; ++k) {
      const uint64_t x = words();
      ASSERT_EQ(t.accepts(x), d(engine)) << "p=" << p << " word " << x;
    }
    // Random words almost never land next to the threshold: check it there.
    for (uint64_t x : {uint64_t{0}, t.below - 1, t.below, t.below + 1,
                       ~uint64_t{0}}) {
      EXPECT_EQ(t.accepts(x), bernoulli_on(p, x))
          << "p=" << p << " word " << x;
    }
  }
  EXPECT_FALSE(DrawThreshold::of(0.0, "p").accepts(0));
  EXPECT_TRUE(DrawThreshold::of(1.0, "p").accepts(~uint64_t{0}));
}

// --- datapath-level equality -------------------------------------------------

std::vector<Fp16> random_fp16_bits(Rng& rng, int n) {
  std::vector<Fp16> v;
  while (static_cast<int>(v.size()) < n) {
    const Fp16 f = Fp16::from_bits(static_cast<uint32_t>(rng.next_u64()));
    if (f.is_finite()) v.push_back(f);
  }
  return v;
}

constexpr auto kAllSchemes = {DecompositionScheme::kTemporal,
                              DecompositionScheme::kSerial,
                              DecompositionScheme::kSpatial};

/// Runs the same FP16 op sequence scalar-forced and vector-forced on fresh
/// units and asserts bit-identical values, cycles and stats.
void diff_fp16_config(const DatapathConfig& cfg, Backend vec, uint64_t seed) {
  // Generate the op sequence once (lengths ragged against n_inputs, raw
  // FP16 bit patterns for full exponent spread -- this drives both the
  // fused fast paths and their wide-spread scalar-oracle fallbacks).
  Rng rng(seed);
  struct Op {
    std::vector<Fp16> a, b;
  };
  std::vector<Op> ops;
  for (int t = 0; t < 60; ++t) {
    const int len = static_cast<int>(rng.uniform_int(1, cfg.n_inputs));
    ops.push_back({random_fp16_bits(rng, len), random_fp16_bits(rng, len)});
  }

  BackendGuard guard;
  ASSERT_TRUE(simd::force_backend(Backend::kScalar));
  auto ref = make_datapath(cfg);
  std::vector<DotResult> want;
  for (const Op& op : ops) want.push_back(ref->dot(op.a, op.b));
  const DatapathStats want_stats = ref->stats();

  ASSERT_TRUE(simd::force_backend(vec));
  auto dut = make_datapath(cfg);
  for (size_t i = 0; i < ops.size(); ++i) {
    const DotResult got = dut->dot(ops[i].a, ops[i].b);
    ASSERT_TRUE(got.raw == want[i].raw)
        << simd::backend_name(vec) << " vs scalar: value mismatch, op " << i
        << ", scheme " << scheme_name(cfg.scheme) << ", w="
        << cfg.adder_tree_width << ", sp=" << cfg.software_precision
        << ", mc=" << cfg.multi_cycle;
    ASSERT_EQ(got.cycles, want[i].cycles)
        << simd::backend_name(vec) << " vs scalar: cycle mismatch, op " << i
        << ", scheme " << scheme_name(cfg.scheme) << ", w="
        << cfg.adder_tree_width;
  }
  EXPECT_TRUE(dut->stats() == want_stats)
      << "stats diverged on " << scheme_name(cfg.scheme);
}

TEST(SimdDatapath, Fp16BitIdenticalAcrossBackends) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "this host has no AVX2";
  uint64_t seed = 100;
  for (Backend vec : vecs) {
    for (auto scheme : kAllSchemes) {
      // 31 is the last width inside the spatial fused kernel's lane bound
      // (guard w - 10 <= 21), 32 the first outside.  33 is the last inside
      // the temporal and serial bounds (guard w - 10 <= 23, w - 13 <= 20),
      // 34 the first outside.  Outside its bound a scheme takes the scalar
      // oracle on both backends.  Single-cycle windows below 10 (negative
      // guard, every product shifted down) run fused too.
      for (int w : {4, 10, 13, 16, 28, 31, 32, 33, 34, 38}) {
        for (bool mc : {true, false}) {
          for (int sp : {16, 28}) {
            DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
            cfg.n_inputs = 16;
            cfg.adder_tree_width = w;
            cfg.software_precision = sp;
            cfg.multi_cycle = mc;
            diff_fp16_config(cfg, vec, ++seed);
          }
        }
      }
      // Ops of up to 32 lanes: those past kFusedLanes take the oracle.
      DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
      cfg.n_inputs = 32;
      diff_fp16_config(cfg, vec, ++seed);
    }
  }
}

TEST(SimdDatapath, Fp16SkipFlagsBitIdentical) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "this host has no AVX2";
  uint64_t seed = 900;
  for (Backend vec : vecs) {
    for (auto scheme : kAllSchemes) {
      for (int w : {16, 28}) {
        for (bool mc : {true, false}) {
          DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
          cfg.n_inputs = 16;
          cfg.adder_tree_width = w;
          cfg.software_precision = 28;
          cfg.multi_cycle = mc;
          cfg.skip_empty_bands = true;
          cfg.skip_zero_iterations = scheme == DecompositionScheme::kTemporal;
          diff_fp16_config(cfg, vec, ++seed);
        }
      }
    }
  }
}

TEST(SimdDatapath, IntModesBitIdenticalAcrossBackends) {
  const auto vecs = vector_backends();
  if (vecs.empty()) GTEST_SKIP() << "this host has no AVX2";
  Rng rng(200);
  for (Backend vec : vecs) {
    for (auto scheme : kAllSchemes) {
      for (auto [a_bits, b_bits] :
           {std::pair{8, 8}, std::pair{4, 4}, std::pair{8, 4}}) {
        DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
        cfg.n_inputs = 16;
        cfg.adder_tree_width = 28;
        {
          auto probe = make_datapath(cfg);
          if (!probe->supports_int(a_bits, b_bits)) continue;
        }
        struct Op {
          std::vector<int32_t> a, b;
        };
        std::vector<Op> ops;
        for (int t = 0; t < 40; ++t) {
          const int len = static_cast<int>(rng.uniform_int(1, cfg.n_inputs));
          Op op;
          const int64_t amax = (1 << (a_bits - 1)) - 1;
          const int64_t bmax = (1 << (b_bits - 1)) - 1;
          op.a = random_i32(rng, static_cast<size_t>(len), -amax, amax);
          op.b = random_i32(rng, static_cast<size_t>(len), -bmax, bmax);
          ops.push_back(std::move(op));
        }

        BackendGuard guard;
        ASSERT_TRUE(simd::force_backend(Backend::kScalar));
        auto ref = make_datapath(cfg);
        std::vector<std::pair<int64_t, int>> want;
        for (const Op& op : ops) {
          const int cycles = ref->int_accumulate(op.a, op.b, a_bits, b_bits);
          want.push_back({ref->read_int(), cycles});
        }
        const DatapathStats want_stats = ref->stats();

        ASSERT_TRUE(simd::force_backend(vec));
        auto dut = make_datapath(cfg);
        for (size_t i = 0; i < ops.size(); ++i) {
          const int cycles =
              dut->int_accumulate(ops[i].a, ops[i].b, a_bits, b_bits);
          ASSERT_EQ(dut->read_int(), want[i].first)
              << scheme_name(scheme) << " INT" << a_bits << "x" << b_bits
              << " op " << i;
          ASSERT_EQ(cycles, want[i].second)
              << scheme_name(scheme) << " INT" << a_bits << "x" << b_bits
              << " op " << i;
        }
        EXPECT_TRUE(dut->stats() == want_stats);
      }
    }
  }
}

}  // namespace
}  // namespace mpipu
