#include "core/serial_ipu.h"

#include <algorithm>
#include <cassert>

#include "core/simd/simd.h"

namespace mpipu {

SerialIpu::SerialIpu(const DatapathConfig& cfg)
    : Datapath(cfg, DecompositionScheme::kSerial) {}

int SerialIpu::fp_accumulate(std::span<const Fp16> a, std::span<const Fp16> b) {
  assert(a.size() == b.size());
  assert(static_cast<int>(a.size()) <= cfg_.n_inputs);
  const size_t n = a.size();
  constexpr FpFormat F = kFp16Format;
  constexpr int kSteps = 12;  // 11 magnitude bits + 1 pad (implicit shift)

  std::vector<Decoded> da(n), db(n);
  for (size_t k = 0; k < n; ++k) {
    da[k] = a[k].decode();
    db[k] = b[k].decode();
  }

  EhuOptions eopts;
  eopts.software_precision = cfg_.software_precision;
  eopts.safe_precision = std::max(cfg_.safe_precision(), 1);
  const EhuResult ehu = run_ehu(da, db, eopts);

  const int w = cfg_.effective_adder_tree_width();
  const int guard = window_guard();
  const int sp = cfg_.safe_precision();
  const bool single_cycle = !cfg_.multi_cycle;
  const int bands = single_cycle ? 1 : ehu.mc_cycles;

  // Weight magnitude padded left by one (same trick as the nibble IPU's N0
  // trailing zero): bit t of (mag << 1) carries weight 2^(t - 1).
  for (int t = 0; t < kSteps; ++t) {
    // value(step) = sum_k sm_a[k] * bit_t(mag_b[k]<<1) * sgn_b * 2^(t-1)
    //               * 2^(E_k - 2*man_bits)  aligned to max_exp.
    const int base_rescale =
        (t - 1) - 2 * F.man_bits - guard + acc_.config().frac_bits;
    for (int c = 0; c < bands; ++c) {
      int128 tree_sum = 0;
      for (size_t k = 0; k < n; ++k) {
        if (ehu.masked[k]) continue;
        if (!single_cycle && ehu.band[k] != c) continue;
        const uint32_t padded = static_cast<uint32_t>(db[k].magnitude) << 1;
        if (((padded >> t) & 1u) == 0) continue;
        const int32_t p = db[k].sign ? -da[k].signed_magnitude()
                                     : da[k].signed_magnitude();
        const int local_shift =
            single_cycle ? std::min(ehu.align[k], w) : ehu.align[k] - c * sp;
        const int net_shift = guard - local_shift;
        tree_sum += net_shift >= 0 ? shl(p, net_shift) : asr(p, -net_shift);
      }
      const int rescale = base_rescale - (single_cycle ? 0 : c * sp);
      acc_.add(rescale >= 0 ? shl(tree_sum, rescale) : asr(tree_sum, -rescale),
               ehu.max_exp);
    }
  }

  const int cycles = kSteps * bands;
  ++stats_.fp_ops;
  stats_.cycles += cycles;
  return cycles;
}

template <typename TreeInt>
int SerialIpu::run_prepared_fp16(const PreparedFp16View& a,
                                 const PreparedFp16View& b) {
  const size_t n = a.n;
  constexpr FpFormat F = kFp16Format;
  constexpr int kSteps = 12;  // 11 magnitude bits + 1 pad (implicit shift)

  EhuOptions eopts;
  eopts.software_precision = cfg_.software_precision;
  eopts.safe_precision = std::max(cfg_.safe_precision(), 1);
  run_ehu(std::span<const int32_t>(a.exp, n), std::span<const int32_t>(b.exp, n),
          eopts, ehu_);

  const int guard = window_guard();
  const int sp = cfg_.safe_precision();
  const bool single_cycle = !cfg_.multi_cycle;
  const int bands = single_cycle ? 1 : ehu_.mc_cycles;
  sched_.build(ehu_, bands, single_cycle, guard, sp, cfg_.effective_adder_tree_width());

  // Per-lane constants for the whole op: the padded weight magnitude whose
  // bits stream serially, and the multiplicand with the weight sign folded
  // in.  A zero weight magnitude never sets a bit, so losing the sign of a
  // signed zero is harmless.
  padded_mag_.resize(n);
  lane_p_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    const int32_t smb = b.signed_mag[k];
    padded_mag_[k] = static_cast<uint32_t>(smb < 0 ? -smb : smb) << 1;
    lane_p_[k] = smb < 0 ? -a.signed_mag[k] : a.signed_mag[k];
  }

  const int frac_bits = acc_.config().frac_bits;
  for (int t = 0; t < kSteps; ++t) {
    const int base_rescale = (t - 1) - 2 * F.man_bits - guard + frac_bits;
    for (int c = 0; c < bands; ++c) {
      TreeInt tree_sum = 0;
      const int32_t* lane = sched_.order.data() + sched_.begin[static_cast<size_t>(c)];
      const int32_t* lane_end = sched_.order.data() + sched_.begin[static_cast<size_t>(c) + 1];
      for (; lane != lane_end; ++lane) {
        const auto k = static_cast<size_t>(*lane);
        if (((padded_mag_[k] >> t) & 1u) == 0) continue;
        const int s = sched_.net_shift[k];
        tree_sum += s >= 0 ? static_cast<TreeInt>(lane_p_[k]) << s
                           : static_cast<TreeInt>(lane_p_[k] >> -s);
      }
      const int rescale = base_rescale - (single_cycle ? 0 : c * sp);
      const auto tree128 = static_cast<int128>(tree_sum);
      acc_.add(rescale >= 0 ? shl(tree128, rescale) : asr(tree128, -rescale),
               ehu_.max_exp);
    }
  }

  const int cycles = kSteps * bands;
  ++stats_.fp_ops;
  stats_.cycles += cycles;
  return cycles;
}

int SerialIpu::run_prepared_fp16_oracle(const PreparedFp16View& a,
                                        const PreparedFp16View& b) {
  // 12-bit multiplicands shifted up to window_guard and summed over n lanes.
  const int tree_bits = std::max(window_guard(), 0) + 12 +
                        ceil_log2(std::max(cfg_.n_inputs, 1)) + 1;
  return tree_bits <= 62 ? run_prepared_fp16<int64_t>(a, b)
                         : run_prepared_fp16<int128>(a, b);
}

int SerialIpu::run_prepared_fp16_fused(const PreparedFp16View& a,
                                       const PreparedFp16View& b) {
  const size_t n = a.n;
  constexpr FpFormat F = kFp16Format;
  constexpr int kSteps = simd::kSerialSteps;
  const simd::KernelTable& K = simd::kernels();

  const int guard = window_guard();
  const int sp = cfg_.safe_precision();
  const bool single_cycle = !cfg_.multi_cycle;

  falign_.resize(simd::kFusedLanes);
  fband_.resize(simd::kFusedLanes);
  int32_t max_exp, max_band, n_masked;
  uint32_t occ;
  if (!K.ehu_fused_i32(a.exp, b.exp, n, cfg_.software_precision,
                       std::max(sp, 1), falign_.data(), fband_.data(), &max_exp,
                       &occ, &max_band, &n_masked)) {
    return run_prepared_fp16_oracle(a, b);
  }
  // Single-cycle mode serves every unmasked lane in one band.
  const int bands = single_cycle ? 1 : std::max(max_band, 0) + 1;
  if (bands > simd::kMaxBands) return run_prepared_fp16_oracle(a, b);

  // Serve planes padded through kFusedLanes (band -1, values 0) so the
  // fused kernel can run whole 16-lane registers.
  for (size_t k = n; k < simd::kFusedLanes; ++k) {
    falign_[k] = 0;
    fband_[k] = -1;
  }
  serve_band_.resize(simd::kFusedLanes);
  up_.resize(simd::kFusedLanes);
  down_.resize(simd::kFusedLanes);
  K.serve_shifts_i32(falign_.data(), fband_.data(), simd::kFusedLanes, guard,
                     sp, single_cycle ? 1 : 0, cfg_.effective_adder_tree_width(),
                     serve_band_.data(), up_.data(), down_.data());

  padded_mag_.resize(simd::kFusedLanes);
  lane_p_.resize(simd::kFusedLanes);
  K.serial_lanes_i32(a.signed_mag, b.signed_mag, n, padded_mag_.data(),
                     lane_p_.data());
  for (size_t k = n; k < simd::kFusedLanes; ++k) {
    padded_mag_[k] = 0;
    lane_p_[k] = 0;
  }
  // The lane's net window shift is constant across all 12 bit steps, so the
  // shifted multiplicand is computed once; guard <= kSerialFusedMaxGuard
  // keeps it in int32.
  v32_.resize(simd::kFusedLanes);
  K.shifted_lanes_i32(lane_p_.data(), up_.data(), down_.data(),
                      simd::kFusedLanes, v32_.data());

  int64_t sums[simd::kMaxBands * kSteps];
  K.serial_fused_i32(v32_.data(), padded_mag_.data(), serve_band_.data(), n,
                     bands, sums);

  // |sum| <= kFusedLanes * 2047 * 2^max(guard, 0) < 2^(15 + max(guard, 0)).
  const int sum_bits = 15 + std::max(guard, 0);
  const int frac_bits = acc_.config().frac_bits;
  const bool fast = acc_.fast64_ok(
      sum_bits, (kSteps - 2) - 2 * F.man_bits - guard + frac_bits);
  for (int t = 0; t < kSteps; ++t) {
    const int base_rescale = (t - 1) - 2 * F.man_bits - guard + frac_bits;
    for (int c = 0; c < bands; ++c) {
      const int rescale = base_rescale - (single_cycle ? 0 : c * sp);
      const int64_t tree = sums[static_cast<size_t>(c) * kSteps + t];
      if (fast) {
        acc_.add_tree64(tree, rescale, max_exp);
        continue;
      }
      const auto tree128 = static_cast<int128>(tree);
      acc_.add(rescale >= 0 ? shl(tree128, rescale) : asr(tree128, -rescale),
               max_exp);
    }
  }

  const int cycles = kSteps * bands;
  ++stats_.fp_ops;
  stats_.cycles += cycles;
  return cycles;
}

int SerialIpu::fp16_accumulate_prepared(const PreparedFp16View& a,
                                        const PreparedFp16View& b) {
  assert(a.n == b.n);
  assert(static_cast<int>(a.n) <= cfg_.n_inputs);
  // Two paths: the fused whole-op kernels when the op fits their lanes and
  // every shifted multiplicand fits int32 (simd.h derives the guard bound),
  // else the scalar oracle.
  if (simd::active_backend() != simd::Backend::kScalar && a.n >= 1 &&
      a.n <= simd::kFusedLanes &&
      window_guard() <= simd::kSerialFusedMaxGuard) {
    return run_prepared_fp16_fused(a, b);
  }
  return run_prepared_fp16_oracle(a, b);
}

int SerialIpu::int_accumulate_prepared(const PreparedIntView& pa,
                                      const PreparedIntView& pb, int a_bits,
                                      int b_bits) {
  assert(pa.n == pb.n);
  assert(a_bits <= 12 && b_bits <= 32);
  static_cast<void>(a_bits);  // only the asserts consume it
  const size_t n = pa.n;
  const int32_t* a = pa.value;
  const int32_t* b = pb.value;
  for (size_t k = 0; k < n; ++k) {
    assert(fits_signed(a[k], a_bits));
    assert(fits_signed(b[k], b_bits));
  }
  // Serial over b's two's-complement bits; the top bit carries negative
  // weight.
  const bool use_simd = simd::active_backend() != simd::Backend::kScalar;
  const simd::KernelTable& K = simd::kernels();
  for (int t = 0; t < b_bits; ++t) {
    int64_t tree_sum;
    if (use_simd) {
      tree_sum = K.bit_masked_sum_i32(a, b, t, n);
      if (t == b_bits - 1) tree_sum = -tree_sum;
    } else {
      tree_sum = 0;
      for (size_t k = 0; k < n; ++k) {
        if (((b[k] >> t) & 1) == 0) continue;
        tree_sum += t == b_bits - 1 ? -int64_t{a[k]} : int64_t{a[k]};
      }
    }
    int_acc_ += tree_sum << t;
  }
  ++stats_.int_ops;
  stats_.cycles += b_bits;
  return b_bits;
}

}  // namespace mpipu
