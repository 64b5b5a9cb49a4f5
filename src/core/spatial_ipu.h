// Spatially decomposed inner product unit.
//
// The paper's Related Work contrasts its *temporal* nibble decomposition
// with *spatial* decomposition (NVDLA computes an FP16 product on two INT8
// units side by side; DP4A splits an INT32 unit into four INT8 lanes) and
// notes that "our proposed architecture optimization ... is orthogonal to
// the decomposition scheme (i.e., temporal, serial, spatial)" (§5).
//
// `SpatialIpu` realizes that claim: all Ka x Kb nibble products of every
// input pair are computed in the same cycle on Ka*Kb*n multipliers, so the
// alignment shift of lane (k, i, j) combines the EHU alignment d_k with the
// nibble-significance offset (top_weight - wi - wj).  The MC banding then
// partitions the *combined* shifts: concentrated exponents finish in one
// cycle (9x the temporal throughput for 9x the multipliers); wide
// alignments multi-cycle exactly as in the temporal design.
//
// This gives the repo all three decomposition schemes of §5 -- temporal
// (Ipu), serial (SerialIpu) and spatial (SpatialIpu) -- over the same EHU,
// accumulator and reference models.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "common/bits.h"
#include "core/accumulator.h"
#include "core/datapath.h"
#include "core/ehu.h"
#include "core/nibble.h"
#include "core/prepared.h"
#include "core/reference.h"
#include "core/simd/simd.h"
#include "softfloat/softfloat.h"

namespace mpipu {

/// The spatial scheme: one Datapath implementation, built from a
/// DatapathConfig naming DecompositionScheme::kSpatial (safe precision
/// w - 9 as in the temporal IPU).  FP-only; it counts fp_ops, cycles and
/// multi_cycle_ops (ops needing more than one cycle).
class SpatialIpu final : public Datapath {
 public:
  /// Throws std::invalid_argument unless cfg.scheme is kSpatial.
  explicit SpatialIpu(const DatapathConfig& cfg)
      : Datapath(cfg, DecompositionScheme::kSpatial) {}

  /// Multipliers this unit instantiates per input pair (vs 1 for the
  /// temporal IPU).
  template <FpFormat F>
  static constexpr int multipliers_per_input() {
    return fp_nibble_count(F) * fp_nibble_count(F);
  }
  int multipliers() const override {
    return cfg_.n_inputs * multipliers_per_input<kFp16Format>();
  }

  /// One FP inner product, all nibble products in parallel.
  /// Returns datapath cycles (1 when every combined shift fits one band).
  template <FpFormat F>
  int fp_accumulate(std::span<const Soft<F>> a, std::span<const Soft<F>> b);

  /// Prepared-operand fast path (core/prepared.h): per op only the EHU and
  /// the combined-shift serve loop run, on reused scratch.  Bit- and
  /// cycle-identical to fp_accumulate<kFp16Format> over the same values.
  int fp16_accumulate_prepared(const PreparedFp16View& a,
                               const PreparedFp16View& b) override;

  bool supports_int(int, int) const override { return false; }
  // Hard aborts (not asserts): in a Release build a silent 0 here would
  // masquerade as a valid INT result.
  int int_accumulate_prepared(const PreparedIntView&, const PreparedIntView&,
                              int, int) override {
    fp_only();
  }
  int64_t read_int() const override { fp_only(); }

 private:
  [[noreturn]] static void fp_only() {
    std::fprintf(stderr, "Datapath: spatial scheme is FP-only\n");
    std::abort();
  }

  // The prepared FP16 fast path has two serve paths, picked per op by
  // fp16_accumulate_prepared: the fused whole-op kernels (core/simd) or
  // the verbatim scalar oracle.

  /// Scalar oracle serve loop; TreeInt is the adder-tree sum type.
  template <typename TreeInt>
  int run_prepared_fp16(const PreparedFp16View& a, const PreparedFp16View& b);

  /// The scalar oracle at its sum type: int64_t whenever the window bound
  /// fits, int128 otherwise.
  int run_prepared_fp16_oracle(const PreparedFp16View& a,
                               const PreparedFp16View& b);

  /// Whole-op fused path: one EHU kernel call and one spatial band-sum
  /// kernel call per op, in either alignment regime.  The combined shift of
  /// lane product (k, i, j) depends only on (k, i + j), so the kernel serves
  /// five nibble diagonals per lane.  Requires 1 <= n <= kFusedLanes and
  /// window_guard() <= kSpatialFusedMaxGuard (a served diagonal stays in
  /// int32); falls back to the scalar oracle on wide EHU spreads or more
  /// than kMaxBands bands.
  int run_prepared_fp16_fused(const PreparedFp16View& a,
                              const PreparedFp16View& b);

  // Prepared-path scratch: lane products grouped by serve band, reused per
  // op (entries with a zero product are dropped -- they cannot change the
  // adder tree -- but still count toward band occupancy, which is an
  // exponent-level notion).
  EhuResult ehu_;
  std::vector<int32_t> entry_begin_;
  std::vector<int32_t> entry_cursor_;
  std::vector<int32_t> entry_p_;
  std::vector<int32_t> entry_shift_;
  // Fused-path scratch: the EHU align/band planes, padded through
  // kFusedLanes.
  std::vector<int32_t> falign_, fband_;
};

// ---------------------------------------------------------------------------

template <FpFormat F>
int SpatialIpu::fp_accumulate(std::span<const Soft<F>> a, std::span<const Soft<F>> b) {
  assert(a.size() == b.size());
  assert(static_cast<int>(a.size()) <= cfg_.n_inputs);
  const size_t n = a.size();
  const int kn = fp_nibble_count(F);
  const int top_weight = 2 * (4 * (kn - 1) - fp_pad_bits(F));  // wi+wj of (K-1,K-1)

  std::vector<Decoded> da(n), db(n);
  std::vector<NibbleOperand> na(n), nb(n);
  for (size_t k = 0; k < n; ++k) {
    da[k] = a[k].decode();
    db[k] = b[k].decode();
    na[k] = decompose_fp<F>(da[k]);
    nb[k] = decompose_fp<F>(db[k]);
  }

  EhuOptions eopts;
  eopts.software_precision = cfg_.software_precision;
  eopts.safe_precision = std::max(cfg_.safe_precision(), 1);
  const EhuResult ehu = run_ehu(da, db, eopts);

  const int w = cfg_.effective_adder_tree_width();
  const int guard = window_guard();
  const int sp = cfg_.safe_precision();
  const bool single_cycle = !cfg_.multi_cycle;

  // Combined shift per (k, i, j): EHU alignment + nibble-significance
  // offset, so every lane product aligns against 2^(max_exp + top_weight).
  // Find the band span first.
  int max_band = 0;
  uint64_t occupied = 1;
  if (!single_cycle) {
    for (size_t k = 0; k < n; ++k) {
      if (ehu.masked[k]) continue;
      for (int i = 0; i < kn; ++i) {
        for (int j = 0; j < kn; ++j) {
          const int wi = na[k].weight_exp[static_cast<size_t>(i)];
          const int wj = nb[k].weight_exp[static_cast<size_t>(j)];
          const int shift = ehu.align[k] + top_weight - (wi + wj);
          const int band = shift / sp;
          max_band = std::max(max_band, band);
          occupied |= uint64_t{1} << std::min(band, 63);
        }
      }
    }
  }
  const int bands = single_cycle ? 1 : max_band + 1;

  // value(lane) = p * 2^(wi+wj) * 2^(E_k - 2 man) ; aligned to the top:
  // = p * 2^(-shift) * 2^(top_weight + max_exp - 2 man).
  const int base_rescale =
      top_weight - 2 * F.man_bits - guard + acc_.config().frac_bits;

  for (int c = 0; c < bands; ++c) {
    int128 tree_sum = 0;
    for (size_t k = 0; k < n; ++k) {
      if (ehu.masked[k]) continue;
      for (int i = 0; i < kn; ++i) {
        for (int j = 0; j < kn; ++j) {
          const int wi = na[k].weight_exp[static_cast<size_t>(i)];
          const int wj = nb[k].weight_exp[static_cast<size_t>(j)];
          const int shift = ehu.align[k] + top_weight - (wi + wj);
          if (!single_cycle && shift / sp != c) continue;
          const int local = single_cycle ? std::min(shift, w) : shift - c * sp;
          const int32_t p = multiply_lane(na[k].v[static_cast<size_t>(i)],
                                          nb[k].v[static_cast<size_t>(j)]);
          const int net = guard - local;
          tree_sum += net >= 0 ? shl(p, net) : asr(p, -net);
        }
      }
    }
    const int rescale = base_rescale - (single_cycle ? 0 : c * sp);
    acc_.add(rescale >= 0 ? shl(tree_sum, rescale) : asr(tree_sum, -rescale),
             ehu.max_exp);
  }

  const int cycles =
      single_cycle
          ? 1
          : (cfg_.skip_empty_bands
                 ? __builtin_popcountll(occupied & ((max_band >= 63)
                                                        ? ~uint64_t{0}
                                                        : ((uint64_t{1} << (max_band + 1)) - 1)))
                 : bands);
  ++stats_.fp_ops;
  stats_.cycles += cycles;
  if (cycles > 1) ++stats_.multi_cycle_ops;
  return cycles;
}

template <typename TreeInt>
int SpatialIpu::run_prepared_fp16(const PreparedFp16View& a,
                                  const PreparedFp16View& b) {
  const size_t n = a.n;
  constexpr FpFormat F = kFp16Format;
  constexpr int kn = fp_nibble_count(F);
  constexpr int z = fp_pad_bits(F);
  constexpr int top_weight = 2 * (4 * (kn - 1) - z);

  EhuOptions eopts;
  eopts.software_precision = cfg_.software_precision;
  eopts.safe_precision = std::max(cfg_.safe_precision(), 1);
  run_ehu(std::span<const int32_t>(a.exp, n), std::span<const int32_t>(b.exp, n),
          eopts, ehu_);

  const int w = cfg_.effective_adder_tree_width();
  const int guard = window_guard();
  const int sp = cfg_.safe_precision();
  const bool single_cycle = !cfg_.multi_cycle;

  // Static significance offsets: lane product (i, j) sits top_weight -
  // (wi + wj) below the op's top-aligned product, wi = 4i - z.
  // shift(k, i, j) = align[k] + offs(i, j).
  auto offs = [](int i, int j) { return top_weight - (4 * i - z) - (4 * j - z); };

  // Band span and occupancy, exactly as the per-op path computes them
  // (exponent-level: every unmasked lane product counts, zero or not).
  int max_band = 0;
  uint64_t occupied = 1;
  if (!single_cycle) {
    for (size_t k = 0; k < n; ++k) {
      if (ehu_.masked[k]) continue;
      for (int i = 0; i < kn; ++i) {
        for (int j = 0; j < kn; ++j) {
          const int band = (ehu_.align[k] + offs(i, j)) / sp;
          max_band = std::max(max_band, band);
          occupied |= uint64_t{1} << std::min(band, 63);
        }
      }
    }
  }
  const int bands = single_cycle ? 1 : max_band + 1;

  // Group the nonzero lane products by serve band (counting sort into
  // reused scratch); zero products are dropped here -- adding a zero to the
  // adder tree is a no-op -- after occupancy was counted above.
  entry_begin_.assign(static_cast<size_t>(bands) + 1, 0);
  for (size_t k = 0; k < n; ++k) {
    if (ehu_.masked[k]) continue;
    for (int i = 0; i < kn; ++i) {
      if (a.nib_plane(i)[k] == 0) continue;
      for (int j = 0; j < kn; ++j) {
        if (b.nib_plane(j)[k] == 0) continue;
        const int shift = ehu_.align[k] + offs(i, j);
        const int c = single_cycle ? 0 : shift / sp;
        ++entry_begin_[static_cast<size_t>(c) + 1];
      }
    }
  }
  for (int c = 0; c < bands; ++c) {
    entry_begin_[static_cast<size_t>(c) + 1] += entry_begin_[static_cast<size_t>(c)];
  }
  entry_cursor_.assign(entry_begin_.begin(), entry_begin_.end());
  const auto total = static_cast<size_t>(entry_begin_[static_cast<size_t>(bands)]);
  entry_p_.resize(total);
  entry_shift_.resize(total);
  for (size_t k = 0; k < n; ++k) {
    if (ehu_.masked[k]) continue;
    for (int i = 0; i < kn; ++i) {
      const int8_t nai = a.nib_plane(i)[k];
      if (nai == 0) continue;
      for (int j = 0; j < kn; ++j) {
        const int8_t nbj = b.nib_plane(j)[k];
        if (nbj == 0) continue;
        const int shift = ehu_.align[k] + offs(i, j);
        const int c = single_cycle ? 0 : shift / sp;
        const int local = single_cycle ? std::min(shift, w) : shift - c * sp;
        const auto slot = static_cast<size_t>(entry_cursor_[static_cast<size_t>(c)]++);
        entry_p_[slot] = static_cast<int32_t>(nai) * static_cast<int32_t>(nbj);
        entry_shift_[slot] = guard - local;
      }
    }
  }

  const int base_rescale =
      top_weight - 2 * F.man_bits - guard + acc_.config().frac_bits;
  for (int c = 0; c < bands; ++c) {
    TreeInt tree_sum = 0;
    for (auto e = static_cast<size_t>(entry_begin_[static_cast<size_t>(c)]),
              end = static_cast<size_t>(entry_begin_[static_cast<size_t>(c) + 1]);
         e != end; ++e) {
      const int s = entry_shift_[e];
      tree_sum += s >= 0 ? static_cast<TreeInt>(entry_p_[e]) << s
                         : static_cast<TreeInt>(entry_p_[e] >> -s);
    }
    const int rescale = base_rescale - (single_cycle ? 0 : c * sp);
    const auto tree128 = static_cast<int128>(tree_sum);
    acc_.add(rescale >= 0 ? shl(tree128, rescale) : asr(tree128, -rescale),
             ehu_.max_exp);
  }

  const int cycles =
      single_cycle
          ? 1
          : (cfg_.skip_empty_bands
                 ? __builtin_popcountll(occupied & ((max_band >= 63)
                                                        ? ~uint64_t{0}
                                                        : ((uint64_t{1} << (max_band + 1)) - 1)))
                 : bands);
  ++stats_.fp_ops;
  stats_.cycles += cycles;
  if (cycles > 1) ++stats_.multi_cycle_ops;
  return cycles;
}

inline int SpatialIpu::run_prepared_fp16_oracle(const PreparedFp16View& a,
                                                const PreparedFp16View& b) {
  // 9-bit lane products shifted up to window_guard, summed over n * Ka*Kb
  // parallel multipliers: stay in int64 whenever that bound fits, spill to
  // int128 otherwise (identical results either way).
  const int tree_bits =
      std::max(window_guard(), 0) + 9 +
      ceil_log2(std::max(cfg_.n_inputs, 1) *
                multipliers_per_input<kFp16Format>()) +
      1;
  return tree_bits <= 62 ? run_prepared_fp16<int64_t>(a, b)
                         : run_prepared_fp16<int128>(a, b);
}

inline int SpatialIpu::run_prepared_fp16_fused(const PreparedFp16View& a,
                                               const PreparedFp16View& b) {
  const size_t n = a.n;
  constexpr FpFormat F = kFp16Format;
  static_assert(fp_nibble_count(F) == 3);  // the fused kernel is 3x3
  constexpr int z = fp_pad_bits(F);
  constexpr int top_weight = 2 * (4 * 2 - z);
  const simd::KernelTable& K = simd::kernels();

  const int sp = cfg_.safe_precision();
  const int guard = window_guard();
  const bool single_cycle = !cfg_.multi_cycle;

  falign_.resize(simd::kFusedLanes);
  fband_.resize(simd::kFusedLanes);
  int32_t max_exp, ehu_max_band, n_masked;
  uint32_t ehu_occ;
  if (!K.ehu_fused_i32(a.exp, b.exp, n, cfg_.software_precision,
                       std::max(sp, 1), falign_.data(), fband_.data(),
                       &max_exp, &ehu_occ, &ehu_max_band, &n_masked)) {
    return run_prepared_fp16_oracle(a, b);
  }
  for (size_t k = n; k < simd::kFusedLanes; ++k) {
    falign_[k] = 0;
    fband_[k] = -1;
  }

  // shift(k, i, j) = align[k] + top_weight - (4i - z) - (4j - z), so
  // diagonal s = i + j sits at align[k] + offs0 - 4s.  The kernel works out
  // the band span and occupancy exactly as the oracle does per product:
  // every diagonal holds at least one (i, j).
  int64_t sums[simd::kMaxBands];
  int32_t max_band;
  uint32_t occ;
  if (!K.spatial_fused_i32(a.nib, a.nib_stride, b.nib, b.nib_stride,
                           falign_.data(), fband_.data(), n, top_weight + 2 * z,
                           sp, guard, single_cycle ? 1 : 0,
                           cfg_.effective_adder_tree_width(), sums, &max_band, &occ)) {
    return run_prepared_fp16_oracle(a, b);
  }
  const int bands = std::max(max_band, 0) + 1;

  const int base_rescale =
      top_weight - 2 * F.man_bits - guard + acc_.config().frac_bits;
  // |sum| <= kFusedLanes * 9 * 225 * 2^max(guard, 0) < 2^(15 + max(guard, 0)).
  const bool fast = acc_.fast64_ok(15 + std::max(guard, 0), base_rescale);
  for (int c = 0; c < bands; ++c) {
    const int rescale = base_rescale - c * sp;  // single-cycle: c == 0
    if (fast) {
      acc_.add_tree64(sums[c], rescale, max_exp);
      continue;
    }
    const auto tree128 = static_cast<int128>(sums[c]);
    acc_.add(rescale >= 0 ? shl(tree128, rescale) : asr(tree128, -rescale),
             max_exp);
  }

  // bands <= kMaxBands here, so the occupancy kernel's min(band, 31) clamp
  // never reaches the bits this mask keeps.
  const int cycles =
      single_cycle ? 1
                   : (cfg_.skip_empty_bands
                          ? std::popcount((occ | 1u) & ((1u << bands) - 1))
                          : bands);
  ++stats_.fp_ops;
  stats_.cycles += cycles;
  if (cycles > 1) ++stats_.multi_cycle_ops;
  return cycles;
}

inline int SpatialIpu::fp16_accumulate_prepared(const PreparedFp16View& a,
                                                const PreparedFp16View& b) {
  assert(a.n == b.n);
  assert(static_cast<int>(a.n) <= cfg_.n_inputs);
  // Two paths: the fused whole-op kernels when the op fits their lanes and
  // every served diagonal fits int32 (simd.h derives the guard bound), else
  // the scalar oracle.
  if (simd::active_backend() != simd::Backend::kScalar && a.n >= 1 &&
      a.n <= simd::kFusedLanes &&
      window_guard() <= simd::kSpatialFusedMaxGuard) {
    return run_prepared_fp16_fused(a, b);
  }
  return run_prepared_fp16_oracle(a, b);
}

}  // namespace mpipu
