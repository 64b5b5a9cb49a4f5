#include "core/ipu.h"

#include <algorithm>
#include <cassert>

#include "core/simd/simd.h"

namespace mpipu {

Ipu::Ipu(const DatapathConfig& cfg)
    : Datapath(cfg, DecompositionScheme::kTemporal) {
  // The unit works at the effective width: at least 10 in MC mode (a
  // positive safe precision), at least 2 single-cycle, where narrower
  // windows truncate even unshifted products.
  //
  // The stream kernel holds each shifted lane product in int32 (guard
  // bound), bands alignments with a 16-bit magic divide (software
  // precision bound) and keeps the register and every shifted adder-tree
  // sum in int64: |sum| <= kFusedLanes * 225 * 2^max(guard, 0) <
  // 2^(12 + max(guard, 0)).
  constexpr FpFormat F = kFp16Format;
  static_assert(fp_nibble_count(F) == 3);  // the stream kernel is 3x3
  constexpr int z = fp_pad_bits(F);
  const int guard = window_guard();
  const int sum_bits = 12 + std::max(guard, 0);
  stream_ok_ = guard <= simd::kNibbleFusedMaxGuard &&
               cfg_.software_precision < 65536;
  for (int it = 0; it < 9; ++it) {
    const int base_rescale = (4 * (it / 3) - z) + (4 * (it % 3) - z) -
                             2 * F.man_bits - guard +
                             acc_.config().frac_bits;
    stream_ok_ = stream_ok_ && acc_.fast64_ok(sum_bits, base_rescale);
    for (int c = 0; c < simd::kMaxBands; ++c) {
      const int band_base = cfg_.multi_cycle ? c * cfg_.safe_precision() : 0;
      rescale_[static_cast<size_t>(c * 9 + it)] =
          std::max(base_rescale - band_base, -63);
    }
  }
}

int Ipu::run_fp_iteration(std::span<const NibbleOperand> na,
                          std::span<const NibbleOperand> nb, int i, int j,
                          const EhuResult& ehu, int scale_bias) {
  const size_t n = na.size();
  const int w = cfg_.effective_adder_tree_width();
  const int guard = window_guard();  // w - 10
  const int sp = cfg_.safe_precision();   // w - 9

  // The iteration's contribution has lane-weight 2^(wi + wj) relative to the
  // signed-magnitude product, and the product pair with max_exp carries
  // value sm_a*sm_b * 2^(max_exp - 2*man_bits).
  const int wi = na[0].weight_exp[static_cast<size_t>(i)];
  const int wj = nb[0].weight_exp[static_cast<size_t>(j)];

  // The accumulator convention is value = mantissa * 2^(in_exp - frac_bits);
  // we report in_exp = max_exp so acc_exp tracks the paper's "accumulator
  // exponent".  The adder-tree output S (window-scaled by 2^-guard) then
  // needs a fixed re-scale of wi + wj - 2*man_bits - guard + frac_bits,
  // minus the band-base shift c*sp in MC mode.  Left re-scales are exact
  // (zero fill); right re-scales truncate -- the accumulator-input shifter.
  const int base_rescale =
      wi + wj - scale_bias - guard + acc_.config().frac_bits;

  const bool single_cycle = !cfg_.multi_cycle;
  const int bands = single_cycle ? 1 : ehu.mc_cycles;

  for (int c = 0; c < bands; ++c) {
    int128 tree_sum = 0;
    for (size_t k = 0; k < n; ++k) {
      if (ehu.masked[k]) continue;
      if (!single_cycle && ehu.band[k] != c) continue;
      const int32_t p = multiply_lane(na[k].v[static_cast<size_t>(i)],
                                      nb[k].v[static_cast<size_t>(j)]);
      // Local right shift within the w-bit window: full alignment in
      // single-cycle mode, band-relative remainder in MC mode.  Bits pushed
      // below the window LSB are truncated (arithmetic shift).
      const int local_shift =
          single_cycle ? std::min(ehu.align[k], w) : ehu.align[k] - c * sp;
      assert(local_shift >= 0);
      assert(single_cycle || local_shift < sp);  // Proposition 1 in MC mode.
      // Place the product at the top of the w-bit window (guard may be
      // negative for w < 10: even unshifted products then lose low bits).
      const int net_shift = guard - local_shift;
      tree_sum += net_shift >= 0 ? shl(p, net_shift) : asr(p, -net_shift);
    }
    const int rescale = base_rescale - (single_cycle ? 0 : c * sp);
    const int128 mantissa =
        rescale >= 0 ? shl(tree_sum, rescale) : asr(tree_sum, -rescale);
    acc_.add(mantissa, ehu.max_exp);
  }

  // Cycle accounting: the paper's serve loop burns a cycle per alignment
  // band; the skip-empty ablation (a smarter EHU) only pays for occupied
  // bands.  Band occupancy is an EHU-level notion (exponent based), so a
  // band of all-zero magnitudes still costs its cycle in both modes.
  const int cycles_used = single_cycle
                              ? 1
                              : (cfg_.skip_empty_bands ? ehu.mc_cycles_skip_empty
                                                       : ehu.mc_cycles);
  if (cycles_used > 1) ++stats_.multi_cycle_ops;
  return cycles_used;
}

template <typename TreeInt>
int Ipu::run_prepared_fp16(const PreparedFp16View& a, const PreparedFp16View& b) {
  const size_t n = a.n;
  constexpr FpFormat F = kFp16Format;
  constexpr int kn = fp_nibble_count(F);
  constexpr int z = fp_pad_bits(F);

  EhuOptions eopts;
  eopts.software_precision = cfg_.software_precision;
  eopts.safe_precision = std::max(cfg_.safe_precision(), 1);
  eopts.skip_empty_bands = cfg_.skip_empty_bands;
  run_ehu(std::span<const int32_t>(a.exp, n), std::span<const int32_t>(b.exp, n),
          eopts, ehu_);

  const int sp = cfg_.safe_precision();
  const bool single_cycle = !cfg_.multi_cycle;
  const int bands = single_cycle ? 1 : ehu_.mc_cycles;
  sched_.build(ehu_, bands, single_cycle, window_guard(), sp,
               cfg_.effective_adder_tree_width());

  // Same per-iteration cost rule as run_fp_iteration: the serve loop burns
  // a cycle per band (occupied bands only under the skip-empty ablation).
  const int cycles_per_iter =
      single_cycle ? 1
                   : (cfg_.skip_empty_bands ? ehu_.mc_cycles_skip_empty
                                            : ehu_.mc_cycles);
  const int frac_bits = acc_.config().frac_bits;
  const int guard = window_guard();

  int cycles = 0;
  for (int i = 0; i < kn; ++i) {
    for (int j = 0; j < kn; ++j) {
      const int8_t* an = a.nib_plane(i);
      const int8_t* bn = b.nib_plane(j);
      if (cfg_.skip_zero_iterations) {
        bool all_zero = true;
        for (int32_t k : sched_.order) {
          if (an[static_cast<size_t>(k)] != 0 && bn[static_cast<size_t>(k)] != 0) {
            all_zero = false;
            break;
          }
        }
        if (all_zero) {
          ++stats_.skipped_iterations;
          continue;
        }
      }
      const int wi = 4 * i - z;
      const int wj = 4 * j - z;
      const int base_rescale = wi + wj - 2 * F.man_bits - guard + frac_bits;
      for (int c = 0; c < bands; ++c) {
        TreeInt tree_sum = 0;
        const int32_t* lane = sched_.order.data() + sched_.begin[static_cast<size_t>(c)];
        const int32_t* lane_end = sched_.order.data() + sched_.begin[static_cast<size_t>(c) + 1];
        for (; lane != lane_end; ++lane) {
          const auto k = static_cast<size_t>(*lane);
          const int32_t p =
              static_cast<int32_t>(an[k]) * static_cast<int32_t>(bn[k]);
          if (p == 0) continue;  // shifting and adding zero is a no-op
          const int s = sched_.net_shift[k];
          // C++20 shifts: << on a negative TreeInt and >> arithmetic are
          // both well defined and match bits.h's shl/asr exactly.
          tree_sum += s >= 0 ? static_cast<TreeInt>(p) << s
                             : static_cast<TreeInt>(p >> -s);
        }
        const int rescale = base_rescale - (single_cycle ? 0 : c * sp);
        const auto tree128 = static_cast<int128>(tree_sum);
        acc_.add(rescale >= 0 ? shl(tree128, rescale) : asr(tree128, -rescale),
                 ehu_.max_exp);
      }
      cycles += cycles_per_iter;
      if (cycles_per_iter > 1) ++stats_.multi_cycle_ops;
    }
  }

  ++stats_.fp_ops;
  stats_.nibble_iterations += kn * kn;
  stats_.cycles += cycles;
  for (size_t k = 0; k < n; ++k) {
    if (ehu_.masked[k]) ++stats_.masked_products;
  }
  return cycles;
}

int Ipu::run_prepared_fp16_oracle(const PreparedFp16View& a,
                                  const PreparedFp16View& b) {
  // 9-bit lane products shifted up to window_guard and summed over n lanes:
  // stay in int64 whenever that bound fits, spill to int128 otherwise
  // (identical results either way; the adder tree is exact integer math).
  const int tree_bits = std::max(window_guard(), 0) + 9 +
                        ceil_log2(std::max(cfg_.n_inputs, 1)) + 1;
  return tree_bits <= 62 ? run_prepared_fp16<int64_t>(a, b)
                         : run_prepared_fp16<int128>(a, b);
}

int Ipu::fp16_accumulate_prepared(const PreparedFp16View& a,
                                  const PreparedFp16View& b) {
  assert(a.n == b.n);
  assert(static_cast<int>(a.n) <= cfg_.n_inputs);
  // An empty op is no chunk of a stream; the oracle counts it.
  if (a.n == 0) return run_prepared_fp16_oracle(a, b);
  return static_cast<int>(serve_stream(a, b, a.n));
}

int64_t Ipu::fp16_accumulate_stream(const PreparedFp16View& a,
                                    const PreparedFp16View& b) {
  assert(a.n == b.n);
  return serve_stream(a, b, static_cast<size_t>(cfg_.n_inputs));
}

int64_t Ipu::serve_stream(const PreparedFp16View& a, const PreparedFp16View& b,
                          size_t chunk) {
  assert(chunk >= 1 && static_cast<int>(chunk) <= cfg_.n_inputs);
  const int64_t cycles_before = stats_.cycles;
  if (!stream_ok_ || chunk > simd::kFusedLanes ||
      simd::active_backend() == simd::Backend::kScalar) {
    for (size_t c0 = 0; c0 < a.n; c0 += chunk) {
      const size_t n = std::min(chunk, a.n - c0);
      run_prepared_fp16_oracle(a.sub(c0, n), b.sub(c0, n));
    }
    return stats_.cycles - cycles_before;
  }

  simd::TemporalStreamArgs args{};
  args.a_stride = a.nib_stride;
  args.b_stride = b.nib_stride;
  args.chunk = chunk;
  args.soft = cfg_.software_precision;
  args.sp = cfg_.safe_precision();
  args.guard = window_guard();
  args.window = cfg_.effective_adder_tree_width();
  args.register_width = acc_.config().register_width();
  args.single_cycle = cfg_.multi_cycle ? 0 : 1;
  args.skip_empty_bands = cfg_.skip_empty_bands ? 1 : 0;
  args.skip_zero_iterations = cfg_.skip_zero_iterations ? 1 : 0;
  args.rescale = rescale_.data();
  const simd::KernelTable& K = simd::kernels();
  size_t c0 = 0;
  while (c0 < a.n) {
    args.a_exp = a.exp + c0;
    args.a_nib = a.nib + c0;
    args.b_exp = b.exp + c0;
    args.b_nib = b.nib + c0;
    args.len = a.n - c0;
    simd::TemporalStreamState st{};
    st.reg = static_cast<int64_t>(acc_.register_value());
    st.exp = acc_.exponent();
    st.empty = acc_.empty() ? 1 : 0;
    st.overflowed = acc_.overflowed() ? 1 : 0;
    c0 += K.temporal_stream_i32(&args, &st);
    acc_.restore(st.reg, st.exp, st.empty != 0, st.overflowed != 0);
    stats_.fp_ops += st.ops;
    stats_.nibble_iterations += 9 * st.ops;
    stats_.cycles += st.cycles;
    stats_.masked_products += st.masked_products;
    stats_.multi_cycle_ops += st.multi_cycle_iterations;
    stats_.skipped_iterations += st.skipped_iterations;
    if (c0 < a.n) {
      // An op past the kernel's band cap or magic-divide bound.
      const size_t n = std::min(chunk, a.n - c0);
      run_prepared_fp16_oracle(a.sub(c0, n), b.sub(c0, n));
      c0 += n;
    }
  }
  return stats_.cycles - cycles_before;
}

int Ipu::int_accumulate_prepared(const PreparedIntView& a,
                                 const PreparedIntView& b, int a_bits,
                                 int b_bits) {
  assert(a.n == b.n);
  assert(static_cast<int>(a.n) <= cfg_.n_inputs);
  const size_t n = a.n;
  const int ka = int_nibble_count(a_bits);
  const int kb = int_nibble_count(b_bits);
  assert(a.lanes == ka && b.lanes == kb);
  const bool use_simd = simd::active_backend() != simd::Backend::kScalar;
  const simd::KernelTable& K = simd::kernels();

  // Mirrors int_accumulate_reference: zero local shift, exact adder tree, 4*(i+j)
  // significance shift at the accumulator -- minus the per-op decomposition.
  int cycles = 0;
  for (int i = 0; i < ka; ++i) {
    for (int j = 0; j < kb; ++j) {
      const int8_t* an = a.nib_plane(i);
      const int8_t* bn = b.nib_plane(j);
      if (cfg_.skip_zero_iterations) {
        bool all_zero = true;
        for (size_t k = 0; k < n && all_zero; ++k) {
          all_zero = an[k] == 0 || bn[k] == 0;
        }
        if (all_zero) {
          ++stats_.skipped_iterations;
          continue;
        }
      }
      int64_t tree_sum;
      if (use_simd) {
        tree_sum = K.dot_i8(an, bn, n);
      } else {
        tree_sum = 0;
        for (size_t k = 0; k < n; ++k) {
          tree_sum += multiply_lane(an[k], bn[k]);
        }
      }
      int_acc_ += tree_sum << (4 * (i + j));
      ++cycles;
    }
  }

  ++stats_.int_ops;
  stats_.nibble_iterations += ka * kb;
  stats_.cycles += cycles;
  return cycles;
}

int Ipu::int_accumulate_reference(std::span<const int32_t> a,
                                  std::span<const int32_t> b, int a_bits,
                                  int b_bits, bool a_unsigned,
                                  bool b_unsigned) {
  assert(a.size() == b.size());
  assert(static_cast<int>(a.size()) <= cfg_.n_inputs);
  const size_t n = a.size();

  nib_a_.resize(n);
  nib_b_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    nib_a_[k] = a_unsigned ? decompose_int_unsigned(a[k], a_bits)
                           : decompose_int(a[k], a_bits);
    nib_b_[k] = b_unsigned ? decompose_int_unsigned(b[k], b_bits)
                           : decompose_int(b[k], b_bits);
  }
  const int ka = int_nibble_count(a_bits);
  const int kb = int_nibble_count(b_bits);

  // INT mode: zero local shift, exact adder tree, significance shift of
  // 4*(i+j) applied at the accumulator (always a left placement into the
  // wide register, so no bits are ever lost).
  int cycles = 0;
  for (int i = 0; i < ka; ++i) {
    for (int j = 0; j < kb; ++j) {
      if (cfg_.skip_zero_iterations) {
        bool all_zero = true;
        for (size_t k = 0; k < n && all_zero; ++k) {
          all_zero = nib_a_[k].v[static_cast<size_t>(i)] == 0 ||
                     nib_b_[k].v[static_cast<size_t>(j)] == 0;
        }
        if (all_zero) {
          ++stats_.skipped_iterations;
          continue;
        }
      }
      int64_t tree_sum = 0;
      for (size_t k = 0; k < n; ++k) {
        tree_sum += multiply_lane(nib_a_[k].v[static_cast<size_t>(i)],
                                  nib_b_[k].v[static_cast<size_t>(j)]);
      }
      int_acc_ += tree_sum << (4 * (i + j));
      ++cycles;
    }
  }

  ++stats_.int_ops;
  stats_.nibble_iterations += ka * kb;
  stats_.cycles += cycles;
  return cycles;
}

}  // namespace mpipu
