// The IPU's partial-sum accumulator -- paper Section 2.2, right side of Fig 1.
//
// The accumulator keeps two values: an exponent register `acc_exp` and a
// non-normalized signed-magnitude register of 33 + t + l bits, interpreted
// as a fixed-point number with (3 + t + l) integer bits and 30 fraction bits
// relative to 2^acc_exp:
//
//      value = register * 2^(acc_exp - frac_bits),   frac_bits = 30.
//
// Incoming adder-tree results arrive with their own exponent (the EHU's
// max_exp plus nibble/band weights).  When the incoming exponent exceeds
// acc_exp, the hardware *swaps* the operands and right-shifts the old
// accumulator contents instead (there is no left shifter); otherwise the
// incoming value is right-shifted.  Bits pushed below the register LSB are
// discarded -- the architectural truncation point this whole paper is about.
//
// In INT mode acc_exp stays 0 and every add is exact (shift amounts are the
// nibble significances, always left-aligned into the wide register).
#pragma once

#include <cassert>

#include "common/bits.h"
#include "common/fixed_point.h"

namespace mpipu {

struct AccumulatorConfig {
  /// Fraction bits kept below 2^acc_exp; the paper provisions 30.
  int frac_bits = 30;
  /// Extra integer headroom: t covers adder-tree growth (ceil_log2 n),
  /// l covers accumulation depth (ceil_log2 d).  Total register width is
  /// 3 + frac_bits + t + l  (sign + int + fraction).
  int t = 4;
  int l = 9;
  /// Test-only escape hatch: accumulate exactly (no register-width clamp, no
  /// shift truncation).  Used by golden-model tests to isolate datapath
  /// truncation from accumulator truncation; never set in architecture runs.
  bool lossless = false;

  int register_width() const { return 3 + frac_bits + t + l; }

  friend bool operator==(const AccumulatorConfig&, const AccumulatorConfig&) = default;
};

class Accumulator {
 public:
  explicit Accumulator(const AccumulatorConfig& cfg = {}) : cfg_(cfg) { reset(); }

  void reset() {
    reg_ = 0;
    exp_ = kEmptyExp;
    exact_ = FixedPoint(0, 0);
  }

  const AccumulatorConfig& config() const { return cfg_; }
  bool empty() const { return exp_ == kEmptyExp; }
  int exponent() const { return exp_; }
  int128 register_value() const { return reg_; }

  /// Add `mantissa * 2^(in_exp - cfg.frac_bits)`; the incoming mantissa uses
  /// the same fixed-point convention as the register.  Models the
  /// swap-then-right-shift datapath with truncation at the register LSB.
  void add(int128 mantissa, int in_exp) {
    if (cfg_.lossless) {
      exact_ = exact_ + FixedPoint(mantissa, in_exp - cfg_.frac_bits);
      if (empty() || in_exp > exp_) exp_ = in_exp;
      return;
    }
    if (mantissa == 0 && empty()) return;
    if (empty()) {
      exp_ = in_exp;
      reg_ = clamp_width(mantissa);
      return;
    }
    if (in_exp > exp_) {
      // Swap: shift the old accumulator down to the new exponent.
      reg_ = asr(reg_, in_exp - exp_);
      exp_ = in_exp;
      reg_ = clamp_width(reg_ + mantissa);
    } else {
      reg_ = clamp_width(reg_ + asr(mantissa, exp_ - in_exp));
    }
  }

  /// True when add_tree64 may replace add(shl/asr(tree, rescale), in_exp)
  /// for adder-tree sums bounded by `tree_bits` bits at rescales up to
  /// `max_rescale`: the register and every intermediate then fit int64 and
  /// the int64 path is bit-identical to the int128 one.
  bool fast64_ok(int tree_bits, int max_rescale) const {
    return !cfg_.lossless && cfg_.register_width() <= 62 &&
           tree_bits + (max_rescale > 0 ? max_rescale : 0) <= 62;
  }

  /// int64 fast path of the serve loops (core SIMD paths): adds
  /// `tree * 2^rescale * 2^(in_exp - frac_bits)`.  Caller guarantees
  /// fast64_ok(bound(tree), rescale); results, truncation and the overflow
  /// flag match add() exactly (two's-complement >> composes like asr, and
  /// the left shift cannot overflow under the fast64_ok bound).
  void add_tree64(int64_t tree, int rescale, int in_exp) {
    const int64_t m =
        rescale >= 0
            ? tree << rescale
            : (rescale <= -63 ? tree >> 63 : tree >> -rescale);
    if (m == 0 && empty()) return;
    if (empty()) {
      exp_ = in_exp;
      reg_ = clamp_width(m);
      return;
    }
    auto r = static_cast<int64_t>(reg_);
    if (in_exp > exp_) {
      const int s = in_exp - exp_;
      r >>= s >= 63 ? 63 : s;
      exp_ = in_exp;
      reg_ = clamp_width(r + m);
    } else {
      const int s = exp_ - in_exp;
      reg_ = clamp_width(r + (s >= 63 ? m >> 63 : m >> s));
    }
  }

  /// Overwrite the register state: the store half of code that carries the
  /// register in machine registers across many adds (the temporal stream
  /// kernel, core/simd/simd.h).  An empty accumulator ignores reg and exp.
  void restore(int128 reg, int exp, bool empty, bool overflowed) {
    reg_ = empty ? 0 : reg;
    exp_ = empty ? kEmptyExp : exp;
    overflowed_ = overflowed;
  }

  /// Exact value held (for readout / rounding to the output format).
  FixedPoint value() const {
    if (cfg_.lossless) return exact_;
    if (empty()) return {0, 0};
    return {reg_, exp_ - cfg_.frac_bits};
  }

  /// True once any add has overflowed the architectural width; sticky, so
  /// reset() does not clear it (the paper provisions t and l so this never
  /// happens in-spec; tests assert it).
  bool overflowed() const { return overflowed_; }

 private:
  static constexpr int kEmptyExp = INT32_MIN / 2;

  int128 clamp_width(int128 v) {
    if (!fits_signed(v, cfg_.register_width())) {
      overflowed_ = true;
      return saturate_signed(v, cfg_.register_width());
    }
    return v;
  }

  AccumulatorConfig cfg_;
  int128 reg_ = 0;
  int exp_ = kEmptyExp;
  FixedPoint exact_{0, 0};
  bool overflowed_ = false;
};

}  // namespace mpipu
