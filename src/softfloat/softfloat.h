// Bit-accurate software floating point value type.
//
// `Soft<Format>` stores the raw encoding and exposes exactly the views the
// accelerator datapath needs:
//   * classification (zero / subnormal / normal / inf / nan),
//   * the *signed magnitude* decomposition the paper uses: magnitude is the
//     sig_bits()-wide integer `1.mantissa` (normal) or `0.mantissa`
//     (subnormal), with value  (-1)^s * magnitude * 2^(E - man_bits)  where
//     E is the unbiased exponent (min_exp() for subnormals),
//   * exact conversion to/from FixedPoint, and round-to-nearest-even
//     encoding from an exact FixedPoint (used to round the accumulator back
//     to FP16/FP32),
//   * round-to-nearest-even encoding of a host double (workload weights
//     and activations).  It works on the double's bits directly
//     (`round_double_to_bits`) and never builds a FixedPoint;
//     `round_from_fixed` is its test oracle.
//
// No host floating point is used on any datapath path; `to_double` exists
// only for reporting and test oracles.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <compare>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "common/bits.h"
#include "common/fixed_point.h"
#include "softfloat/format.h"

namespace mpipu {

/// Round an IEEE binary64 value to format `F`'s encoding, round to
/// nearest even, straight from the double's bits: one shift of the
/// significand, with the carry into the next exponent and into infinity,
/// overflow to +/-inf, underflow to subnormals or signed zero, and NaN to
/// the positive quiet NaN.  Never inlined: it is the hot loop of
/// CompiledModel::compile, and inlining it into every caller perturbs code
/// layout elsewhere.  The library formats are instantiated once, in
/// softfloat.cpp.
template <FpFormat F>
[[gnu::noinline]] uint32_t round_double_to_bits(double v) {
  // Every target is narrower than binary64 in both fields, so one right
  // shift of the 53-bit significand lands on the target quantum.
  static_assert(F.man_bits < 52 && F.exp_bits < 11);
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  const uint32_t sign = static_cast<uint32_t>(bits >> 63)
                        << (F.exp_bits + F.man_bits);
  const uint32_t inf = F.exp_mask() << F.man_bits;
  const int biased = static_cast<int>((bits >> 52) & 0x7FF);
  const uint64_t frac = bits & ((uint64_t{1} << 52) - 1);

  if (biased == 0x7FF) [[unlikely]] {
    // NaN maps to the positive quiet NaN; infinities keep their sign.
    return frac != 0 ? inf | (1u << (F.man_bits - 1)) : sign | inf;
  }
  const int e = biased - 1023;
  if (e > F.max_exp()) [[unlikely]] return sign | inf;

  // v = sig * 2^(e - 52).  The target quantum is 2^(e - man_bits) for a
  // normal and the pinned 2^(min_exp - man_bits) below the normal range.
  // Zero and double subnormals (biased == 0) get a wrong implicit bit
  // here, but they sit far below half of every target's smallest
  // subnormal, so the capped shift below rounds them to signed zero.
  const uint64_t sig = frac | (uint64_t{1} << 52);
  const bool subnormal = e < F.min_exp();
  // sig < 2^53, so any shift past 53 leaves less than half a quantum; a
  // shift of 63 rounds those to zero just the same and stays in range.
  const int shift =
      std::min(52 - F.man_bits + (subnormal ? F.min_exp() - e : 0), 63);
  // Round to nearest even without a data-dependent branch: adding half a
  // quantum minus one, plus the kept LSB, carries into the kept bits
  // exactly when the dropped bits exceed half a quantum, or equal it with
  // an odd LSB.  The dropped bits act as round and sticky bits at once.
  const uint64_t q =
      (sig + ((uint64_t{1} << (shift - 1)) - 1) + ((sig >> shift) & 1)) >>
      shift;

  // A normal's q carries the implicit bit, so it adds onto the exponent
  // field minus one; a rounding carry (q == 2^(man_bits+1)) then bumps the
  // exponent, and out of max_exp that is exactly the infinity encoding.
  // A subnormal's q is the mantissa field, and q == 2^man_bits is the
  // smallest normal.
  const uint64_t base =
      subnormal ? 0 : static_cast<uint64_t>(e + F.bias() - 1) << F.man_bits;
  return sign | static_cast<uint32_t>(base + q);
}

extern template uint32_t round_double_to_bits<kFp16Format>(double v);
extern template uint32_t round_double_to_bits<kBf16Format>(double v);
extern template uint32_t round_double_to_bits<kTf32Format>(double v);
extern template uint32_t round_double_to_bits<kFp32Format>(double v);

/// Sign/exponent/magnitude view of a finite FP value.
/// value = (-1)^sign * magnitude * 2^(exp - (sig_bits-1))
/// i.e. `magnitude` is an integer in [0, 2^sig_bits) whose implicit binary
/// point sits after its MSB position.
struct Decoded {
  bool sign = false;
  int exp = 0;        ///< Unbiased exponent (min_exp for zero/subnormal).
  int32_t magnitude = 0;  ///< sig_bits-wide unsigned integer.

  int32_t signed_magnitude() const { return sign ? -magnitude : magnitude; }
};

template <FpFormat F>
class Soft {
 public:
  static constexpr FpFormat format = F;
  using StorageT = uint32_t;

  constexpr Soft() = default;

  static constexpr Soft from_bits(uint32_t raw) {
    Soft s;
    s.bits_ = raw & low_mask32(F.total_bits());
    return s;
  }

  static constexpr Soft from_fields(bool sign, uint32_t exp_field, uint32_t man_field) {
    assert(exp_field <= F.exp_mask());
    assert(man_field <= F.man_mask());
    return from_bits((static_cast<uint32_t>(sign) << (F.exp_bits + F.man_bits)) |
                     (exp_field << F.man_bits) | man_field);
  }

  static constexpr Soft zero(bool sign = false) { return from_fields(sign, 0, 0); }
  static constexpr Soft infinity(bool sign = false) { return from_fields(sign, F.exp_mask(), 0); }
  static constexpr Soft quiet_nan() {
    return from_fields(false, F.exp_mask(), 1u << (F.man_bits - 1));
  }
  static constexpr Soft max_finite(bool sign = false) {
    return from_fields(sign, F.exp_mask() - 1, F.man_mask());
  }
  static constexpr Soft min_subnormal(bool sign = false) { return from_fields(sign, 0, 1); }
  static constexpr Soft min_normal(bool sign = false) { return from_fields(sign, 1, 0); }
  static constexpr Soft one(bool sign = false) {
    return from_fields(sign, static_cast<uint32_t>(F.bias()), 0);
  }

  constexpr uint32_t raw_bits() const { return bits_; }
  constexpr bool sign() const { return (bits_ >> (F.exp_bits + F.man_bits)) & 1u; }
  constexpr uint32_t exp_field() const { return (bits_ >> F.man_bits) & F.exp_mask(); }
  constexpr uint32_t man_field() const { return bits_ & F.man_mask(); }

  constexpr bool is_zero() const { return exp_field() == 0 && man_field() == 0; }
  constexpr bool is_subnormal() const { return exp_field() == 0 && man_field() != 0; }
  constexpr bool is_normal() const { return exp_field() != 0 && exp_field() != F.exp_mask(); }
  constexpr bool is_inf() const { return exp_field() == F.exp_mask() && man_field() == 0; }
  constexpr bool is_nan() const { return exp_field() == F.exp_mask() && man_field() != 0; }
  constexpr bool is_finite() const { return exp_field() != F.exp_mask(); }

  /// Signed-magnitude decomposition (paper §2.2 / Appendix A.2).
  /// Precondition: finite.
  constexpr Decoded decode() const {
    assert(is_finite());
    Decoded d;
    d.sign = sign();
    if (exp_field() == 0) {
      d.exp = F.min_exp();
      d.magnitude = static_cast<int32_t>(man_field());
    } else {
      d.exp = static_cast<int>(exp_field()) - F.bias();
      d.magnitude = static_cast<int32_t>(man_field() | (1u << F.man_bits));
    }
    return d;
  }

  /// Exact value as a FixedPoint (finite only).
  constexpr FixedPoint to_fixed() const {
    const Decoded d = decode();
    return FixedPoint(d.signed_magnitude(), d.exp - F.man_bits);
  }

  /// Round an exact FixedPoint to this format with round-to-nearest-even.
  /// Overflow produces +/-inf; underflow produces subnormals or signed zero.
  static Soft round_from_fixed(const FixedPoint& fx);

  /// Exact conversion to host double (all formats here fit in double).
  double to_double() const {
    if (is_nan()) return std::numeric_limits<double>::quiet_NaN();
    if (is_inf()) return sign() ? -std::numeric_limits<double>::infinity()
                                : std::numeric_limits<double>::infinity();
    const Decoded d = decode();
    if (d.magnitude == 0) return d.sign ? -0.0 : 0.0;
    return std::ldexp(static_cast<double>(d.signed_magnitude()), d.exp - F.man_bits);
  }

  /// Nearest representable value of a host double (RNE), used for workload
  /// synthesis.  NaN maps to quiet NaN, overflow saturates to inf.
  static Soft from_double(double v) { return from_bits(round_double_to_bits<F>(v)); }

  friend constexpr bool operator==(Soft a, Soft b) { return a.bits_ == b.bits_; }

  std::string to_string() const;

 private:
  static constexpr uint32_t low_mask32(int n) {
    return n >= 32 ? ~0u : ((1u << n) - 1u);
  }

  uint32_t bits_ = 0;
};

using Fp16 = Soft<kFp16Format>;
using Fp32 = Soft<kFp32Format>;
using Bf16 = Soft<kBf16Format>;
using Tf32 = Soft<kTf32Format>;

// ---------------------------------------------------------------------------
// Implementation
// ---------------------------------------------------------------------------

template <FpFormat F>
Soft<F> Soft<F>::round_from_fixed(const FixedPoint& fx) {
  if (fx.is_zero()) return zero();
  const bool neg = fx.mantissa() < 0;
  uint128 mag = neg ? static_cast<uint128>(-fx.mantissa()) : static_cast<uint128>(fx.mantissa());
  int lsb = fx.lsb_exp();

  // Normalize: we want `sig_bits` significant bits with the MSB at weight
  // 2^exp. msb position p: value = mag * 2^lsb, MSB weight = 2^(p + lsb).
  int p = msb_index(mag);
  int exp = p + lsb;

  // Target LSB weight for a normal with exponent `exp` is exp - man_bits.
  // For values below the normal range, the LSB weight is pinned at
  // min_exp - man_bits (subnormal quantum).
  int target_lsb = (exp < F.min_exp() ? F.min_exp() : exp) - F.man_bits;

  auto shift_round = [&](int s) -> uint128 {
    // Round mag / 2^s to nearest even.
    if (s <= 0) return mag << (-s);
    // Shifted entirely below half an ULP (mag < 2^127 so s >= 128 implies
    // s >= msb + 2): rounds to zero.  Keeps low_mask in range.
    if (s >= 128) return 0;
    const uint128 floor_v = mag >> s;
    const uint128 rem = mag & low_mask(s);
    const uint128 half = uint128{1} << (s - 1);
    if (rem > half || (rem == half && (floor_v & 1))) return floor_v + 1;
    return floor_v;
  };

  uint128 sig = shift_round(target_lsb - lsb);
  // Rounding can carry out (e.g. 1.111..1 -> 10.00..0): renormalize.
  if (msb_index(sig) + target_lsb > exp) {
    exp = msb_index(sig) + target_lsb;
    if (exp >= F.min_exp() && msb_index(sig) > F.man_bits) {
      // Re-round at the (possibly new) quantum; a carry-out always leaves a
      // power of two so this shift is exact.
      sig >>= (msb_index(sig) - F.man_bits);
    }
  }

  if (sig == 0) return zero(neg);
  if (exp > F.max_exp()) return infinity(neg);

  if (exp < F.min_exp()) {
    // Subnormal (or rounded up into min normal).
    assert(msb_index(sig) <= F.man_bits);
    return from_fields(neg, (sig >> F.man_bits) & 1 ? 1u : 0u,
                       static_cast<uint32_t>(sig & F.man_mask()));
  }
  assert(msb_index(sig) == F.man_bits);
  return from_fields(neg, static_cast<uint32_t>(exp + F.bias()),
                     static_cast<uint32_t>(sig & F.man_mask()));
}

template <FpFormat F>
std::string Soft<F>::to_string() const {
  if (is_nan()) return "nan";
  if (is_inf()) return sign() ? "-inf" : "+inf";
  return std::to_string(to_double());
}

}  // namespace mpipu
