// The per-op convolution oracle: the one hand-wired convolution every
// executor test compares against.
//
// For each output pixel the loop gathers the in-bounds kernel window in
// ky -> kx -> ci order.  For each output channel it then resets the unit's
// accumulator, accumulates the operand streams in chunks of n_inputs
// through the unit's per-op entry point, and reads the pixel out once.
// Nothing is prepared, planned or packed, so a bug in clip-class packing or
// in the plan executors (nn/conv_plan.h) shows up as a mismatch here.
//
// The loop is generic over the unit it drives (PerOpUnit): bind it to a
// unit's per-op reference entry (per_op_reference), or use PerOpOracle,
// which drives one make_datapath() unit through Datapath::fp16_accumulate /
// int_accumulate and exposes that unit's DatapathStats.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/datapath.h"
#include "core/ipu.h"
#include "core/serial_ipu.h"
#include "core/spatial_ipu.h"
#include "nn/conv.h"
#include "workload/quantizer.h"

namespace mpipu {

/// The three calls the per-op loop makes on a unit.  `Operand` is Fp16
/// (FP16 mode) or int32_t (INT mode); `Raw` is the accumulator value read
/// once per pixel: FixedPoint (FP16 mode) or int64_t (INT mode).
template <typename Operand, typename Raw>
struct PerOpUnit {
  std::function<void()> reset;
  /// Accumulate one <= n_inputs chunk; returns the cycles it took.
  std::function<int(std::span<const Operand>, std::span<const Operand>)>
      accumulate;
  std::function<Raw()> read;
};

using Fp16PerOpUnit = PerOpUnit<Fp16, FixedPoint>;
using IntPerOpUnit = PerOpUnit<int32_t, int64_t>;

/// The loop over operands already converted to the unit's domain: `in`
/// holds input's values (CHW), `flt` the filter bank's.  `readout` maps
/// the raw accumulator to the output value.  Adds the datapath cycles of
/// every chunk to *cycles when given.
template <typename Operand, typename Raw, typename Readout>
Tensor per_op_conv(const PerOpUnit<Operand, Raw>& unit, int n_inputs,
                   const Tensor& input, const std::vector<Operand>& in,
                   const FilterBank& filters, const std::vector<Operand>& flt,
                   const ConvSpec& spec, const Readout& readout,
                   int64_t* cycles) {
  const int ho = spec.out_dim(input.h, filters.kh);
  const int wo = spec.out_dim(input.w, filters.kw);
  const size_t block =
      static_cast<size_t>(filters.cin) * filters.kh * filters.kw;
  Tensor out(filters.cout, ho, wo);
  std::vector<Operand> pa, pb;
  std::vector<size_t> filter_off;
  for (int y = 0; y < ho; ++y) {
    for (int x = 0; x < wo; ++x) {
      pa.clear();
      filter_off.clear();
      for (int ky = 0; ky < filters.kh; ++ky) {
        for (int kx = 0; kx < filters.kw; ++kx) {
          const int iy = y * spec.stride + ky - spec.pad;
          const int ix = x * spec.stride + kx - spec.pad;
          if (iy < 0 || iy >= input.h || ix < 0 || ix >= input.w) continue;
          for (int ci = 0; ci < input.c; ++ci) {
            pa.push_back(in[(static_cast<size_t>(ci) * input.h + iy) *
                                static_cast<size_t>(input.w) +
                            ix]);
            filter_off.push_back((static_cast<size_t>(ci) * filters.kh + ky) *
                                     static_cast<size_t>(filters.kw) +
                                 kx);
          }
        }
      }
      const int len = static_cast<int>(pa.size());
      pb.resize(pa.size());
      for (int co = 0; co < filters.cout; ++co) {
        for (size_t t = 0; t < pb.size(); ++t) {
          pb[t] = flt[static_cast<size_t>(co) * block + filter_off[t]];
        }
        unit.reset();
        for (int c0 = 0; c0 < len; c0 += n_inputs) {
          const auto chunk = static_cast<size_t>(std::min(n_inputs, len - c0));
          const int c = unit.accumulate(
              std::span<const Operand>(pa).subspan(static_cast<size_t>(c0), chunk),
              std::span<const Operand>(pb).subspan(static_cast<size_t>(c0), chunk));
          if (cycles != nullptr) *cycles += c;
        }
        out.at(co, y, x) = readout(unit.read());
      }
    }
  }
  return out;
}

/// `unit`'s per-op FP16 reference entry (fp_accumulate: per-op decode and
/// decompose, allocating EHU) as a PerOpUnit; `unit` must outlive it.
inline Fp16PerOpUnit per_op_reference(Datapath& unit) {
  std::function<int(std::span<const Fp16>, std::span<const Fp16>)> acc;
  switch (unit.config().scheme) {
    case DecompositionScheme::kTemporal:
      acc = [&u = static_cast<Ipu&>(unit)](auto a, auto b) {
        return u.fp_accumulate<kFp16Format>(a, b);
      };
      break;
    case DecompositionScheme::kSerial:
      acc = [&u = static_cast<SerialIpu&>(unit)](auto a, auto b) {
        return u.fp_accumulate(a, b);
      };
      break;
    case DecompositionScheme::kSpatial:
      acc = [&u = static_cast<SpatialIpu&>(unit)](auto a, auto b) {
        return u.fp_accumulate<kFp16Format>(a, b);
      };
      break;
  }
  return {[&unit] { unit.reset_accumulator(); }, acc,
          [&unit] { return unit.read_raw(); }};
}

/// FP16 mode: both tensors rounded to FP16, every pixel rounded to the
/// `accum` destination.
inline Tensor per_op_conv_fp16(const Fp16PerOpUnit& unit, int n_inputs,
                               AccumKind accum, const Tensor& input,
                               const FilterBank& filters, const ConvSpec& spec,
                               int64_t* cycles = nullptr) {
  const auto to_fp16 = [](const std::vector<double>& v) {
    std::vector<Fp16> r(v.size());
    for (size_t i = 0; i < v.size(); ++i) r[i] = Fp16::from_double(v[i]);
    return r;
  };
  return per_op_conv(
      unit, n_inputs, input, to_fp16(input.data), filters,
      to_fp16(filters.data), spec,
      [accum](const FixedPoint& raw) {
        return accum == AccumKind::kFp16
                   ? Fp16::round_from_fixed(raw).to_double()
                   : Fp32::round_from_fixed(raw).to_double();
      },
      cycles);
}

/// INT mode: both tensors max-calibrated (fit_symmetric over the whole
/// tensor) and quantized to a_bits / w_bits, every pixel dequantized.  The
/// unit must accumulate at those widths.
inline Tensor per_op_conv_int(const IntPerOpUnit& unit, int n_inputs,
                              int a_bits, int w_bits, const Tensor& input,
                              const FilterBank& filters, const ConvSpec& spec,
                              int64_t* cycles = nullptr) {
  const QuantParams qa = fit_symmetric(input.data, a_bits);
  const QuantParams qw = fit_symmetric(filters.data, w_bits);
  return per_op_conv(
      unit, n_inputs, input, quantize(input.data, qa), filters,
      quantize(filters.data, qw), spec,
      [&](int64_t acc) { return dequantize_accumulator(acc, qa, qw); }, cycles);
}

/// The oracle bound to one make_datapath() unit: every conv runs the
/// per-op loop through Datapath::fp16_accumulate / int_accumulate, and
/// stats() sums the unit's DatapathStats over every conv run so far.
class PerOpOracle {
 public:
  explicit PerOpOracle(const DatapathConfig& cfg) : dp_(make_datapath(cfg)) {}

  Tensor conv_fp16(const Tensor& input, const FilterBank& filters,
                   const ConvSpec& spec, AccumKind accum = AccumKind::kFp32) {
    Datapath& dp = *dp_;
    const Fp16PerOpUnit unit{
        [&dp] { dp.reset_accumulator(); },
        [&dp](std::span<const Fp16> a, std::span<const Fp16> b) {
          return dp.fp16_accumulate(a, b);
        },
        [&dp] { return dp.read_raw(); }};
    return per_op_conv_fp16(unit, dp.config().n_inputs, accum, input, filters,
                            spec);
  }

  Tensor conv_int(const Tensor& input, const FilterBank& filters,
                  const ConvSpec& spec, int a_bits, int w_bits) {
    Datapath& dp = *dp_;
    const IntPerOpUnit unit{
        [&dp] { dp.reset_accumulator(); },
        [&dp, a_bits, w_bits](std::span<const int32_t> a,
                              std::span<const int32_t> b) {
          return dp.int_accumulate(a, b, a_bits, w_bits);
        },
        [&dp] { return dp.read_int(); }};
    return per_op_conv_int(unit, dp.config().n_inputs, a_bits, w_bits, input,
                           filters, spec);
  }

  DatapathStats stats() const { return dp_->stats(); }

 private:
  std::unique_ptr<Datapath> dp_;
};

}  // namespace mpipu
