// Per-layer precision assignment -- the paper's core scenario: a single
// nibble-based datapath serving FP16 (with FP16 or FP32 accumulation, §3.1)
// and INT(a,w) layers in one network, chosen per layer by sensitivity.
//
// A PrecisionPolicy maps layers to a LayerPrecision by (in priority order)
// explicit name override, explicit index override, the first/last-layer
// preset, then the default.  Named presets cover the paper's study points:
// all_fp16() and int8_except_first_last() (quantize the robust interior,
// keep the sensitive ends in FP16).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>

#include "nn/conv.h"

namespace mpipu {

struct LayerPrecision {
  enum class Kind { kFp16, kInt };
  Kind kind = Kind::kFp16;
  /// FP16 path: accumulation destination (§3.1).
  AccumKind accum = AccumKind::kFp32;
  /// INT path: symmetric-quantized activation / weight widths.
  int a_bits = 8, w_bits = 8;

  static LayerPrecision fp16(AccumKind accum = AccumKind::kFp32) {
    LayerPrecision p;
    p.kind = Kind::kFp16;
    p.accum = accum;
    return p;
  }
  static LayerPrecision int_bits(int a_bits, int w_bits) {
    LayerPrecision p;
    p.kind = Kind::kInt;
    p.a_bits = a_bits;
    p.w_bits = w_bits;
    return p;
  }

  /// Human/JSON label: "fp16+fp32acc", "fp16+fp16acc", "int8x8", "int4x4".
  std::string to_string() const;

  friend bool operator==(const LayerPrecision&, const LayerPrecision&) = default;
};

class PrecisionPolicy {
 public:
  /// Default-constructed policy: every layer FP16 with FP32 accumulation.
  PrecisionPolicy() = default;

  static PrecisionPolicy all_fp16(AccumKind accum = AccumKind::kFp32);
  static PrecisionPolicy all_int(int bits = 8);
  /// The paper's mixed preset: INT8 interior, FP16/FP32-accum first and
  /// last layers (the quantization-sensitive ends).
  static PrecisionPolicy int8_except_first_last();

  PrecisionPolicy& set_default(LayerPrecision p);
  /// First/last-layer override (applies when no name/index override hits).
  PrecisionPolicy& set_first_last(LayerPrecision p);
  PrecisionPolicy& set_layer(const std::string& name, LayerPrecision p);
  PrecisionPolicy& set_layer(size_t index, LayerPrecision p);

  /// Precision of layer `index` of `n_layers` named `name`.
  LayerPrecision resolve(size_t index, size_t n_layers,
                         const std::string& name) const;

 private:
  LayerPrecision default_{};
  std::optional<LayerPrecision> first_last_;
  std::map<std::string, LayerPrecision> by_name_;
  std::map<size_t, LayerPrecision> by_index_;
};

}  // namespace mpipu
