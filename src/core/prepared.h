// Prepared operands: decode once, allocate never (the conv hot-loop fast
// path).
//
// Every scheme's per-op entry point used to re-run `decode()` and
// `decompose_fp` on operands that were already decoded for the previous
// output channel -- software work with no hardware analogue.  Bit-serial
// simulators in the same family (Bit-Tactical, Pragmatic, Stripes) get
// their throughput by precomputing the per-element bit decomposition once
// and streaming packed operand planes through the datapath model; this
// header is that trick for the MC-IPU repo.
//
// `PreparedFp16` holds a whole tensor's worth of FP16 operands as SoA
// planes -- one flat array per `Decoded` field plus the packed nibble
// lanes -- filled exactly once per tensor.  A `PreparedFp16View` is a
// non-owning window over those planes; `Datapath::fp16_accumulate_prepared`
// consumes views directly, so the per-op cost is the EHU and the serve
// loop, nothing else.  `PreparedInt` is the INT-mode counterpart (raw
// values for the bit-serial scheme, packed radix-16 digits for the
// temporal scheme).
//
// Everything a view exposes is derivable from the element values alone, so
// preparing per tensor, per chunk, or per op yields identical planes --
// which is what makes the span-of-Fp16 compatibility wrappers bit- and
// cycle-identical by construction.
//
// Thread-safety: prepared planes are plain SoA buffers that are only
// written during set()/assign()/gather(); once filled, a `const
// PreparedFp16`/`PreparedInt` (and any view over it) is safe to read from
// any number of threads concurrently.  The compile-once pipeline
// (api/compiled_model.h) relies on this: packed filter planes are built
// once at compile time and shared `const` across concurrent executors.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/nibble.h"
#include "softfloat/softfloat.h"

namespace mpipu {

/// Nibble lanes per prepared FP16 element (the N2/N1/N0 planes of §2.2).
inline constexpr int kFp16NibbleLanes = fp_nibble_count(kFp16Format);

/// Plane padding unit of the prepared layout (see the contract below).
inline constexpr size_t kPreparedPlanePad = 32;

/// Round an element count up to the padded plane stride.
///
/// PADDING / ALIGNMENT CONTRACT (relied on by src/core/simd):
///   * nibble data is PLANE-MAJOR: all elements' lane-i nibbles are stored
///     contiguously, one flat plane per lane, so the serve-loop kernels
///     stream one plane per nibble iteration with unit stride;
///   * every plane's stride is a multiple of kPreparedPlanePad elements, so
///     plane starts sit on 32-byte boundaries relative to the buffer base;
///   * the tail [size, stride) of every plane is ZERO-filled (resize()
///     re-zeroes it even when shrinking reuses capacity), so a vector load
///     that overhangs a full tensor's last element reads zero nibbles --
///     which multiply to zero products and cannot change any adder-tree sum.
///     Views into the middle of a tensor (conv chunking) do NOT get this
///     guarantee -- their overhang is live neighbor data -- so kernels
///     process whole vectors only below the view length and finish with a
///     scalar tail.
inline constexpr size_t prepared_plane_stride(size_t n) {
  return (n + kPreparedPlanePad - 1) & ~(kPreparedPlanePad - 1);
}

/// Non-owning SoA window over prepared FP16 operands.  `nib` is plane-major:
/// element k's lane-i nibble is nib[i*nib_stride + k], sign already applied
/// (lane weights are the static 2^(4i - z) of decompose_fp and never
/// stored).
struct PreparedFp16View {
  const int32_t* exp = nullptr;         ///< unbiased exponent (Decoded::exp)
  const int32_t* signed_mag = nullptr;  ///< (-1)^sign * magnitude
  const int8_t* nib = nullptr;          ///< packed nibble planes (plane-major)
  size_t nib_stride = 0;                ///< owner's plane stride in elements
  size_t n = 0;

  const int8_t* nib_plane(int i) const {
    return nib + static_cast<size_t>(i) * nib_stride;
  }
  /// The window [offset, offset + len) of this view.
  PreparedFp16View sub(size_t offset, size_t len) const {
    return {exp + offset, signed_mag + offset, nib + offset, nib_stride, len};
  }
};

/// Owning SoA planes for FP16 operands; decode + nibble-decompose happens
/// exactly once, in set()/assign().
class PreparedFp16 {
 public:
  PreparedFp16() = default;
  explicit PreparedFp16(std::span<const Fp16> vals) { assign(vals); }

  size_t size() const { return exp_.size(); }

  size_t nib_stride() const { return stride_; }

  /// Bytes held by the planes (pads included).
  size_t bytes() const {
    return (exp_.size() + signed_mag_.size()) * sizeof(int32_t) + nib_.size();
  }

  /// Grow/shrink without preparing; elements must be set() before use.
  /// Shrinking keeps capacity -- reuse across gathers never reallocates --
  /// but the plane pads are re-zeroed every time to uphold the padding
  /// contract above (a shrink-then-grow would otherwise expose stale lanes).
  void resize(size_t n) {
    exp_.resize(n);
    signed_mag_.resize(n);
    stride_ = prepared_plane_stride(n);
    nib_.resize(stride_ * static_cast<size_t>(kFp16NibbleLanes));
    for (int k = 0; k < kFp16NibbleLanes; ++k) {
      std::fill(nib_.begin() + static_cast<ptrdiff_t>(k * stride_ + n),
                nib_.begin() + static_cast<ptrdiff_t>((k + 1) * stride_), 0);
    }
  }

  /// Prepare one element (decode + decompose).
  void set(size_t i, Fp16 v) {
    const Decoded d = v.decode();
    exp_[i] = d.exp;
    signed_mag_[i] = d.signed_magnitude();
    const NibbleOperand nb = decompose_fp<kFp16Format>(d);
    for (int k = 0; k < kFp16NibbleLanes; ++k) {
      nib_[static_cast<size_t>(k) * stride_ + i] = nb.v[static_cast<size_t>(k)];
    }
  }

  void assign(std::span<const Fp16> vals);

  /// No-op (FP16 planes have a fixed layout); mirrors PreparedInt so
  /// plane-generic code can set up staging buffers uniformly.
  void match_layout(const PreparedFp16&) {}

  /// Stage `rel.size()` already-prepared elements of `src` at indices
  /// rel[t] + base into this object's planes starting at `dst_offset` --
  /// a plane copy, never a re-decode.  The destination must already be
  /// resize()d to cover [dst_offset, dst_offset + rel.size()).
  void gather(const PreparedFp16& src, std::span<const int32_t> rel,
              int64_t base, size_t dst_offset = 0);

  PreparedFp16View view() const { return view(0, size()); }
  PreparedFp16View view(size_t offset, size_t len) const {
    return {exp_.data() + offset, signed_mag_.data() + offset,
            nib_.data() + offset, stride_, len};
  }

 private:
  std::vector<int32_t> exp_;
  std::vector<int32_t> signed_mag_;
  std::vector<int8_t> nib_;  ///< plane-major, stride_ elements per plane
  size_t stride_ = 0;
};

/// Non-owning SoA window over prepared INT operands.  `value` feeds the
/// bit-serial scheme (which streams raw two's-complement bits); `nib` holds
/// the signed radix-16 digits of the temporal scheme, plane-major under the
/// same padding contract as PreparedFp16View (digit i of element k is
/// nib[i*nib_stride + k]).
struct PreparedIntView {
  const int32_t* value = nullptr;
  const int8_t* nib = nullptr;
  size_t nib_stride = 0;  ///< owner's digit-plane stride in elements
  int lanes = 0;          ///< digit planes; 0 when value-only (serial scheme)
  size_t n = 0;

  const int8_t* nib_plane(int i) const {
    return nib + static_cast<size_t>(i) * nib_stride;
  }
  /// The window [offset, offset + len) of this view.
  PreparedIntView sub(size_t offset, size_t len) const {
    return {value + offset, nib + offset, nib_stride, lanes, len};
  }
};

/// Owning planes for INT operands quantized to `bits`-wide values.
class PreparedInt {
 public:
  PreparedInt() = default;

  int bits() const { return bits_; }
  int lanes() const { return lanes_; }
  size_t size() const { return value_.size(); }

  /// Set the element width (fixes the digit-plane stride) and size.  Pass
  /// with_digits = false to pack the raw value plane only (lanes() == 0):
  /// the bit-serial scheme streams two's-complement bits and never reads
  /// the radix-16 digit planes, so packing them would be dead weight on
  /// its tensors.
  void configure(int bit_width, bool is_unsigned, size_t n,
                 bool with_digits = true) {
    bits_ = bit_width;
    unsigned_ = is_unsigned;
    lanes_ = with_digits ? int_nibble_count(bit_width) : 0;
    resize(n);
  }

  size_t nib_stride() const { return stride_; }

  /// Bytes held by the planes (pads included).
  size_t bytes() const { return value_.size() * sizeof(int32_t) + nib_.size(); }

  void resize(size_t n) {
    value_.resize(n);
    stride_ = prepared_plane_stride(n);
    nib_.resize(stride_ * static_cast<size_t>(lanes_));
    for (int k = 0; k < lanes_; ++k) {
      std::fill(nib_.begin() + static_cast<ptrdiff_t>(
                                   static_cast<size_t>(k) * stride_ + n),
                nib_.begin() + static_cast<ptrdiff_t>(
                                   static_cast<size_t>(k + 1) * stride_),
                0);
    }
  }

  void set(size_t i, int32_t v) {
    value_[i] = v;
    if (lanes_ == 0) return;  // value-only packing
    const NibbleOperand nb =
        unsigned_ ? decompose_int_unsigned(v, bits_) : decompose_int(v, bits_);
    for (int k = 0; k < lanes_; ++k) {
      nib_[static_cast<size_t>(k) * stride_ + i] = nb.v[static_cast<size_t>(k)];
    }
  }

  void assign(std::span<const int32_t> vals, int bit_width,
              bool is_unsigned = false, bool with_digits = true);

  /// Adopt `src`'s (bits, signedness, digit stride) so gathers out of it
  /// land in a compatible layout.
  void match_layout(const PreparedInt& src) {
    bits_ = src.bits_;
    unsigned_ = src.unsigned_;
    lanes_ = src.lanes_;
  }

  void gather(const PreparedInt& src, std::span<const int32_t> rel,
              int64_t base, size_t dst_offset = 0);

  PreparedIntView view() const { return view(0, size()); }
  PreparedIntView view(size_t offset, size_t len) const {
    return {value_.data() + offset, nib_.data() + offset, stride_, lanes_, len};
  }

 private:
  int bits_ = 0;
  int lanes_ = 1;
  bool unsigned_ = false;
  std::vector<int32_t> value_;
  std::vector<int8_t> nib_;  ///< plane-major, stride_ elements per plane
  size_t stride_ = 0;
};

}  // namespace mpipu
