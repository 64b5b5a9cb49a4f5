#include "core/datapath.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <string>

#include "core/ipu.h"
#include "core/nibble.h"
#include "core/serial_ipu.h"
#include "core/spatial_ipu.h"

namespace mpipu {

const char* scheme_name(DecompositionScheme s) {
  switch (s) {
    case DecompositionScheme::kTemporal: return "temporal";
    case DecompositionScheme::kSerial: return "serial";
    case DecompositionScheme::kSpatial: return "spatial";
  }
  return "?";
}

Datapath::Datapath(const DatapathConfig& cfg, DecompositionScheme scheme)
    : cfg_(cfg), acc_(cfg.accumulator) {
  if (cfg.scheme != scheme) {
    throw std::invalid_argument(std::string("Datapath: a ") +
                                scheme_name(scheme) +
                                " unit was given a config naming the " +
                                scheme_name(cfg.scheme) + " scheme");
  }
  assert(cfg.n_inputs >= 1);
}

std::unique_ptr<Datapath> make_datapath(const DatapathConfig& cfg) {
  switch (cfg.scheme) {
    case DecompositionScheme::kTemporal: return std::make_unique<Ipu>(cfg);
    case DecompositionScheme::kSerial: return std::make_unique<SerialIpu>(cfg);
    case DecompositionScheme::kSpatial: return std::make_unique<SpatialIpu>(cfg);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Scheme-generic tile costing.
// ---------------------------------------------------------------------------

int fp16_iterations_per_op(DecompositionScheme s) {
  switch (s) {
    case DecompositionScheme::kTemporal:
      return fp_nibble_count(kFp16Format) * fp_nibble_count(kFp16Format);  // 9
    case DecompositionScheme::kSerial:
      return kFp16Format.sig_bits() + 1;  // 12 weight-bit steps
    case DecompositionScheme::kSpatial:
      return 1;
  }
  return 1;
}

namespace {

/// Static nibble-significance offsets of the spatial scheme's nine FP16
/// lane products: top_weight - (wi + wj) with wi, wj in {-1, 3, 7}.
constexpr std::array<int, 9> fp16_spatial_offsets() {
  constexpr int kn = fp_nibble_count(kFp16Format);
  constexpr int z = fp_pad_bits(kFp16Format);
  constexpr int top_weight = 2 * (4 * (kn - 1) - z);
  std::array<int, 9> offs{};
  int idx = 0;
  for (int i = 0; i < kn; ++i) {
    for (int j = 0; j < kn; ++j) {
      offs[static_cast<size_t>(idx++)] = top_weight - (4 * i - z) - (4 * j - z);
    }
  }
  return offs;
}

}  // namespace

int fp16_op_service_cycles(std::span<const int> product_exps,
                           const DatapathConfig& cfg) {
  const int iters = fp16_iterations_per_op(cfg.scheme);
  int max_exp = kMaskedProductExp;
  int min_live = INT32_MAX;
  for (int e : product_exps) {
    max_exp = std::max(max_exp, e);
    min_live = std::min(min_live, e == kMaskedProductExp ? INT32_MAX : e);
  }
  if (!cfg.multi_cycle || max_exp == kMaskedProductExp) return iters;

  const int sp = std::max(cfg.safe_precision(), 1);
  const bool spatial = cfg.scheme == DecompositionScheme::kSpatial;
  // Every live alignment below sp: the band loop below would find at most
  // band 0 occupied (lanes past the software precision only drop out), and
  // both band counts charge that as one band.
  if (!spatial && max_exp - min_live < sp) return iters;
  static constexpr std::array<int, 9> kSpatialOffsets = fp16_spatial_offsets();

  // Only the occupied-band count needs every live lane's band; the serve
  // loop's count is the highest band, that of the largest live alignment.
  if (!cfg.skip_empty_bands) {
    int max_d = -1;
    for (int e : product_exps) {
      if (e == kMaskedProductExp) continue;
      const int d = max_exp - e;
      if (d <= cfg.software_precision) max_d = std::max(max_d, d);
    }
    if (max_d < 0) return iters;
    static constexpr int kMaxSpatialOffset =
        *std::max_element(kSpatialOffsets.begin(), kSpatialOffsets.end());
    return iters *
           (std::min((max_d + (spatial ? kMaxSpatialOffset : 0)) / sp, 63) + 1);
  }

  uint64_t occupied = 0;  // bit b set <=> band b occupied
  for (int e : product_exps) {
    if (e == kMaskedProductExp) continue;
    const int d = max_exp - e;
    if (d > cfg.software_precision) continue;
    if (spatial) {
      for (int off : kSpatialOffsets) {
        occupied |= uint64_t{1} << std::min((d + off) / sp, 63);
      }
    } else {
      occupied |= uint64_t{1} << std::min(d / sp, 63);
    }
  }
  const int bands = std::max(1, __builtin_popcountll(occupied));
  return iters * bands;
}

}  // namespace mpipu
