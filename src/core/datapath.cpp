#include "core/datapath.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstdlib>

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

namespace {

// ---------------------------------------------------------------------------
// Temporal: wraps Ipu (nibble iterations).
// ---------------------------------------------------------------------------

class TemporalDatapath final : public Datapath {
 public:
  explicit TemporalDatapath(const DatapathConfig& cfg)
      : Datapath(cfg), ipu_(to_ipu_config(cfg)) {}

  static IpuConfig to_ipu_config(const DatapathConfig& cfg) {
    IpuConfig c;
    c.n_inputs = cfg.n_inputs;
    c.adder_tree_width = cfg.effective_adder_tree_width();
    c.software_precision = cfg.software_precision;
    c.multi_cycle = cfg.multi_cycle;
    c.skip_empty_bands = cfg.skip_empty_bands;
    c.skip_zero_iterations = cfg.skip_zero_iterations;
    c.accumulator = cfg.accumulator;
    return c;
  }

  int multipliers() const override { return cfg_.n_inputs; }
  void reset_accumulator() override { ipu_.reset_accumulator(); }
  int fp16_accumulate_prepared(const PreparedFp16View& a,
                               const PreparedFp16View& b) override {
    return ipu_.fp16_accumulate_prepared(a, b);
  }
  int64_t fp16_accumulate_stream(const PreparedFp16View& a,
                                 const PreparedFp16View& b,
                                 size_t n_inputs) override {
    return ipu_.fp16_accumulate_stream(a, b, n_inputs);
  }
  FixedPoint read_raw() const override { return ipu_.read_raw(); }
  bool supports_int(int a_bits, int b_bits) const override {
    return a_bits >= 2 && b_bits >= 2 && a_bits <= 4 * kMaxNibbles &&
           b_bits <= 4 * kMaxNibbles;
  }
  int int_accumulate_prepared(const PreparedIntView& a, const PreparedIntView& b,
                              int a_bits, int b_bits) override {
    return ipu_.int_accumulate_prepared(a, b, a_bits, b_bits);
  }
  int64_t read_int() const override { return ipu_.read_int(); }
  DatapathStats stats() const override {
    const IpuStats& s = ipu_.stats();
    DatapathStats d;
    d.fp_ops = s.fp_ops;
    d.int_ops = s.int_ops;
    d.cycles = s.cycles;
    d.nibble_iterations = s.nibble_iterations;
    d.masked_products = s.masked_products;
    d.multi_cycle_ops = s.multi_cycle_iterations;
    d.skipped_iterations = s.skipped_iterations;
    return d;
  }

 private:
  Ipu ipu_;
};

// ---------------------------------------------------------------------------
// Serial: wraps SerialIpu (bit-serial weights, 12x1 lanes).
// ---------------------------------------------------------------------------

class SerialDatapath final : public Datapath {
 public:
  explicit SerialDatapath(const DatapathConfig& cfg)
      : Datapath(cfg), ipu_(to_serial_config(cfg)) {}

  static SerialIpuConfig to_serial_config(const DatapathConfig& cfg) {
    SerialIpuConfig c;
    c.n_inputs = cfg.n_inputs;
    c.adder_tree_width = cfg.effective_adder_tree_width();
    c.software_precision = cfg.software_precision;
    c.multi_cycle = cfg.multi_cycle;
    c.accumulator = cfg.accumulator;
    return c;
  }

  int multipliers() const override { return cfg_.n_inputs; }
  void reset_accumulator() override { ipu_.reset_accumulator(); }
  int fp16_accumulate_prepared(const PreparedFp16View& a,
                               const PreparedFp16View& b) override {
    return ipu_.fp16_accumulate_prepared(a, b);
  }
  FixedPoint read_raw() const override { return ipu_.read_raw(); }
  bool supports_int(int a_bits, int b_bits) const override {
    // Full-parallel multiplicand is a 12-bit lane; b streams bit-serially.
    return a_bits >= 2 && b_bits >= 2 && a_bits <= 12 && b_bits <= 32;
  }
  int int_accumulate_prepared(const PreparedIntView& a, const PreparedIntView& b,
                              int a_bits, int b_bits) override {
    // The bit-serial INT path streams raw two's-complement values; the
    // prepared digit planes are a temporal-scheme notion it never reads.
    return ipu_.int_accumulate(std::span<const int32_t>(a.value, a.n),
                               std::span<const int32_t>(b.value, b.n), a_bits,
                               b_bits);
  }
  int64_t read_int() const override { return ipu_.read_int(); }
  DatapathStats stats() const override {
    const SerialIpuStats& s = ipu_.stats();
    DatapathStats d;
    d.fp_ops = s.fp_ops;
    d.int_ops = s.int_ops;
    d.cycles = s.cycles;
    return d;
  }

 private:
  SerialIpu ipu_;
};

// ---------------------------------------------------------------------------
// Spatial: wraps SpatialIpu (all nibble products in parallel).
// ---------------------------------------------------------------------------

class SpatialDatapath final : public Datapath {
 public:
  explicit SpatialDatapath(const DatapathConfig& cfg)
      : Datapath(cfg), ipu_(to_spatial_config(cfg)) {}

  static SpatialIpuConfig to_spatial_config(const DatapathConfig& cfg) {
    SpatialIpuConfig c;
    c.n_inputs = cfg.n_inputs;
    c.adder_tree_width = cfg.effective_adder_tree_width();
    c.software_precision = cfg.software_precision;
    c.multi_cycle = cfg.multi_cycle;
    c.skip_empty_bands = cfg.skip_empty_bands;
    c.accumulator = cfg.accumulator;
    return c;
  }

  int multipliers() const override {
    return cfg_.n_inputs * SpatialIpu::multipliers_per_input<kFp16Format>();
  }
  void reset_accumulator() override { ipu_.reset_accumulator(); }
  int fp16_accumulate_prepared(const PreparedFp16View& a,
                               const PreparedFp16View& b) override {
    return ipu_.fp16_accumulate_prepared(a, b);
  }
  FixedPoint read_raw() const override { return ipu_.read_raw(); }
  bool supports_int(int, int) const override { return false; }
  // Hard aborts (not asserts): in a Release build a silent 0 here would
  // masquerade as a valid INT result.
  int int_accumulate_prepared(const PreparedIntView&, const PreparedIntView&,
                              int, int) override {
    std::fprintf(stderr, "Datapath: spatial scheme is FP-only\n");
    std::abort();
  }
  int64_t read_int() const override {
    std::fprintf(stderr, "Datapath: spatial scheme is FP-only\n");
    std::abort();
  }
  DatapathStats stats() const override {
    const SpatialIpuStats& s = ipu_.stats();
    DatapathStats d;
    d.fp_ops = s.fp_ops;
    d.cycles = s.cycles;
    d.multi_cycle_ops = s.multi_cycle_ops;
    return d;
  }

 private:
  SpatialIpu ipu_;
};

}  // namespace

std::unique_ptr<Datapath> make_datapath(const DatapathConfig& cfg) {
  assert(cfg.n_inputs >= 1);
  switch (cfg.scheme) {
    case DecompositionScheme::kTemporal:
      return std::make_unique<TemporalDatapath>(cfg);
    case DecompositionScheme::kSerial:
      return std::make_unique<SerialDatapath>(cfg);
    case DecompositionScheme::kSpatial:
      return std::make_unique<SpatialDatapath>(cfg);
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
