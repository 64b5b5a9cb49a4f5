// Unified datapath abstraction over the three decomposition schemes (§5).
//
// The paper's MC alignment-banding optimization "is orthogonal to the
// decomposition scheme (i.e., temporal, serial, spatial)": the same EHU,
// accumulator and reference models serve
//
//   * temporal  -- `Ipu` (src/core/ipu.h): 5x5 nibble multipliers, Ka*Kb
//                  nibble iterations per op;
//   * serial    -- `SerialIpu` (src/core/serial_ipu.h): 12x1 bit-serial
//                  lanes, 12 weight-bit steps per FP16 op;
//   * spatial   -- `SpatialIpu` (src/core/spatial_ipu.h): all Ka*Kb nibble
//                  products in parallel on Ka*Kb*n multipliers.
//
// `Datapath` is the scheme-generic view: one `DatapathConfig` (scheme enum
// plus the shared knobs), one `DatapathStats`, and the state every scheme
// holds identically (the accumulator and the counters).  The three units
// above are its implementations, and `make_datapath` builds the one
// `cfg.scheme` names -- the same object a direct construction gives.  The
// conv plan executors (src/nn/conv_plan.h, driven by CompiledModel), the
// cycle simulator's tile costing (src/sim) and the decomposition-scheme
// benches all route through this interface, so every workload can run on
// every scheme.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>

#include "common/fixed_point.h"
#include "core/accumulator.h"
#include "core/prepared.h"
#include "softfloat/softfloat.h"

namespace mpipu {

/// The three decomposition schemes of §5.
enum class DecompositionScheme { kTemporal, kSerial, kSpatial };

const char* scheme_name(DecompositionScheme s);

/// Datapath parameters: the scheme selector plus the knobs every scheme
/// shares.  Each unit works at effective_adder_tree_width(), the requested
/// width clamped up to the scheme's minimum where multi-cycling requires
/// it (serial products occupy 13 bits, nibble products 10 with guard).
struct DatapathConfig {
  DecompositionScheme scheme = DecompositionScheme::kTemporal;
  /// Number of input pairs n the unit accepts per operation.
  int n_inputs = 16;
  /// Requested adder tree / local shifter precision w ("IPU precision").
  int adder_tree_width = 28;
  /// Software accuracy requirement: maximum alignment honored (16 for FP16
  /// accumulation, 28 for FP32 accumulation; §3.1).
  int software_precision = 28;
  /// MC alignment banding when true; single-cycle truncating window if not.
  bool multi_cycle = true;
  /// Count only occupied alignment bands (§3.2 partition view) instead of
  /// the literal Fig. 5 serve loop.  for_scheme(kSpatial) sets it; the
  /// serial scheme models the serve loop only (the flag is ignored there).
  bool skip_empty_bands = false;
  /// Sparse ablation (temporal scheme only): skip all-zero nibble iterations.
  bool skip_zero_iterations = false;
  AccumulatorConfig accumulator{};

  /// The default knobs of scheme `s`: spatial gets occupied-band counting,
  /// temporal and serial the literal Fig. 5 serve loop.  Serial and
  /// spatial units must be built from a config naming their scheme, so
  /// start from this.
  static DatapathConfig for_scheme(DecompositionScheme s) {
    DatapathConfig c;
    c.scheme = s;
    c.skip_empty_bands = s == DecompositionScheme::kSpatial;
    return c;
  }

  friend bool operator==(const DatapathConfig&, const DatapathConfig&) = default;

  /// Bits one lane product occupies in the adder-tree window (9-bit nibble
  /// product + guard for temporal/spatial; 13-bit serial product).
  int product_window_bits() const {
    return scheme == DecompositionScheme::kSerial ? 13 : 10;
  }
  /// Smallest window the scheme's implementation accepts for this mode.
  int min_adder_tree_width() const {
    if (scheme == DecompositionScheme::kSerial) return 13;
    return multi_cycle ? 10 : 2;
  }
  /// Width actually instantiated: the request clamped to the scheme minimum.
  int effective_adder_tree_width() const {
    return std::max(adder_tree_width, min_adder_tree_width());
  }
  /// Safe precision sp of Proposition 1 for the effective width.
  int safe_precision() const {
    return effective_adder_tree_width() - (product_window_bits() - 1);
  }
};

/// Unified running statistics; fields a scheme does not model stay zero.
struct DatapathStats {
  int64_t fp_ops = 0;
  int64_t int_ops = 0;
  int64_t cycles = 0;
  int64_t nibble_iterations = 0;   ///< temporal only
  int64_t masked_products = 0;     ///< temporal only
  int64_t multi_cycle_ops = 0;     ///< ops (spatial) / iterations (temporal) > 1 cycle
  int64_t skipped_iterations = 0;  ///< temporal sparse ablation

  DatapathStats& operator+=(const DatapathStats& o) {
    fp_ops += o.fp_ops;
    int_ops += o.int_ops;
    cycles += o.cycles;
    nibble_iterations += o.nibble_iterations;
    masked_products += o.masked_products;
    multi_cycle_ops += o.multi_cycle_ops;
    skipped_iterations += o.skipped_iterations;
    return *this;
  }
  DatapathStats& operator-=(const DatapathStats& o) {
    fp_ops -= o.fp_ops;
    int_ops -= o.int_ops;
    cycles -= o.cycles;
    nibble_iterations -= o.nibble_iterations;
    masked_products -= o.masked_products;
    multi_cycle_ops -= o.multi_cycle_ops;
    skipped_iterations -= o.skipped_iterations;
    return *this;
  }
  /// Counter delta (e.g. per-layer work = after - before on a running unit).
  friend DatapathStats operator-(DatapathStats a, const DatapathStats& b) {
    a -= b;
    return a;
  }
  friend bool operator==(const DatapathStats&, const DatapathStats&) = default;
};

/// Result of one self-contained inner product (`Datapath::dot`).
struct DotResult {
  FixedPoint raw{0, 0};  ///< exact view of the accumulator's kept bits
  int cycles = 0;

  template <FpFormat Out>
  Soft<Out> rounded() const {
    return Soft<Out>::round_from_fixed(raw);
  }
  Fp16 fp16() const { return rounded<kFp16Format>(); }
  Fp32 fp32() const { return rounded<kFp32Format>(); }
};

/// Scheme-generic datapath: FP16 (and, where the scheme has it, INT) inner
/// products accumulated bit-exactly as the scheme computes them.  Ipu,
/// SerialIpu and SpatialIpu implement it; each also keeps its own per-op
/// reference entries (decode and decompose per op), which the tests use as
/// oracles for the prepared paths below.
class Datapath {
 public:
  virtual ~Datapath() = default;

  const DatapathConfig& config() const { return cfg_; }
  /// Running counters over everything this unit executed; fields the
  /// scheme does not model stay zero.
  const DatapathStats& stats() const { return stats_; }
  /// 5x5-multiplier-equivalent lanes this scheme instantiates (the area
  /// denominator of the §5 comparison).
  virtual int multipliers() const { return cfg_.n_inputs; }
  /// Guard placement: an unshifted lane product occupies the top of the
  /// w-bit window, i.e. is pre-shifted left by the effective width minus
  /// the product's window bits.
  int window_guard() const {
    return cfg_.effective_adder_tree_width() - cfg_.product_window_bits();
  }

  /// Clear the accumulator (new output pixel); stats persist, and so does
  /// the accumulator's overflow flag.
  void reset_accumulator() {
    acc_.reset();
    int_acc_ = 0;
  }

  /// Accumulate one FP16 inner product from pre-decomposed SoA operand
  /// planes (core/prepared.h) -- the hot-loop contract.  Per op only the
  /// EHU and the scheme's serve loop run, on scratch the unit owns; the
  /// caller streams views over planes it prepared once per tensor.
  virtual int fp16_accumulate_prepared(const PreparedFp16View& a,
                                       const PreparedFp16View& b) = 0;

  /// Accumulate a whole operand stream (one output element) in ops of
  /// config().n_inputs lanes, the last op taking the remainder; returns
  /// the cycles consumed.  Identical to fp16_accumulate_prepared on each
  /// chunk in order, which is what this default does; the temporal scheme
  /// serves the whole stream in one kernel call.
  virtual int64_t fp16_accumulate_stream(const PreparedFp16View& a,
                                         const PreparedFp16View& b) {
    const auto chunk = static_cast<size_t>(cfg_.n_inputs);
    int64_t cycles = 0;
    for (size_t c0 = 0; c0 < a.n; c0 += chunk) {
      const size_t n = std::min(chunk, a.n - c0);
      cycles += fp16_accumulate_prepared(a.sub(c0, n), b.sub(c0, n));
    }
    return cycles;
  }

  /// Accumulate one FP16 inner product a.b; returns datapath cycles.
  /// Compatibility entry: prepares the spans on the fly into unit-owned
  /// scratch and runs the prepared path, so both entries are bit- and
  /// cycle-identical by construction.  Prefer preparing whole tensors and
  /// calling fp16_accumulate_prepared on hot paths.
  int fp16_accumulate(std::span<const Fp16> a, std::span<const Fp16> b) {
    prep_a_.assign(a);
    prep_b_.assign(b);
    return fp16_accumulate_prepared(prep_a_.view(), prep_b_.view());
  }

  /// One self-contained inner product: reset, accumulate, read.  This is
  /// the unified cross-scheme contract the differential tests pin down.
  DotResult dot(std::span<const Fp16> a, std::span<const Fp16> b) {
    reset_accumulator();
    DotResult r;
    r.cycles = fp16_accumulate(a, b);
    r.raw = read_raw();
    return r;
  }

  /// Raw non-normalized accumulator value (exact view of kept bits).
  FixedPoint read_raw() const { return acc_.value(); }
  /// The FP accumulator rounded (RNE) to the destination format.
  template <FpFormat Out>
  Soft<Out> read_fp() const {
    return Soft<Out>::round_from_fixed(read_raw());
  }
  Fp16 read_fp16() const { return read_fp<kFp16Format>(); }
  Fp32 read_fp32() const { return read_fp<kFp32Format>(); }
  /// Sticky: some add since construction clamped to the register width.
  bool accumulator_overflowed() const { return acc_.overflowed(); }

  /// INT mode is scheme-dependent: temporal handles any nibble-decomposable
  /// width, serial is limited to 12-bit parallel operands, spatial is
  /// FP-only.  Callers must check before dispatching.
  virtual bool supports_int(int a_bits, int b_bits) const = 0;
  /// Accumulate one INT inner product from pre-packed digit/value planes
  /// (requires supports_int).
  virtual int int_accumulate_prepared(const PreparedIntView& a,
                                      const PreparedIntView& b, int a_bits,
                                      int b_bits) = 0;
  /// Accumulate one signed INT inner product; same prepare-on-the-fly
  /// contract as fp16_accumulate.
  int int_accumulate(std::span<const int32_t> a, std::span<const int32_t> b,
                     int a_bits, int b_bits) {
    // The bit-serial scheme streams raw values; don't pack digit planes it
    // will never read.
    const bool digits = cfg_.scheme != DecompositionScheme::kSerial;
    int_prep_a_.assign(a, a_bits, false, digits);
    int_prep_b_.assign(b, b_bits, false, digits);
    return int_accumulate_prepared(int_prep_a_.view(), int_prep_b_.view(),
                                   a_bits, b_bits);
  }
  /// INT-mode accumulator value.
  virtual int64_t read_int() const { return int_acc_; }

 protected:
  /// Throws std::invalid_argument unless cfg.scheme is `scheme`, the one
  /// the implementation models.
  Datapath(const DatapathConfig& cfg, DecompositionScheme scheme);

  DatapathConfig cfg_;
  Accumulator acc_;
  int64_t int_acc_ = 0;
  DatapathStats stats_;

 private:
  /// Scratch backing the compatibility entries, reused across ops.
  PreparedFp16 prep_a_, prep_b_;
  PreparedInt int_prep_a_, int_prep_b_;
};

/// Build the unit `cfg.scheme` names: an Ipu, SerialIpu or SpatialIpu,
/// identical to constructing it directly from `cfg`.
std::unique_ptr<Datapath> make_datapath(const DatapathConfig& cfg);

// ---------------------------------------------------------------------------
// Scheme-generic tile costing (cycle simulator).
// ---------------------------------------------------------------------------

/// Sentinel exponent for a masked (zero-operand) product in the costing
/// model: far below every live product, so it is always EHU-masked.
inline constexpr int kMaskedProductExp = INT32_MIN / 4;

/// Base steps per FP16 inner product: 9 nibble iterations (temporal),
/// 12 weight-bit steps (serial), 1 all-parallel step (spatial).
int fp16_iterations_per_op(DecompositionScheme s);

/// Service time (cycles) of one FP16 inner-product op given its product
/// exponents -- the §3.2 banding model generalized across schemes.  For the
/// spatial scheme the band set combines each alignment with the nine static
/// nibble-significance offsets (significance rides on top of alignment).
int fp16_op_service_cycles(std::span<const int> product_exps,
                           const DatapathConfig& cfg);

}  // namespace mpipu
