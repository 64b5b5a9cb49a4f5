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
// plus the shared knobs) and a factory, `make_datapath`, that wraps the
// scheme implementations behind a common accumulate / dot / readout / stats
// contract while preserving the bit-exact behaviour of each scheme.  The
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

/// Scheme-generic datapath parameters: the shared knobs of IpuConfig,
/// SerialIpuConfig and SpatialIpuConfig plus the scheme selector.  The
/// factory maps these onto the scheme's own config, clamping the adder-tree
/// width up to the scheme's minimum where multi-cycling requires it
/// (serial products occupy 13 bits, nibble products 10 with guard).
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
  /// Count only occupied alignment bands (§3.2 partition view).  NOTE:
  /// this unified default (false, the literal Fig. 5 serve loop) matches
  /// the standalone IpuConfig but NOT SpatialIpuConfig, whose standalone
  /// default is true -- set it explicitly when porting spatial code, and
  /// note the serial scheme models the serve loop only (the flag is
  /// ignored there).
  bool skip_empty_bands = false;
  /// Sparse ablation (temporal scheme only): skip all-zero nibble iterations.
  bool skip_zero_iterations = false;
  AccumulatorConfig accumulator{};

  /// Preset matching the scheme's *standalone* config defaults, defusing the
  /// skip_empty_bands footgun above: spatial gets occupied-band counting
  /// (SpatialIpuConfig's default), temporal/serial get the literal Fig. 5
  /// serve loop.  Start from this when porting scheme-specific code.
  static DatapathConfig for_scheme(DecompositionScheme s) {
    DatapathConfig c;
    c.scheme = s;
    c.skip_empty_bands = s == DecompositionScheme::kSpatial;
    return c;
  }
  /// Shorthand for for_scheme(kSpatial): a default-knob spatial datapath
  /// that cycle-counts like a directly constructed SpatialIpu.
  static DatapathConfig spatial_defaults() {
    return for_scheme(DecompositionScheme::kSpatial);
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

/// Scheme-generic datapath: FP16 inner products accumulated bit-exactly as
/// the wrapped scheme implementation computes them.
class Datapath {
 public:
  virtual ~Datapath() = default;

  const DatapathConfig& config() const { return cfg_; }
  /// 5x5-multiplier-equivalent lanes this scheme instantiates (the area
  /// denominator of the §5 comparison).
  virtual int multipliers() const = 0;

  /// Clear the accumulator (new output pixel); stats persist.
  virtual void reset_accumulator() = 0;

  /// Accumulate one FP16 inner product from pre-decomposed SoA operand
  /// planes (core/prepared.h) -- the hot-loop contract.  Per op only the
  /// EHU and the scheme's serve loop run, on scratch the unit owns; the
  /// caller streams views over planes it prepared once per tensor.
  virtual int fp16_accumulate_prepared(const PreparedFp16View& a,
                                       const PreparedFp16View& b) = 0;

  /// Accumulate a whole operand stream (one output element) in ops of
  /// `n_inputs` lanes, the last op taking the remainder; returns the
  /// cycles consumed.  Identical to fp16_accumulate_prepared on each chunk
  /// in order, which is what this default does; the temporal scheme serves
  /// the whole stream in one kernel call.
  virtual int64_t fp16_accumulate_stream(const PreparedFp16View& a,
                                         const PreparedFp16View& b,
                                         size_t n_inputs) {
    int64_t cycles = 0;
    for (size_t c0 = 0; c0 < a.n; c0 += n_inputs) {
      const size_t n = std::min(n_inputs, a.n - c0);
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
  virtual FixedPoint read_raw() const = 0;
  Fp16 read_fp16() const { return Fp16::round_from_fixed(read_raw()); }
  Fp32 read_fp32() const { return Fp32::round_from_fixed(read_raw()); }

  /// INT mode is scheme-dependent: temporal handles any nibble-decomposable
  /// width, serial is limited to 12-bit parallel operands, spatial is
  /// FP-only.  Callers must check before dispatching.
  virtual bool supports_int(int a_bits, int b_bits) const = 0;
  /// Accumulate one INT inner product from pre-packed digit/value planes
  /// (requires supports_int).
  virtual int int_accumulate_prepared(const PreparedIntView& a,
                                      const PreparedIntView& b, int a_bits,
                                      int b_bits) = 0;
  /// Compatibility entry; same prepare-on-the-fly contract as
  /// fp16_accumulate.
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
  virtual int64_t read_int() const = 0;

  virtual DatapathStats stats() const = 0;

 protected:
  explicit Datapath(const DatapathConfig& cfg) : cfg_(cfg) {}
  DatapathConfig cfg_;

 private:
  /// Scratch backing the compatibility entries, reused across ops.
  PreparedFp16 prep_a_, prep_b_;
  PreparedInt int_prep_a_, int_prep_b_;
};

/// Build the scheme implementation named by `cfg.scheme`.  The returned
/// unit computes bit-identical values and cycle counts to the directly
/// constructed Ipu / SerialIpu / SpatialIpu it wraps *with the same knob
/// values* -- the unified defaults are IpuConfig's, so a default-knob
/// SpatialIpu differs in skip_empty_bands (see the field note above).
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
