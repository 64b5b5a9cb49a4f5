// Portable SIMD kernels for the prepared-operand serve loops.
//
// The bit-accurate scheme models (core/ipu.cpp, core/serial_ipu.cpp,
// core/spatial_ipu.h) keep their scalar serve loops verbatim as the oracle;
// this layer provides drop-in vector kernels that compute the exact same
// integer sums, shifts and band assignments -- byte-identical outputs,
// stats and cycle counts -- just faster.  The table also carries the one
// kernel outside the serve loops: the mt19937_64 refill behind the cycle
// simulator's random draws (sim/sampler.h).  Two backends:
//
//   * scalar -- plain-C++ reference implementations, always available; also
//     the oracle the equality tests (tests/test_simd_kernels.cpp) pin the
//     AVX2 backend against, and the only backend on non-x86 hosts.
//   * avx2   -- compiled into every x86-64 build (kernels_avx2.cpp is the
//     one TU built with -mavx2) and handed out only when the CPU reports
//     AVX2 at run time.
//
// Backend selection happens once at startup (avx2 when the CPU has it,
// else scalar) and can be overridden by the MPIPU_KERNEL environment
// variable ("scalar"/"avx2"/"auto"; anything else is an error) or
// programmatically via force_backend() (the hook the differential tests
// use to run both backends in one process).  When the active backend is kScalar the schemes take their
// scalar oracle paths and this layer is never consulted for values.
//
// PADDING / ALIGNMENT CONTRACT -- what core/prepared.h guarantees:
//
//   * prepared nibble/digit data is plane-major (one contiguous plane per
//     nibble lane), with plane strides rounded up to kPreparedPlanePad (32)
//     elements, so plane starts sit on 32-byte boundaries relative to the
//     buffer base;
//   * the pad tail [size, stride) of every plane is zero-filled;
//   * views may window into the middle of a tensor (conv chunking), in
//     which case the bytes past view.n are LIVE neighbor data, not pad.
//
// Kernels therefore process whole vectors only below the view length and
// finish with a scalar tail -- they never read past `n` on caller-provided
// planes, so the zero pads are a layout/alignment guarantee, not a
// correctness dependency.
//
// FUSED WHOLE-OP KERNELS -- the serial and spatial serve loops issue one
// EHU call and one band-sum call per op (ops are small -- typically
// n_inputs <= 16 lanes -- so per-call fixed costs dominate the emulation
// wall clock).  The band-sum kernels hold one int32 value per lane and sum
// bands in int64; the drivers check the config-derived lane bound
// (kSerialFusedMaxGuard / kSpatialFusedMaxGuard) and n <= kFusedLanes
// before dispatching, and own serve planes padded to kFusedLanes entries
// (band pad -1, shift/value pads 0).
//
// TEMPORAL STREAM KERNEL -- the temporal scheme goes one step further: one
// call serves an output element's whole operand stream, op after op in
// stream order.  Per op it runs the EHU, the serve shifts, the nine nibble
// products and their band sums (int32 lanes, int64 sums, admitted for
// guard <= kNibbleFusedMaxGuard) and the 9 x bands accumulator adds, with
// the accumulator register, its exponent, its empty flag and the counters
// held in registers across the stream.  The adds reproduce Accumulator::
// add exactly: all adds of one op share in_exp = the op's max product
// exponent, so an old register below it is shifted down once per op
// (first add), each add then shifts its tree sum by rescale and by the
// register's exponent lead, and clamps to the register width in (i, j, c)
// order; an empty register takes the first nonzero add as is.  The driver
// admits only configs whose register and shifted sums fit int64
// (Accumulator::fast64_ok).
//
// Operand planes are never read past an op's n: the vector backends stage
// short views through zero-filled local buffers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mpipu::simd {

/// Serve-band cap for the band-sum kernels: one vector accumulator per
/// band, so ops needing more bands than this fall back to the scalar
/// oracle (bit-identical either way; alignment spreads that wide are rare).
inline constexpr int kMaxBands = 8;

/// Lane capacity of the fused whole-op kernels and of one temporal stream
/// op: one op fits two 8-lane int32 vector registers.  Ops with more lanes
/// take the scalar oracle (bit-identical either way).
inline constexpr size_t kFusedLanes = 16;

/// Largest window guard (w - 10) the temporal stream kernel admits.  Every
/// window shift is an up-shift of at most max(guard, 0) or a down-shift, so
/// a lane value |((a_i*b_j) >> down) << up| <= 225 * 2^guard, which fits
/// int32 for guard <= 23 (225 * 2^23 < 2^31 <= 225 * 2^24): w <= 33.
inline constexpr int kNibbleFusedMaxGuard = 23;

/// Largest window guard (w - 13) the serial fused path admits: a shifted
/// multiplicand |v| <= 2047 * 2^guard fits int32 for guard <= 20
/// (2047 * 2^20 < 2^31 <= 2047 * 2^21): w <= 33.
inline constexpr int kSerialFusedMaxGuard = 20;

/// Largest window guard (w - 10) the spatial fused kernel admits.  A served
/// lane value is one nibble diagonal: at most three products |a_i*b_j| <=
/// 225, each shifted up by at most max(guard, 0) or down, so |value| <=
/// 675 * 2^guard, which fits int32 for guard <= 21 (675 * 2^21 < 2^31 <=
/// 675 * 2^22): w <= 31.
inline constexpr int kSpatialFusedMaxGuard = 21;

/// Bit steps of the serial scheme (11 magnitude bits + 1 pad); the fused
/// serial kernel hard-codes this many per-step sums.
inline constexpr int kSerialSteps = 12;

/// State size of the mt19937_64 engine (words): one refill twists the whole
/// state and yields this many outputs.
inline constexpr size_t kMt64Words = 312;

enum class Backend { kScalar = 0, kAvx2 = 1 };

/// Operands and config of one KernelTable::temporal_stream_i32 call.  The
/// stream is `len` prepared FP16 elements (core/prepared.h planes) served
/// in ops of `chunk` lanes, the last op taking the remainder.
struct TemporalStreamArgs {
  const int32_t* a_exp;  ///< exponent plane of a (`len` readable)
  const int8_t* a_nib;   ///< nibble planes of a, plane i at a_nib + i*a_stride
  size_t a_stride;
  const int32_t* b_exp;
  const int8_t* b_nib;
  size_t b_stride;
  size_t len;    ///< stream elements
  size_t chunk;  ///< lanes per op, 1 <= chunk <= kFusedLanes
  int32_t soft;  ///< software precision, < 2^16
  int32_t sp;    ///< safe precision w - 9, >= 1 in MC mode
  int32_t guard;   ///< window guard w - 10, <= kNibbleFusedMaxGuard
  int32_t window;  ///< w, the single-cycle local-shift clamp
  int32_t register_width;  ///< accumulator register bits, 2..62
  int single_cycle;
  int skip_empty_bands;
  int skip_zero_iterations;
  /// rescale[c*9 + i*3 + j]: the shift of band c's iteration (i, j) adder
  /// tree sum into the accumulator's fixed point (left when >= 0), in
  /// [-63, 62 - 12 - max(guard, 0)]; all 9 * kMaxBands entries readable
  /// (single-cycle ops use c == 0 only).
  const int32_t* rescale;
};

/// What a temporal stream carries in registers: the accumulator (loaded on
/// entry, stored on exit) and the counters it adds to.
struct TemporalStreamState {
  int64_t reg;         ///< accumulator register, fits register_width bits
  int32_t exp;         ///< accumulator exponent; ignored while empty
  int32_t empty;       ///< 1 until the first nonzero add
  int32_t overflowed;  ///< sticky: some add clamped to the register width
  int64_t ops;         ///< ops served (each is 9 nibble iterations)
  int64_t cycles;
  int64_t masked_products;
  int64_t multi_cycle_iterations;
  int64_t skipped_iterations;
};

/// Function-pointer table of every kernel, one instance per backend.  The
/// scheme hot loops fetch the active table once per op; entries a vector
/// backend does not implement point at the scalar reference functions.
/// Every entry has a caller outside core/simd (tools/lint rule
/// kernel-table-live).
struct KernelTable {
  // --- serve-loop constant planes (serial scheme) ---
  /// serve_band[k] = -1 for masked lanes (band[k] < 0), else 0 in
  /// single-cycle mode or band[k] in MC mode; up/down[k] = the split net
  /// window shift max(net, 0) / max(-net, 0), zero on masked lanes.
  void (*serve_shifts_i32)(const int32_t* align, const int32_t* band, size_t n,
                           int32_t guard, int32_t sp, int single_cycle,
                           int32_t window, int32_t* serve_band, int32_t* up,
                           int32_t* down);

  // --- serial scheme ---
  /// mag[k] = |b_sm[k]| << 1 (the padded weight magnitude);
  /// lane_p[k] = b_sm[k] < 0 ? -a_sm[k] : a_sm[k].
  void (*serial_lanes_i32)(const int32_t* a_sm, const int32_t* b_sm, size_t n,
                           uint32_t* mag, int32_t* lane_p);
  /// v[k] = (p[k] >> down[k]) << up[k], precomputed once per op.
  void (*shifted_lanes_i32)(const int32_t* p, const int32_t* up,
                            const int32_t* down, size_t n, int32_t* v);

  // --- fused whole-op kernels (see the header comment) ---
  /// Fused EHU stages 1-5 on prepared exponent planes, one call per op:
  /// align[k] = mx - (ea[k] + eb[k]) with mx = max product exponent;
  /// band[k] = -1 where align[k] > soft, else align[k] / sp.  Also returns
  /// every wrap-up reduction the serve drivers need: *max_exp = mx,
  /// *occupancy = OR over unmasked lanes of 1u << min(band, 31),
  /// *max_band = max unmasked band (-1 when all lanes are masked) and
  /// *n_masked = masked-lane count.  Returns false -- outputs
  /// unspecified -- when soft >= 2^16 or mx - mn >= 2^16 (the magic-divide
  /// bound); callers then fall back to the scalar oracle.  n >= 1.
  bool (*ehu_fused_i32)(const int32_t* ea, const int32_t* eb, size_t n,
                        int32_t soft, int32_t sp, int32_t* align,
                        int32_t* band, int32_t* max_exp, uint32_t* occupancy,
                        int32_t* max_band, int32_t* n_masked);
  /// The temporal FP16 serve of a whole operand stream -- every chunk of
  /// one output element -- in a single call.  See TemporalStreamArgs for
  /// the operands and config and the header comment for the per-op work;
  /// st's accumulator registers are read on entry and written on exit, its
  /// counters are incremented.  Returns the offset (a multiple of
  /// args.chunk) of the first op it did not serve: args.len when it served
  /// them all, else the op whose EHU spread (max - min product exponent
  /// over its n lanes) is 2^16 or more, or, in MC mode, that needs more
  /// than kMaxBands bands.  Every op before that offset is served and
  /// counted; the driver serves that op on the scalar oracle and resumes.
  size_t (*temporal_stream_i32)(const TemporalStreamArgs* args,
                                TemporalStreamState* st);
  /// All kSerialSteps serial bit-steps of one op in a single call:
  /// sums[c*kSerialSteps + t] = sum over k with band[k]==c and bit t of
  /// mag[k] set of v[k], exact int64 for any int32 v.  SET semantics for
  /// c < bands.  Preconditions: n <= kFusedLanes, bands <= kMaxBands,
  /// v/mag/band readable and padded through kFusedLanes (v/mag pads 0,
  /// band pads -1).
  void (*serial_fused_i32)(const int32_t* v, const uint32_t* mag,
                           const int32_t* band, size_t n, int bands,
                           int64_t* sums);
  /// The whole spatial FP16 serve of one op in a single call.  Every lane
  /// k with band[k] >= 0 (the EHU's unmasked lanes) serves its five nibble
  /// diagonals s in [0, 5) at shift = align[k] + offs0 - 4*s: in MC mode
  /// (single_cycle == 0) into band c = shift / sp at local = shift - c*sp,
  /// in single-cycle mode into band 0 at local = min(shift, window).  With
  /// up/down = max(+-(guard - local), 0), diagonal s serves the value
  /// sum over i + j == s of ((a_i[k] * b_j[k]) >> down) << up.
  /// sums[c] = exact int64 sum of the values served in band c, SET
  /// semantics for c < bands = max(*max_band, 0) + 1 (slots through
  /// kMaxBands may be overwritten); *max_band = max served band (-1 when
  /// every lane is masked); *occupancy = OR of 1u << min(c, 31) over the
  /// served (k, s).  Returns false -- sums unspecified -- when
  /// *max_band >= kMaxBands.  Preconditions: n <= kFusedLanes; align/band
  /// readable and padded through kFusedLanes (band pad -1); every served
  /// value fits int32 (the spatial driver checks guard <=
  /// kSpatialFusedMaxGuard); 0 <= shift < 2^17; in MC mode 1 <= sp <=
  /// guard + 1 (so down == 0) and sp <= 2^15 (the magic-divide range).
  bool (*spatial_fused_i32)(const int8_t* a, size_t a_stride, const int8_t* b,
                            size_t b_stride, const int32_t* align,
                            const int32_t* band, size_t n, int32_t offs0,
                            int32_t sp, int32_t guard, int single_cycle,
                            int32_t window, int64_t* sums, int32_t* max_band,
                            uint32_t* occupancy);

  // --- INT modes ---
  /// Exact dot product of two int8 digit planes (|a*b| <= 225 per lane).
  int64_t (*dot_i8)(const int8_t* a, const int8_t* b, size_t n);
  /// sum of a[k] over lanes whose bit t of b[k] is set; |a[k]| < 2^12.
  int64_t (*bit_masked_sum_i32)(const int32_t* a, const int32_t* b, int t,
                                size_t n);

  // --- cycle simulator randomness (sim/sampler.h) ---
  /// One mt19937_64 generation step: twists the kMt64Words-word state in
  /// place and writes the tempered words, out[k] = temper(state[k]) -- the
  /// next kMt64Words outputs of std::mt19937_64, in order.  state and out
  /// must not overlap.
  void (*mt19937_64_refill)(uint64_t* state, uint64_t* out);
};

/// The backend all scheme hot loops currently dispatch on.
Backend active_backend();

/// Kernel table of the active backend (kernels_for(active_backend())).
const KernelTable& kernels();

/// Table for a specific backend; nullptr when this binary or this CPU
/// cannot run it.
const KernelTable* kernels_for(Backend b);

/// True when `b`'s kernels are compiled into this binary and this CPU runs
/// them (kAvx2: an x86-64 build on a CPU with AVX2).
bool backend_compiled(Backend b);

/// Force the active backend (tests / debugging).  Returns false -- and
/// leaves the selection unchanged -- when !backend_compiled(b).
bool force_backend(Backend b);

/// The startup backend an MPIPU_KERNEL value selects: "scalar" pins the
/// scalar backend; "avx2", "auto", an empty value and null (unset) pick
/// AVX2 when this CPU runs it, else scalar.  Any other value (a typo, a
/// different case, a removed backend) throws std::invalid_argument naming
/// scalar|avx2|auto, so it cannot silently select the vector kernels.
Backend backend_from_env(const char* value);

/// Reset to the startup selection: backend_from_env(MPIPU_KERNEL).
void reset_backend();

const char* backend_name(Backend b);
/// Name of the active backend ("scalar" / "avx2").
const char* backend_name();

}  // namespace mpipu::simd
