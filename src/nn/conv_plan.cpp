#include "nn/conv_plan.h"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace mpipu {

namespace {

[[noreturn]] void throw_non_finite_fp16(std::string_view context, size_t index,
                                        double value) {
  char v[32];
  std::snprintf(v, sizeof(v), "%.17g", value);
  throw std::invalid_argument(
      std::string(context) + ": value " + v + " at index " +
      std::to_string(index) +
      " does not round to a finite FP16 value (the FP16 datapath has no "
      "inf/NaN support; |v| must stay below 65520)");
}

}  // namespace

PreparedFp16 prepare_fp16_planes(std::span<const double> values,
                                 std::string_view context) {
  PreparedFp16 planes;
  planes.resize(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const Fp16 f = Fp16::from_double(values[i]);
    if (!f.is_finite()) [[unlikely]] {
      throw_non_finite_fp16(context, i, values[i]);
    }
    planes.set(i, f);
  }
  return planes;
}

PreparedInt prepare_int_planes(std::span<const double> values,
                               const QuantParams& params, bool with_digits) {
  PreparedInt planes;
  planes.assign(quantize(values, params), params.bits, params.is_unsigned,
                with_digits);
  return planes;
}

Tensor execute_fp16_plan_shard(const ConvPlan<PreparedFp16>& plan,
                               const PreparedFp16& in_planes, ThreadPool& pool,
                               std::span<const std::unique_ptr<Datapath>> units,
                               AccumKind accum, int co_begin, int co_end,
                               int y_begin, int y_end) {
  const bool to_fp16 = accum == AccumKind::kFp16;
  return run_conv_plan_shard<PreparedFp16>(
      plan, in_planes, pool, units, co_begin, co_end, y_begin, y_end,
      [](Datapath& dp, const PreparedFp16View& a, const PreparedFp16View& b) {
        dp.fp16_accumulate_stream(a, b);
      },
      [to_fp16](Datapath& dp) {
        return to_fp16 ? dp.read_fp16().to_double() : dp.read_fp32().to_double();
      });
}

Tensor execute_int_plan_shard(const ConvPlan<PreparedInt>& plan,
                              const PreparedInt& in_planes, ThreadPool& pool,
                              std::span<const std::unique_ptr<Datapath>> units,
                              int a_bits, int w_bits, const QuantParams& qa,
                              const QuantParams& qw, int co_begin, int co_end,
                              int y_begin, int y_end) {
  return run_conv_plan_shard<PreparedInt>(
      plan, in_planes, pool, units, co_begin, co_end, y_begin, y_end,
      [a_bits, w_bits](Datapath& dp, const PreparedIntView& a,
                       const PreparedIntView& b) {
        const auto chunk = static_cast<size_t>(dp.config().n_inputs);
        for (size_t c0 = 0; c0 < a.n; c0 += chunk) {
          const size_t n = std::min(chunk, a.n - c0);
          dp.int_accumulate_prepared(a.sub(c0, n), b.sub(c0, n), a_bits,
                                     w_bits);
        }
      },
      [&qa, &qw](Datapath& dp) {
        return dequantize_accumulator(dp.read_int(), qa, qw);
      });
}

}  // namespace mpipu
