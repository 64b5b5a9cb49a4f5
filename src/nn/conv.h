// Convolution vocabulary and the exact host-double reference ("FP32 CPU")
// every datapath result is judged against.
//
// ConvSpec and AccumKind describe a conv layer and its FP16 accumulation
// destination; the bit-accurate execution of such a layer lives in
// nn/conv_plan.h and is driven through GraphModel -> CompiledModel
// (api/compiled_model.h).  conv_reference, dgrad_reference and
// compare_outputs are the reference side of the §3.1 end-to-end agreement
// study.
#pragma once

#include <cstdint>

#include "nn/tensor.h"

namespace mpipu {

struct ConvSpec {
  int stride = 1;
  int pad = 0;

  int out_dim(int in, int k) const { return (in + 2 * pad - k) / stride + 1; }
};

/// Accumulation destination for the FP16 datapath convolution.
enum class AccumKind { kFp16, kFp32 };

/// Exact reference convolution in host double ("FP32 CPU" stand-in; double
/// is a strict superset of FP32 for these magnitudes).  Throws
/// std::invalid_argument when input.c != filters.cin.
Tensor conv_reference(const Tensor& input, const FilterBank& filters,
                      const ConvSpec& spec);

/// Elementwise ReLU.
Tensor relu(const Tensor& t);
/// 2x2 max pool, stride 2.
Tensor maxpool2(const Tensor& t);

/// Rotate a filter bank for the data-gradient (backward) convolution:
/// dL/dx = conv(dL/dy, W^T) with W spatially flipped and cin/cout swapped.
FilterBank transpose_for_dgrad(const FilterBank& f);

/// Data-gradient convolution (stride-1 layers): given the output gradient,
/// compute the input gradient -- the backward-path workload the paper
/// studies in §4.3 / Fig. 9(b).  It is conv(grad_out,
/// transpose_for_dgrad(filters)) at stride 1 with pad k-1-fwd_pad, so
/// shapes invert the forward conv; the datapath runs it as that plain
/// conv.
Tensor dgrad_reference(const Tensor& grad_out, const FilterBank& filters, int fwd_pad);

/// Output-agreement metrics between a datapath result and the reference.
struct AgreementStats {
  double max_abs_err = 0.0;
  double mean_abs_err = 0.0;
  double max_rel_err = 0.0;   ///< on elements with |ref| > 1e-6
  double snr_db = 0.0;        ///< signal-to-error ratio
  int64_t mismatched_fp16 = 0;  ///< elements whose FP16 rounding differs
  int64_t total = 0;
};

/// Throws std::invalid_argument when the two tensors differ in size.
AgreementStats compare_outputs(const Tensor& test, const Tensor& reference);

}  // namespace mpipu
