#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace mpipu {

Tensor random_tensor(Rng& rng, int c, int h, int w, ValueDist dist, double scale) {
  Tensor t(c, h, w);
  for (auto& v : t.data) v = sample_value(rng, dist, scale);
  return t;
}

FilterBank random_filters(Rng& rng, int cout, int cin, int kh, int kw, ValueDist dist,
                          double scale) {
  FilterBank f(cout, cin, kh, kw);
  for (auto& v : f.data) v = sample_value(rng, dist, scale);
  return f;
}

Tensor conv_reference(const Tensor& input, const FilterBank& filters,
                      const ConvSpec& spec) {
  if (input.c != filters.cin) {
    throw std::invalid_argument(
        "conv_reference: input has " + std::to_string(input.c) +
        " channels but the filters expect " + std::to_string(filters.cin));
  }
  const int ho = spec.out_dim(input.h, filters.kh);
  const int wo = spec.out_dim(input.w, filters.kw);
  Tensor out(filters.cout, ho, wo);
  for (int co = 0; co < filters.cout; ++co) {
    for (int y = 0; y < ho; ++y) {
      for (int x = 0; x < wo; ++x) {
        double acc = 0.0;
        for (int ci = 0; ci < input.c; ++ci) {
          for (int ky = 0; ky < filters.kh; ++ky) {
            for (int kx = 0; kx < filters.kw; ++kx) {
              const int iy = y * spec.stride + ky - spec.pad;
              const int ix = x * spec.stride + kx - spec.pad;
              if (iy < 0 || iy >= input.h || ix < 0 || ix >= input.w) continue;
              acc += input.at(ci, iy, ix) * filters.at(co, ci, ky, kx);
            }
          }
        }
        out.at(co, y, x) = acc;
      }
    }
  }
  return out;
}

Tensor relu(const Tensor& t) {
  Tensor out = t;
  for (auto& v : out.data) v = std::max(v, 0.0);
  return out;
}

Tensor maxpool2(const Tensor& t) {
  Tensor out(t.c, t.h / 2, t.w / 2);
  for (int c = 0; c < t.c; ++c) {
    for (int y = 0; y < out.h; ++y) {
      for (int x = 0; x < out.w; ++x) {
        out.at(c, y, x) = std::max(std::max(t.at(c, 2 * y, 2 * x), t.at(c, 2 * y, 2 * x + 1)),
                                   std::max(t.at(c, 2 * y + 1, 2 * x), t.at(c, 2 * y + 1, 2 * x + 1)));
      }
    }
  }
  return out;
}

FilterBank transpose_for_dgrad(const FilterBank& f) {
  FilterBank t(f.cin, f.cout, f.kh, f.kw);
  for (int co = 0; co < f.cout; ++co) {
    for (int ci = 0; ci < f.cin; ++ci) {
      for (int y = 0; y < f.kh; ++y) {
        for (int x = 0; x < f.kw; ++x) {
          t.at(ci, co, f.kh - 1 - y, f.kw - 1 - x) = f.at(co, ci, y, x);
        }
      }
    }
  }
  return t;
}

Tensor dgrad_reference(const Tensor& grad_out, const FilterBank& filters, int fwd_pad) {
  ConvSpec spec;
  spec.pad = filters.kh - 1 - fwd_pad;
  return conv_reference(grad_out, transpose_for_dgrad(filters), spec);
}

AgreementStats compare_outputs(const Tensor& test, const Tensor& reference) {
  if (test.size() != reference.size()) {
    throw std::invalid_argument(
        "compare_outputs: test has " + std::to_string(test.size()) +
        " elements but the reference has " + std::to_string(reference.size()));
  }
  AgreementStats s;
  s.total = static_cast<int64_t>(test.size());
  double err_energy = 0.0, sig_energy = 0.0, abs_sum = 0.0;
  for (size_t i = 0; i < test.data.size(); ++i) {
    const double e = test.data[i] - reference.data[i];
    const double r = reference.data[i];
    s.max_abs_err = std::max(s.max_abs_err, std::fabs(e));
    abs_sum += std::fabs(e);
    if (std::fabs(r) > 1e-6) s.max_rel_err = std::max(s.max_rel_err, std::fabs(e / r));
    err_energy += e * e;
    sig_energy += r * r;
    if (Fp16::from_double(test.data[i]).raw_bits() != Fp16::from_double(r).raw_bits()) {
      ++s.mismatched_fp16;
    }
  }
  s.mean_abs_err = abs_sum / static_cast<double>(test.size());
  s.snr_db = err_energy == 0.0
                 ? 300.0
                 : 10.0 * std::log10(sig_energy / err_energy);
  return s;
}

}  // namespace mpipu
