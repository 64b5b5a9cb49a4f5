// Backend selection and dispatch for the SIMD kernel layer (see simd.h).
#include "core/simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/simd/kernels.h"

namespace mpipu::simd {
namespace {

/// The AVX2 table when this CPU can run it.  kernels_avx2.cpp is the one
/// TU built with -mavx2; this file is not, so the CPU check runs in baseline
/// code and no AVX2 instruction executes before it passes.
const KernelTable* avx2_table_if_supported() {
#if defined(__x86_64__)
  // __builtin_cpu_init: this may run from a static initializer, before
  // libgcc has filled in the CPU model __builtin_cpu_supports reads.
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  if (supported) return avx2_kernel_table();
#endif
  return nullptr;
}

const KernelTable* table_for(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return scalar_kernel_table();
    case Backend::kAvx2:
      return avx2_table_if_supported();
  }
  return nullptr;
}

/// Startup choice, made on first use.  An invalid MPIPU_KERNEL throws out
/// of the first active_backend() call.
Backend default_backend() {
  // Read-only env probe at first use, no concurrent setenv in this process.
  static const Backend b =
      backend_from_env(std::getenv("MPIPU_KERNEL"));  // NOLINT(concurrency-mt-unsafe)
  return b;
}

std::atomic<Backend>& active_slot() {
  static std::atomic<Backend> slot{default_backend()};
  return slot;
}

}  // namespace

Backend active_backend() {
  return active_slot().load(std::memory_order_relaxed);
}

const KernelTable& kernels() { return *table_for(active_backend()); }

const KernelTable* kernels_for(Backend b) { return table_for(b); }

bool backend_compiled(Backend b) { return table_for(b) != nullptr; }

bool force_backend(Backend b) {
  if (table_for(b) == nullptr) return false;
  active_slot().store(b, std::memory_order_relaxed);
  return true;
}

Backend backend_from_env(const char* value) {
  if (value != nullptr && std::strcmp(value, "scalar") == 0) {
    return Backend::kScalar;
  }
  if (value != nullptr && *value != '\0' && std::strcmp(value, "avx2") != 0 &&
      std::strcmp(value, "auto") != 0) {
    throw std::invalid_argument(std::string("MPIPU_KERNEL=") + value +
                                ": expected scalar|avx2|auto");
  }
  // avx2 on a CPU without it falls back to scalar, like auto.
  return avx2_table_if_supported() != nullptr ? Backend::kAvx2
                                              : Backend::kScalar;
}

void reset_backend() {
  active_slot().store(default_backend(), std::memory_order_relaxed);
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "scalar";
}

const char* backend_name() { return backend_name(active_backend()); }

}  // namespace mpipu::simd
