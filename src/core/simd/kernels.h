// Internal declarations of the per-backend kernel tables (src/core/simd).
// The scalar table always exists.  avx2_kernel_table() is null on non-x86
// builds; on x86-64 it is compiled in always, but its kernels need an AVX2
// CPU, so everything outside simd.cpp goes through kernels_for(), which
// checks the CPU first.
#pragma once

#include "core/simd/simd.h"

namespace mpipu::simd {

const KernelTable* scalar_kernel_table();  // never null
const KernelTable* avx2_kernel_table();    // null unless __x86_64__

}  // namespace mpipu::simd
