#include "softfloat/softfloat.h"

namespace mpipu {

// The one copy of each library format's double rounding (see the extern
// template declarations in softfloat.h).
template uint32_t round_double_to_bits<kFp16Format>(double v);
template uint32_t round_double_to_bits<kBf16Format>(double v);
template uint32_t round_double_to_bits<kTf32Format>(double v);
template uint32_t round_double_to_bits<kFp32Format>(double v);

}  // namespace mpipu
