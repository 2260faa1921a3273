#include "core/simd_kernels.h"

// The sampler has no vector kernels: its MH accept chains run scalar over
// whole-item hash tables. What remains is the CPU feature probe the bench
// headers record. A vector kernel added here needs a *Scalar reference twin
// it equals bitwise (warplint-scalar-ref keeps intrinsics out of the twin).

namespace warplda {
namespace simd {

bool HasAvx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

const char* ActiveKernelFeatures() { return HasAvx2() ? "avx2" : "scalar"; }

}  // namespace simd
}  // namespace warplda
