#ifndef WARPLDA_CORE_SIMD_KERNELS_H_
#define WARPLDA_CORE_SIMD_KERNELS_H_

namespace warplda {
namespace simd {

/// True when this CPU runs AVX2 code. The library is built without -march
/// flags, so a vector path would be compiled with function-level target
/// attributes and selected at runtime; on non-x86 builds this is constant
/// false.
bool HasAvx2();

/// Feature tag recorded in bench JSON headers: "avx2" when the CPU supports
/// it, "scalar" otherwise.
const char* ActiveKernelFeatures();

}  // namespace simd
}  // namespace warplda

#endif  // WARPLDA_CORE_SIMD_KERNELS_H_
