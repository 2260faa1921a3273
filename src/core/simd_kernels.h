#ifndef WARPLDA_CORE_SIMD_KERNELS_H_
#define WARPLDA_CORE_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace warplda {
namespace simd {

/// True when this binary can run the AVX2 kernels on this CPU. The library
/// is built without -march flags, so the vector paths are compiled with
/// function-level target attributes and selected at runtime; on non-x86
/// builds this is constant false and only the scalar paths exist.
bool HasAvx2();

/// Feature tag recorded in bench JSON headers: "avx2" when the vector
/// kernels are compiled in and the CPU supports them, "scalar" otherwise.
const char* ActiveKernelFeatures();

/// Vectorized MH accept-ratio compute over a gathered batch (Eq. 7):
///   ratio[i] = (a_t[i] * b_cur[i]) / (a_cur[i] * b_t[i])
///   ge1[i]   = ratio[i] >= 1.0   (the masked accept-select)
/// where a_* = count + prior and b_* = ck_fixed + beta_bar, pre-gathered as
/// doubles. The expression tree (mul, mul, div — no contractible mul+add, so
/// -ffp-contract cannot fuse anything) matches the scalar AcceptChain
/// exactly; vector and scalar paths produce bit-identical IEEE results.
/// ComputeAcceptRatios dispatches to the AVX2 path when HasAvx2();
/// ComputeAcceptRatiosScalar is the portable reference it must equal.
void ComputeAcceptRatiosScalar(size_t n, const double* a_t, const double* b_t,
                               const double* a_cur, const double* b_cur,
                               double* ratio, uint8_t* ge1);
void ComputeAcceptRatios(size_t n, const double* a_t, const double* b_t,
                         const double* a_cur, const double* b_cur,
                         double* ratio, uint8_t* ge1);

}  // namespace simd
}  // namespace warplda

#endif  // WARPLDA_CORE_SIMD_KERNELS_H_
