#include "core/simd_kernels.h"

// All SIMD intrinsics in the library live in this translation unit (enforced
// by warplint-scalar-ref): the rest of src/core stays portable C++, and every
// vector kernel here has a *Scalar reference twin that simd_kernels_test
// holds it bitwise equal to.
//
// The build deliberately carries no -march flags, so __AVX2__ is never
// defined globally; the vector paths are compiled with function-level
// __attribute__((target("avx2"))) and selected once at runtime via
// __builtin_cpu_supports. Dispatch cost is one predictable branch per batch,
// not per token.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WARPLDA_SIMD_X86 1
#include <immintrin.h>
#endif

namespace warplda {
namespace simd {

namespace {

#if WARPLDA_SIMD_X86

bool DetectAvx2() { return __builtin_cpu_supports("avx2") != 0; }

__attribute__((target("avx2"))) void ComputeAcceptRatiosAvx2(
    size_t n, const double* a_t, const double* b_t, const double* a_cur,
    const double* b_cur, double* ratio, uint8_t* ge1) {
  const __m256d one = _mm256_set1_pd(1.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d num =
        _mm256_mul_pd(_mm256_loadu_pd(a_t + i), _mm256_loadu_pd(b_cur + i));
    const __m256d den =
        _mm256_mul_pd(_mm256_loadu_pd(a_cur + i), _mm256_loadu_pd(b_t + i));
    const __m256d r = _mm256_div_pd(num, den);
    _mm256_storeu_pd(ratio + i, r);
    const int bits =
        _mm256_movemask_pd(_mm256_cmp_pd(r, one, _CMP_GE_OQ));
    ge1[i] = static_cast<uint8_t>(bits & 1);
    ge1[i + 1] = static_cast<uint8_t>((bits >> 1) & 1);
    ge1[i + 2] = static_cast<uint8_t>((bits >> 2) & 1);
    ge1[i + 3] = static_cast<uint8_t>((bits >> 3) & 1);
  }
  if (i < n) {
    ComputeAcceptRatiosScalar(n - i, a_t + i, b_t + i, a_cur + i, b_cur + i,
                              ratio + i, ge1 + i);
  }
}

#endif  // WARPLDA_SIMD_X86

}  // namespace

bool HasAvx2() {
#if WARPLDA_SIMD_X86
  static const bool supported = DetectAvx2();
  return supported;
#else
  return false;
#endif
}

const char* ActiveKernelFeatures() { return HasAvx2() ? "avx2" : "scalar"; }

void ComputeAcceptRatiosScalar(size_t n, const double* a_t, const double* b_t,
                               const double* a_cur, const double* b_cur,
                               double* ratio, uint8_t* ge1) {
  for (size_t i = 0; i < n; ++i) {
    // Same expression tree as the vector path and as the scalar AcceptChain:
    // (mul, mul, div) — bit-identical IEEE doubles on every path.
    const double r = (a_t[i] * b_cur[i]) / (a_cur[i] * b_t[i]);
    ratio[i] = r;
    ge1[i] = r >= 1.0 ? 1 : 0;
  }
}

void ComputeAcceptRatios(size_t n, const double* a_t, const double* b_t,
                         const double* a_cur, const double* b_cur,
                         double* ratio, uint8_t* ge1) {
#if WARPLDA_SIMD_X86
  if (HasAvx2()) {
    ComputeAcceptRatiosAvx2(n, a_t, b_t, a_cur, b_cur, ratio, ge1);
    return;
  }
#endif
  ComputeAcceptRatiosScalar(n, a_t, b_t, a_cur, b_cur, ratio, ge1);
}

}  // namespace simd
}  // namespace warplda
