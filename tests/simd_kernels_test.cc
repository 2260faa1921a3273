#include "core/simd_kernels.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace warplda {
namespace {

// Operands of one ComputeAcceptRatios call, SoA as the sampler gathers them.
struct Batch {
  std::vector<double> a_t, b_t, a_cur, b_cur;
  explicit Batch(size_t n) : a_t(n), b_t(n), a_cur(n), b_cur(n) {}
};

// Runs the dispatched kernel and the scalar reference on `batch` and
// requires bitwise-equal ratios (compared as bit patterns, so -0.0, NaN
// payloads and infinities count too) and identical accept masks.
void ExpectKernelsAgree(const Batch& batch, const std::string& what) {
  const size_t n = batch.a_t.size();
  std::vector<double> ratio(n), ratio_ref(n);
  std::vector<uint8_t> ge1(n, 7), ge1_ref(n, 7);
  simd::ComputeAcceptRatios(n, batch.a_t.data(), batch.b_t.data(),
                            batch.a_cur.data(), batch.b_cur.data(),
                            ratio.data(), ge1.data());
  simd::ComputeAcceptRatiosScalar(n, batch.a_t.data(), batch.b_t.data(),
                                  batch.a_cur.data(), batch.b_cur.data(),
                                  ratio_ref.data(), ge1_ref.data());
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits = 0, bits_ref = 0;
    std::memcpy(&bits, &ratio[i], sizeof(bits));
    std::memcpy(&bits_ref, &ratio_ref[i], sizeof(bits_ref));
    ASSERT_EQ(bits, bits_ref) << what << " n=" << n << " i=" << i << ": "
                              << ratio[i] << " vs " << ratio_ref[i];
    ASSERT_EQ(ge1[i], ge1_ref[i]) << what << " n=" << n << " i=" << i;
  }
}

class AcceptRatioKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::HasAvx2()) {
      GTEST_SKIP() << "no AVX2 on this CPU: ComputeAcceptRatios runs the "
                      "scalar reference itself, nothing to compare";
    }
  }
};

// Every length 0..67 covers empty input, lengths below one vector, and every
// scalar tail after whole 4-lane blocks.
TEST_F(AcceptRatioKernelTest, RandomOperandsEveryTailLength) {
  Rng rng(20240601);
  for (size_t n = 0; n <= 67; ++n) {
    Batch batch(n);
    for (size_t i = 0; i < n; ++i) {
      // count + prior and ck + beta_bar shapes: small and large magnitudes.
      batch.a_t[i] = rng.NextInt(50) + rng.NextDouble();
      batch.a_cur[i] = rng.NextInt(50) + 0.01 + rng.NextDouble();
      batch.b_t[i] = rng.NextInt(1u << 20) + 1.0 + rng.NextDouble();
      batch.b_cur[i] = rng.NextInt(1u << 20) + 1.0 + rng.NextDouble();
    }
    ExpectKernelsAgree(batch, "random");
  }
}

// Ratios of exactly 1.0 sit on the accept-select boundary (ge1 must be set),
// next to the neighbours one ulp either side.
TEST_F(AcceptRatioKernelTest, RatiosAtExactlyOne) {
  for (size_t n = 0; n <= 67; ++n) {
    Batch batch(n);
    for (size_t i = 0; i < n; ++i) {
      const double x = 1.0 + static_cast<double>(i);
      const double y = 3.0 + 0.5 * static_cast<double>(i);
      batch.a_t[i] = x;
      batch.b_cur[i] = y;
      batch.a_cur[i] = x;
      batch.b_t[i] = y;
      if (i % 3 == 1) batch.a_t[i] = std::nextafter(x, 0.0);
      if (i % 3 == 2) batch.a_t[i] = std::nextafter(x, 1e300);
    }
    ExpectKernelsAgree(batch, "ratio one");
  }
  // Every exact-one lane must be accepted outright.
  Batch ones(8);
  for (size_t i = 0; i < 8; ++i) {
    ones.a_t[i] = ones.a_cur[i] = 2.5 + static_cast<double>(i);
    ones.b_t[i] = ones.b_cur[i] = 1e6 + static_cast<double>(i);
  }
  std::vector<double> ratio(8);
  std::vector<uint8_t> ge1(8);
  simd::ComputeAcceptRatios(8, ones.a_t.data(), ones.b_t.data(),
                            ones.a_cur.data(), ones.b_cur.data(),
                            ratio.data(), ge1.data());
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(ratio[i], 1.0);
    EXPECT_EQ(ge1[i], 1);
  }
}

// Extreme magnitudes: subnormals, the largest finite doubles, and products
// that overflow to infinity or underflow to zero. Denominator operands come
// from a set whose products stay nonzero (the sampler's a = count + prior
// and b = ck + beta_bar are positive, and the UBSan build traps x / 0).
TEST_F(AcceptRatioKernelTest, ExtremeMagnitudes) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double small = std::numeric_limits<double>::min();
  const double huge = std::numeric_limits<double>::max();
  const double numerators[] = {tiny, small, 1e-300, 1e-10, 1.0,
                               1e10, 1e300,  huge,   0.0};
  const double denominators[] = {1e-150, 1e-10, 1.0, 1e10, 1e300, huge};
  const size_t num_num = sizeof(numerators) / sizeof(numerators[0]);
  const size_t num_den = sizeof(denominators) / sizeof(denominators[0]);
  for (size_t n = 0; n <= 67; ++n) {
    Batch batch(n);
    for (size_t i = 0; i < n; ++i) {
      batch.a_t[i] = numerators[i % num_num];
      batch.b_cur[i] = numerators[(i * 7 + 1) % num_num];
      batch.b_t[i] = denominators[(i / 2 + 3) % num_den];
      batch.a_cur[i] = denominators[(i / 3 + 5) % num_den];
    }
    ExpectKernelsAgree(batch, "extreme");
  }
}

}  // namespace
}  // namespace warplda
