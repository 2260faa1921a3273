#ifndef WARPLDA_UTIL_RNG_H_
#define WARPLDA_UTIL_RNG_H_

#include <cstdint>

namespace warplda {

/// SplitMix64 finalizer: bijective 64-bit mixing (Vigna). Used to diffuse
/// seeds and to derive independent per-stream seeds from (seed, stream-id)
/// tuples — e.g. WarpLDA's per-token RNG streams, which make sampling
/// deterministic regardless of thread count or grid-block order.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Fast, seedable pseudo-random number generator (xoshiro256**).
///
/// LDA samplers draw billions of random numbers; std::mt19937 is a measurable
/// bottleneck. xoshiro256** passes BigCrush, has a 2^256-1 period, and costs a
/// handful of cycles per draw. Not cryptographically secure.
class Rng {
 public:
  /// Seeds the generator. Two generators with different seeds produce
  /// independent-looking streams (seeds are diffused through SplitMix64).
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seeds the generator deterministically from `seed`.
  void Seed(uint64_t seed) {
    // SplitMix64 expansion of the seed into the 256-bit state, as recommended
    // by the xoshiro authors: guarantees a non-zero, well-mixed state.
    uint64_t x = seed;
    for (int i = 0; i < 4; ++i) {
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      state_[i] = z ^ (z >> 31);
    }
  }

  /// Returns the next 64 uniformly random bits.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Returns 32 uniformly random bits.
  uint32_t NextU32() { return static_cast<uint32_t>(Next() >> 32); }

  /// Returns a uniform integer in [0, n). Requires n > 0.
  /// Uses Lemire's multiply-shift bounded generation (no modulo bias for the
  /// count magnitudes used here, and far faster than % on the hot path).
  uint32_t NextInt(uint32_t n) {
    uint64_t m = static_cast<uint64_t>(NextU32()) * n;
    return static_cast<uint32_t>(m >> 32);
  }

  /// Returns a uniform double in [0, 1).
  double NextDouble() {
    // 53 random mantissa bits scaled by 2^-53.
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Returns true with probability p (p outside [0,1] clamps naturally).
  bool NextBernoulli(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace warplda

#endif  // WARPLDA_UTIL_RNG_H_
