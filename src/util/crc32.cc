#include "util/crc32.h"

#include <zlib.h>

namespace warplda {

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  // zlib's crc32_z: same polynomial, pre/post inversion and seed chaining as
  // the header promises, computed a word at a time with braided tables. A
  // null buffer makes zlib return 0 whatever the seed; empty input must
  // return the seed unchanged.
  if (size == 0) return seed;
  return static_cast<uint32_t>(
      crc32_z(seed, static_cast<const Bytef*>(data), size));
}

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t size_b) {
  return static_cast<uint32_t>(
      crc32_combine(crc_a, crc_b, static_cast<z_off_t>(size_b)));
}

}  // namespace warplda
