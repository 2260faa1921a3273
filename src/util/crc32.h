#ifndef WARPLDA_UTIL_CRC32_H_
#define WARPLDA_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace warplda {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `size` bytes.
/// Pass a previous result as `seed` to checksum data in chunks:
/// Crc32(b, nb, Crc32(a, na)) == Crc32(a+b). The bytes are zlib's crc32_z,
/// so the checksum is the one gzip and PNG use. Used by the checkpoint frame
/// (util/checkpoint_io.h) and the dist transport's frames to detect torn or
/// bit-rotted payloads before any field is trusted.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// The CRC-32 of a+b from crc_a = Crc32(a) and crc_b = Crc32(b), where b
/// has `size_b` bytes (zlib's crc32_combine): a sender can checksum a body
/// before it knows the header that precedes it.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t size_b);

}  // namespace warplda

#endif  // WARPLDA_UTIL_CRC32_H_
