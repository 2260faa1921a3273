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

}  // namespace warplda

#endif  // WARPLDA_UTIL_CRC32_H_
