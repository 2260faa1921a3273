#ifndef WARPLDA_UTIL_CHECKPOINT_IO_H_
#define WARPLDA_UTIL_CHECKPOINT_IO_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace warplda {

/// Crash-safe framed file format shared by every durable artifact in the
/// library (training sweep checkpoints, serving model chains, dist protocol
/// messages). One file is:
///
///   offset  size  field
///   ------  ----  --------------------------------------------------------
///        0     8  magic "WARPCKP2" (0x57415250434B5032, big-endian bytes)
///        8     4  format version (kFrameVersion)
///       12     4  endianness tag 0x01020304, written natively — a reader on
///                 a byte-swapped host sees 0x04030201 and rejects the file
///                 instead of silently mis-parsing it
///       16     4  payload kind (FrameKind) — what the payload encodes
///       20     4  reserved, must be 0
///       24     8  payload size in bytes; must equal file size − 36, which
///                 is validated against the real on-disk size BEFORE any
///                 allocation, so a corrupt header can never trigger an
///                 unbounded resize
///       32     4  CRC-32 (util/crc32.h) over the payload bytes
///       36     …  payload
///
/// Writes are atomic: the frame goes to `path + ".tmp"`, is flushed and
/// fsync()ed, then rename()d over `path` (and the containing directory is
/// fsync()ed so the rename itself is durable). A crash at any instant leaves
/// either the old complete file or the new complete file — never a torn one.
/// Reads validate magic, version, endianness, kind, size, and CRC before a
/// single payload field is trusted.

/// What a frame's payload encodes. Stored in the header so a file of one
/// kind handed to another loader fails loudly instead of mis-parsing.
/// Numbers are never reused: 1 (a per-sampler training checkpoint) and 5
/// (an online trainer's state) belonged to retired formats, and a file of
/// either kind is rejected as the wrong kind.
enum class FrameKind : uint32_t {
  kSweepCheckpoint = 2,  ///< core/checkpoint.h SweepCheckpoint
  kModelBase = 3,        ///< serve/model_store.h full model checkpoint
  kModelDelta = 4,       ///< serve/model_store.h changed-rows delta
  kDistMessage = 6,      ///< dist/transport.h socket protocol message
};

inline constexpr uint32_t kFrameVersion = 2;

/// Size of the frame header preceding every payload (the table above).
inline constexpr size_t kFrameHeaderBytes = 36;

/// Accumulates a payload in memory. Only trivially copyable scalar types may
/// be written (they are memcpy'd in native byte order; the frame's endian tag
/// guards cross-host reads). Each Put / PutVec is one memcpy into spare
/// capacity; Reserve() sizes that capacity up front when the payload's
/// length is known, so nothing is reallocated or value-initialized per
/// field.
class PayloadWriter {
 public:
  /// Makes room for `n` more bytes.
  void Reserve(size_t n) {
    if (bytes_.size() - size_ < n) bytes_.resize(size_ + n);
  }

  template <typename T>
  void Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    __builtin_memcpy(Grow(sizeof(T)), &v, sizeof(T));
  }

  template <typename T>
  void PutVec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Put(static_cast<uint64_t>(v.size()));
    if (!v.empty()) {  // data() of an empty vector may be null
      __builtin_memcpy(Grow(v.size() * sizeof(T)), v.data(),
                       v.size() * sizeof(T));
    }
  }

  /// Empties the payload, keeping the buffer for the next one.
  void Clear() { size_ = 0; }

  /// The payload written so far.
  const std::vector<uint8_t>& bytes() {
    bytes_.resize(size_);
    return bytes_;
  }

  /// Moves the payload out; the writer is left empty.
  std::vector<uint8_t> Take() {
    bytes_.resize(size_);
    size_ = 0;
    return std::move(bytes_);
  }

 private:
  /// The next `n` bytes of the payload, growing the buffer geometrically.
  uint8_t* Grow(size_t n) {
    if (bytes_.size() - size_ < n) {
      bytes_.resize(std::max(size_ + n, 2 * bytes_.size()));
    }
    uint8_t* out = bytes_.data() + size_;
    size_ += n;
    return out;
  }

  std::vector<uint8_t> bytes_;  ///< [0, size_) written, the rest spare
  size_t size_ = 0;
};

/// Bounded cursor over a validated payload. Every Get checks the remaining
/// byte count first; GetVec additionally validates the stored element count
/// against the remaining bytes BEFORE resizing the destination, so a
/// corrupt length can never cause an oversized allocation.
class PayloadReader {
 public:
  PayloadReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit PayloadReader(const std::vector<uint8_t>& payload)
      : PayloadReader(payload.data(), payload.size()) {}

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

  template <typename T>
  bool Get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    __builtin_memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// Reads a u64 element count followed by that many elements. The count is
  /// range-checked against the remaining payload (and `max_count`) before
  /// any memory is reserved.
  template <typename T>
  bool GetVec(std::vector<T>* out, uint64_t max_count = UINT64_MAX) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    if (!Get(&count)) return false;
    if (count > max_count || count > remaining() / sizeof(T)) return false;
    out->resize(static_cast<size_t>(count));
    if (count > 0) {  // data() of an empty vector may be null — UB for memcpy
      __builtin_memcpy(out->data(), data_ + pos_, count * sizeof(T));
      pos_ += count * sizeof(T);
    }
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Atomically replaces `path` with a frame of `kind` wrapping `payload`:
/// temp file + fsync + rename + directory fsync. On failure returns false,
/// fills `*error` (when non-null), and removes the temp file; `path` is left
/// untouched, so the previous checkpoint survives a failed save.
bool WriteFrame(const std::string& path, FrameKind kind,
                const std::vector<uint8_t>& payload, std::string* error);

/// Loads and fully validates a frame: magic, format version, endianness,
/// kind, header-vs-file size agreement, and payload CRC. Returns the payload
/// bytes; the caller parses them with a PayloadReader. Never allocates more
/// than the file's real on-disk size.
bool ReadFrame(const std::string& path, FrameKind expected_kind,
               std::vector<uint8_t>* payload, std::string* error);

/// The same frame, stream-shaped (sockets, pipes): no file size exists to
/// validate the header against, so the payload size is instead bounded by
/// the caller's `max_payload` before any allocation, and every read loops on
/// short reads and retries EINTR — the regular-file single-read assumption
/// is exactly what breaks on a socket.

/// A frame header parsed out of `kFrameHeaderBytes` raw bytes. `Parse`
/// validates magic, version, endianness, and the reserved field; kind and
/// size policy are the caller's (streams accept any registered kind and
/// bound the size themselves).
struct ParsedFrameHeader {
  FrameKind kind = FrameKind::kSweepCheckpoint;
  uint64_t payload_size = 0;
  uint32_t payload_crc = 0;
};

/// Parses + validates the fixed-size frame header from `bytes` (at least
/// kFrameHeaderBytes). Returns false and fills `*error` on a malformed
/// header — for a stream that means framing is lost and the connection must
/// be torn down, so callers treat it as fatal, not retryable.
bool ParseFrameHeader(const uint8_t* bytes, ParsedFrameHeader* header,
                      std::string* error);

/// Writes the kFrameHeaderBytes header of a frame whose payload has
/// `payload_size` bytes and CRC-32 `payload_crc` to `out`.
void EncodeFrameHeader(FrameKind kind, uint64_t payload_size,
                       uint32_t payload_crc, uint8_t* out);

/// Serializes a complete frame (header + payload) into one contiguous wire
/// image — what WriteFrameFd sends and what fault-injection tests mutate.
std::vector<uint8_t> EncodeFrame(FrameKind kind,
                                 const std::vector<uint8_t>& payload);

/// Blocking frame write to a socket/pipe fd: loops on short writes, retries
/// EINTR. Returns false on any other error (EPIPE after a peer death being
/// the expected one).
bool WriteFrameFd(int fd, FrameKind kind, const std::vector<uint8_t>& payload,
                  std::string* error);

/// Blocking frame read from a socket/pipe fd: loops on short reads (a
/// socket may deliver one byte at a time), retries EINTR, validates the
/// header and the payload CRC. `max_payload` bounds the allocation a corrupt
/// header could otherwise provoke — there is no file size to check against
/// on a stream. Returns false on EOF, malformed header, oversized payload,
/// or CRC mismatch; `*eof` (when non-null) distinguishes a clean EOF before
/// any header byte from mid-frame errors.
bool ReadFrameFd(int fd, FrameKind expected_kind, uint64_t max_payload,
                 std::vector<uint8_t>* payload, std::string* error,
                 bool* eof = nullptr);

/// Creates `dir` (and parents) if missing. Returns false + `*error` when the
/// path exists as a non-directory or creation fails.
bool EnsureDirectory(const std::string& dir, std::string* error);

/// True when `path` names an existing regular file.
bool FileExists(const std::string& path);

}  // namespace warplda

#endif  // WARPLDA_UTIL_CHECKPOINT_IO_H_
