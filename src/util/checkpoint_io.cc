#include "util/checkpoint_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "obs/metrics.h"
#include "util/crc32.h"

namespace warplda {

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct FrameMetrics {
  obs::Histogram* write_us;
  obs::Histogram* fsync_us;
  obs::Counter* bytes_total;

  static const FrameMetrics& Get() {
    static const FrameMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      FrameMetrics fm;
      fm.write_us = reg.GetHistogram(
          "ckpt_frame_write_us", "Serialized frame write() time (pre-fsync)");
      fm.fsync_us = reg.GetHistogram(
          "ckpt_frame_fsync_us", "Frame data fsync() time (pre-rename)");
      fm.bytes_total = reg.GetCounter("ckpt_frame_bytes_total",
                                      "Frame bytes written (header+payload)");
      return fm;
    }();
    return m;
  }
};

// "WARPCKP2": same byte spelling convention as the retired v1 magic, bumped
// because v1 files carried no version, endianness, size, or CRC fields.
constexpr uint64_t kMagic = 0x57415250'434B5032ULL;
constexpr uint64_t kMagicV1 = 0x57415250'434B5031ULL;  // recognized, rejected
constexpr uint32_t kEndianTag = 0x01020304u;

struct FrameHeader {
  uint64_t magic;
  uint32_t version;
  uint32_t endian;
  uint32_t kind;
  uint32_t reserved;
  uint64_t payload_size;
  uint32_t payload_crc;
} __attribute__((packed));
static_assert(sizeof(FrameHeader) == kFrameHeaderBytes);

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// write() until done; short writes are legal for regular files under signal
/// interruption — and routine on sockets — so loop.
bool WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

/// read() until `size` bytes arrive, looping on short reads and retrying
/// EINTR — a pipe or socket legally delivers one byte at a time, so a
/// single-shot read of a multi-byte header is a stream-semantics bug.
/// Returns the bytes actually read; < size means EOF (or, with *failed set,
/// a hard read error).
size_t ReadExact(int fd, uint8_t* data, size_t size, bool* failed) {
  if (failed != nullptr) *failed = false;
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (failed != nullptr) *failed = true;
      return done;
    }
    if (n == 0) return done;  // EOF
    done += static_cast<size_t>(n);
  }
  return done;
}

/// fsync() the directory containing `path`, making a completed rename()
/// durable. Best effort: some filesystems reject directory fsync; a failure
/// there narrows the durability window but never corrupts, so it is not
/// treated as a save failure.
void SyncParentDir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

bool WriteFrame(const std::string& path, FrameKind kind,
                const std::vector<uint8_t>& payload, std::string* error) {
  FrameHeader header;
  header.magic = kMagic;
  header.version = kFrameVersion;
  header.endian = kEndianTag;
  header.kind = static_cast<uint32_t>(kind);
  header.reserved = 0;
  header.payload_size = payload.size();
  header.payload_crc = Crc32(payload.data(), payload.size());

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Fail(error, Errno("cannot open " + tmp + " for writing"));
  }
  const bool metrics = obs::MetricsEnabled();
  const int64_t write_start = metrics ? NowUs() : 0;
  bool ok = WriteAll(fd, reinterpret_cast<const uint8_t*>(&header),
                     sizeof(header)) &&
            WriteAll(fd, payload.data(), payload.size());
  const int64_t fsync_start = metrics ? NowUs() : 0;
  // fsync before rename: the data must be on disk before the name points at
  // it, or a crash could expose a complete-looking but empty file.
  ok = ok && ::fsync(fd) == 0;
  if (metrics && ok) {
    const FrameMetrics& fm = FrameMetrics::Get();
    fm.write_us->Observe(static_cast<double>(fsync_start - write_start));
    fm.fsync_us->Observe(static_cast<double>(NowUs() - fsync_start));
    fm.bytes_total->Inc(sizeof(header) + payload.size());
  }
  if (::close(fd) != 0) ok = false;
  if (!ok) {
    const std::string message = Errno("write error on " + tmp);
    ::unlink(tmp.c_str());
    return Fail(error, message);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string message =
        Errno("cannot rename " + tmp + " over " + path);
    ::unlink(tmp.c_str());
    return Fail(error, message);
  }
  SyncParentDir(path);
  return true;
}

bool ReadFrame(const std::string& path, FrameKind expected_kind,
               std::vector<uint8_t>* payload, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Fail(error, Errno("cannot open " + path));

  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Fail(error, path + ": not a regular file");
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);

  auto fail = [&](const std::string& message) {
    ::close(fd);
    return Fail(error, message);
  };

  FrameHeader header;
  if (file_size < sizeof(header)) {
    return fail(path + ": truncated header (" + std::to_string(file_size) +
                " of " + std::to_string(sizeof(header)) + " bytes)");
  }
  bool read_failed = false;
  if (ReadExact(fd, reinterpret_cast<uint8_t*>(&header), sizeof(header),
                &read_failed) != sizeof(header)) {
    return fail(read_failed ? Errno("read error on " + path)
                            : path + ": unexpected EOF in header");
  }
  if (header.magic != kMagic) {
    if (header.magic == kMagicV1) {
      return fail(path +
                  ": unversioned v1 checkpoint (WARPCKP1) — re-save with "
                  "this build; v1 files carry no CRC and are no longer "
                  "trusted");
    }
    return fail(path + ": bad magic");
  }
  if (header.endian != kEndianTag) {
    return fail(path + ": endianness mismatch (written on a byte-swapped "
                       "host)");
  }
  if (header.version != kFrameVersion) {
    return fail(path + ": unsupported format version " +
                std::to_string(header.version) + " (expected " +
                std::to_string(kFrameVersion) + ")");
  }
  if (header.kind != static_cast<uint32_t>(expected_kind)) {
    return fail(path + ": wrong payload kind " +
                std::to_string(header.kind) + " (expected " +
                std::to_string(static_cast<uint32_t>(expected_kind)) + ")");
  }
  if (header.reserved != 0) {
    return fail(path + ": nonzero reserved field");
  }
  // The load-bearing bound: the stored payload size must agree with the real
  // on-disk size, checked before the payload buffer is sized. A corrupt or
  // truncated header can therefore never provoke an allocation larger than
  // the bytes actually present.
  if (header.payload_size != file_size - sizeof(header)) {
    return fail(path + ": payload size " +
                std::to_string(header.payload_size) +
                " disagrees with file size " + std::to_string(file_size) +
                " − " + std::to_string(sizeof(header)) + " header bytes");
  }

  payload->resize(static_cast<size_t>(header.payload_size));
  if (ReadExact(fd, payload->data(), payload->size(), &read_failed) !=
      payload->size()) {
    return fail(read_failed ? Errno("read error on " + path)
                            : path + ": unexpected EOF in payload");
  }
  ::close(fd);

  const uint32_t crc = Crc32(payload->data(), payload->size());
  if (crc != header.payload_crc) {
    return Fail(error, path + ": payload CRC mismatch (stored " +
                           std::to_string(header.payload_crc) +
                           ", computed " + std::to_string(crc) + ")");
  }
  return true;
}

bool ParseFrameHeader(const uint8_t* bytes, ParsedFrameHeader* header,
                      std::string* error) {
  FrameHeader raw;
  std::memcpy(&raw, bytes, sizeof(raw));
  if (raw.magic != kMagic) {
    return Fail(error, raw.magic == kMagicV1
                           ? "unversioned v1 frame (WARPCKP1) rejected"
                           : "bad frame magic");
  }
  if (raw.endian != kEndianTag) {
    return Fail(error, "frame endianness mismatch");
  }
  if (raw.version != kFrameVersion) {
    return Fail(error, "unsupported frame version " +
                           std::to_string(raw.version) + " (expected " +
                           std::to_string(kFrameVersion) + ")");
  }
  if (raw.reserved != 0) {
    return Fail(error, "nonzero reserved field in frame header");
  }
  header->kind = static_cast<FrameKind>(raw.kind);
  header->payload_size = raw.payload_size;
  header->payload_crc = raw.payload_crc;
  return true;
}

void EncodeFrameHeader(FrameKind kind, uint64_t payload_size,
                       uint32_t payload_crc, uint8_t* out) {
  FrameHeader header;
  header.magic = kMagic;
  header.version = kFrameVersion;
  header.endian = kEndianTag;
  header.kind = static_cast<uint32_t>(kind);
  header.reserved = 0;
  header.payload_size = payload_size;
  header.payload_crc = payload_crc;
  std::memcpy(out, &header, sizeof(header));
}

std::vector<uint8_t> EncodeFrame(FrameKind kind,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> wire(kFrameHeaderBytes + payload.size());
  EncodeFrameHeader(kind, payload.size(),
                    Crc32(payload.data(), payload.size()), wire.data());
  if (!payload.empty()) {
    std::memcpy(wire.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  return wire;
}

bool WriteFrameFd(int fd, FrameKind kind, const std::vector<uint8_t>& payload,
                  std::string* error) {
  const std::vector<uint8_t> wire = EncodeFrame(kind, payload);
  if (!WriteAll(fd, wire.data(), wire.size())) {
    return Fail(error, Errno("frame write to fd failed"));
  }
  return true;
}

bool ReadFrameFd(int fd, FrameKind expected_kind, uint64_t max_payload,
                 std::vector<uint8_t>* payload, std::string* error,
                 bool* eof) {
  if (eof != nullptr) *eof = false;
  uint8_t raw[kFrameHeaderBytes];
  bool read_failed = false;
  const size_t got = ReadExact(fd, raw, sizeof(raw), &read_failed);
  if (got != sizeof(raw)) {
    if (got == 0 && !read_failed) {
      if (eof != nullptr) *eof = true;
      return Fail(error, "EOF before frame header");
    }
    return Fail(error, read_failed ? Errno("frame header read failed")
                                   : "unexpected EOF inside frame header");
  }
  ParsedFrameHeader header;
  if (!ParseFrameHeader(raw, &header, error)) return false;
  if (header.kind != expected_kind) {
    return Fail(error, "wrong frame kind " +
                           std::to_string(static_cast<uint32_t>(header.kind)) +
                           " (expected " +
                           std::to_string(
                               static_cast<uint32_t>(expected_kind)) +
                           ")");
  }
  // No file size exists on a stream; the caller's bound stands in for it so
  // a corrupt header can never provoke an unbounded allocation.
  if (header.payload_size > max_payload) {
    return Fail(error, "frame payload size " +
                           std::to_string(header.payload_size) +
                           " exceeds stream bound " +
                           std::to_string(max_payload));
  }
  payload->resize(static_cast<size_t>(header.payload_size));
  if (ReadExact(fd, payload->data(), payload->size(), &read_failed) !=
      payload->size()) {
    return Fail(error, read_failed ? Errno("frame payload read failed")
                                   : "unexpected EOF inside frame payload");
  }
  const uint32_t crc = Crc32(payload->data(), payload->size());
  if (crc != header.payload_crc) {
    return Fail(error, "frame payload CRC mismatch (stored " +
                           std::to_string(header.payload_crc) +
                           ", computed " + std::to_string(crc) + ")");
  }
  return true;
}

bool EnsureDirectory(const std::string& dir, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Fail(error, "cannot create directory " + dir + ": " + ec.message());
  }
  if (!std::filesystem::is_directory(dir, ec)) {
    return Fail(error, dir + " exists but is not a directory");
  }
  return true;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

}  // namespace warplda
