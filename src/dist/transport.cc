#include "dist/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metrics.h"
#include "util/checkpoint_io.h"
#include "util/crc32.h"

namespace warplda {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Channel-level frame types inside the kDistMessage payload.
constexpr uint32_t kCtlData = 1;
constexpr uint32_t kCtlAck = 2;
constexpr uint32_t kCtlNak = 3;
constexpr uint32_t kCtlPing = 4;

/// u32 ctl + u64 seq (+ u32 app type for data frames).
constexpr size_t kChannelHeaderBytes = sizeof(uint32_t) + sizeof(uint64_t);

/// Free space the io thread keeps at the end of rx_buffer_ for one read().
constexpr size_t kReadChunk = 64 * 1024;

/// Transport counters in the global registry, mirroring FrameChannel::Stats
/// so the fault-matrix tests can assert the envelope (bounded retransmits,
/// every injected corruption caught) from the obs seam.
struct TransportMetrics {
  obs::Counter* frames_sent;
  obs::Counter* retransmits;
  obs::Counter* crc_rejects;
  obs::Counter* dup_suppressed;
  obs::Counter* faults_injected;

  static const TransportMetrics& Get() {
    static const TransportMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      TransportMetrics tm;
      tm.frames_sent = reg.GetCounter("dist_frames_sent_total",
                                      "Data frames sent over dist channels");
      tm.retransmits = reg.GetCounter(
          "dist_retransmits_total",
          "Data frame retransmissions (timer expiry or peer NAK)");
      tm.crc_rejects = reg.GetCounter(
          "dist_crc_rejects_total",
          "Received frames dropped for a payload CRC mismatch");
      tm.dup_suppressed = reg.GetCounter(
          "dist_dup_frames_total",
          "Duplicate data frames suppressed (re-acked, not redelivered)");
      tm.faults_injected = reg.GetCounter(
          "dist_faults_injected_total",
          "Outbound faults injected by dist/fault.h");
      return tm;
    }();
    return m;
  }
};

}  // namespace

FrameChannel::FrameChannel(int fd, Options options)
    : options_(std::move(options)), fd_(fd), fault_(options_.fault) {
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  if (::pipe(wake_pipe_) != 0) {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  } else {
    ::fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
    ::fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);
  }
  const int64_t now = NowMs();
  last_rx_ms_ = now;
  last_tx_ms_ = now;
  io_thread_ = std::thread([this] { IoLoop(); });
}

FrameChannel::~FrameChannel() { Close(); }

void FrameChannel::Close() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closing_) {
      lock.unlock();
      if (io_thread_.joinable()) io_thread_.join();
      return;
    }
    closing_ = true;
  }
  if (wake_pipe_[1] >= 0) {
    const uint8_t b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
  if (io_thread_.joinable()) io_thread_.join();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!dead_) MarkDeadLocked("channel closed");
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) ::close(wake_pipe_[i]);
    wake_pipe_[i] = -1;
  }
}

bool FrameChannel::SendParts(
    uint32_t type, std::initializer_list<std::span<const uint8_t>> parts) {
  // Frame header, channel header, body: one allocation, the body copied
  // and checksummed here, outside the lock. Only the sequence number waits
  // for the lock; its header's CRC is folded into the body's there.
  size_t body_size = 0;
  for (std::span<const uint8_t> part : parts) body_size += part.size();
  constexpr size_t kDataHeaderBytes = kChannelHeaderBytes + sizeof(uint32_t);
  constexpr size_t kBodyOffset = kFrameHeaderBytes + kDataHeaderBytes;
  std::vector<uint8_t> wire;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    wire = TakeSpareLocked(&spare_wires_);
  }
  wire.resize(kBodyOffset + body_size);
  size_t at = kBodyOffset;
  for (std::span<const uint8_t> part : parts) {
    if (!part.empty()) std::memcpy(wire.data() + at, part.data(), part.size());
    at += part.size();
  }
  const uint32_t body_crc = Crc32(wire.data() + kBodyOffset, body_size);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (dead_ || closing_) return false;
    uint8_t* header = wire.data() + kFrameHeaderBytes;
    std::memcpy(header, &kCtlData, sizeof(uint32_t));
    std::memcpy(header + sizeof(uint32_t), &next_seq_, sizeof(uint64_t));
    std::memcpy(header + kChannelHeaderBytes, &type, sizeof(uint32_t));
    EncodeFrameHeader(
        FrameKind::kDistMessage, kDataHeaderBytes + body_size,
        Crc32Combine(Crc32(header, kDataHeaderBytes), body_crc, body_size),
        wire.data());
    Inflight frame;
    frame.seq = next_seq_++;
    frame.wire = std::move(wire);
    inflight_.push_back(std::move(frame));
  }
  if (wake_pipe_[1] >= 0) {
    const uint8_t b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
  return true;
}

FrameChannel::RecvStatus FrameChannel::Receive(Message* out,
                                               uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  rx_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                  [&] { return !rx_queue_.empty() || dead_; });
  if (!rx_queue_.empty()) {
    KeepSpareLocked(&spare_bodies_, std::move(out->body));
    *out = std::move(rx_queue_.front());
    rx_queue_.pop_front();
    return RecvStatus::kOk;
  }
  return dead_ ? RecvStatus::kClosed : RecvStatus::kTimeout;
}

bool FrameChannel::TryReceive(Message* out) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (rx_queue_.empty()) return false;
  KeepSpareLocked(&spare_bodies_, std::move(out->body));
  *out = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  return true;
}

bool FrameChannel::alive() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return !dead_;
}

std::string FrameChannel::death_reason() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return death_reason_;
}

int64_t FrameChannel::ms_since_last_rx() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return NowMs() - last_rx_ms_;
}

bool FrameChannel::DrainSends(uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  return drain_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [&] { return dead_ || (inflight_.empty() && !OutPendingLocked()); });
}

FrameChannel::Stats FrameChannel::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return stats_;
}

// Message buffers run to hundreds of KB. Fresh ones are fresh pages, and
// faulting those in costs more than filling them, so a channel keeps a few
// of the buffers it is done with: acked wire frames for the next Send, and
// the bodies callers hand back by receiving into the same Message again.
void FrameChannel::KeepSpareLocked(std::vector<std::vector<uint8_t>>* spares,
                                   std::vector<uint8_t>&& buffer) {
  if (buffer.capacity() > 0 && spares->size() < kMaxSpareBuffers) {
    spares->push_back(std::move(buffer));
  }
}

std::vector<uint8_t> FrameChannel::TakeSpareLocked(
    std::vector<std::vector<uint8_t>>* spares) {
  std::vector<uint8_t> buffer;
  if (!spares->empty()) {
    buffer = std::move(spares->back());
    spares->pop_back();
  }
  return buffer;
}

void FrameChannel::MarkDeadLocked(const std::string& reason) {
  if (dead_) return;
  dead_ = true;
  death_reason_ = "channel to " + options_.peer + ": " + reason;
  rx_cv_.notify_all();
  drain_cv_.notify_all();
}

void FrameChannel::SendControlLocked(uint32_t ctl, uint64_t seq) {
  PayloadWriter payload;
  payload.Put(ctl);
  payload.Put(seq);
  const std::vector<uint8_t> wire =
      EncodeFrame(FrameKind::kDistMessage, payload.bytes());
  out_buffer_.insert(out_buffer_.end(), wire.begin(), wire.end());
}

bool FrameChannel::WriteWireLocked(const std::vector<uint8_t>& wire) {
  out_buffer_.insert(out_buffer_.end(), wire.begin(), wire.end());
  return true;
}

bool FrameChannel::FlushWrites() {
  // Only this (the io) thread changes out_buffer_, so the socket writes
  // read it without the lock, and Send / Receive callers never wait on a
  // write syscall. The lock covers what other threads read: out_begin_
  // (DrainSends), the stats and last_tx_ms_.
  size_t begin = 0;
  size_t end = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (dead_) return false;
    begin = out_begin_;
    end = out_buffer_.size();
  }
  size_t done = begin;
  std::string error;
  while (done < end) {
    // MSG_NOSIGNAL: writing to a socket whose peer was SIGKILL'd must
    // surface as EPIPE (→ channel death), not take the process down.
    const ssize_t n =
        ::send(fd_, out_buffer_.data() + done, end - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      error = Errno("write failed");
      break;
    }
    done += static_cast<size_t>(n);
  }
  std::unique_lock<std::mutex> lock(mutex_);
  stats_.bytes_sent += done - begin;
  if (!error.empty()) {
    MarkDeadLocked(error);
    out_buffer_.clear();
    out_begin_ = 0;
    return false;
  }
  if (done == begin) return !dead_;
  out_begin_ = done;
  last_tx_ms_ = NowMs();
  if (!OutPendingLocked()) {
    out_buffer_.clear();
    out_begin_ = 0;
    if (inflight_.empty()) drain_cv_.notify_all();
  } else if (out_begin_ >= out_buffer_.size() / 2) {
    // Compact once the written prefix is at least half the buffer, so
    // appends stay amortized O(1) per byte.
    out_buffer_.erase(out_buffer_.begin(),
                      out_buffer_.begin() + static_cast<ptrdiff_t>(out_begin_));
    out_begin_ = 0;
  }
  return !dead_;
}

void FrameChannel::HandleFrame(const uint8_t* payload, size_t size) {
  // Caller (IoLoop) holds mutex_ and has already validated the CRC.
  PayloadReader in(payload, size);
  uint32_t ctl = 0;
  uint64_t seq = 0;
  if (!in.Get(&ctl) || !in.Get(&seq)) {
    MarkDeadLocked("malformed channel header (framing lost)");
    return;
  }
  switch (ctl) {
    case kCtlData: {
      uint32_t app_type = 0;
      if (!in.Get(&app_type)) {
        MarkDeadLocked("malformed data frame (framing lost)");
        return;
      }
      if (seq == delivered_seq_ + 1) {
        Message msg;
        msg.type = app_type;
        msg.body = TakeSpareLocked(&spare_bodies_);
        msg.body.assign(payload + (kChannelHeaderBytes + 4), payload + size);
        rx_queue_.push_back(std::move(msg));
        delivered_seq_ = seq;
        last_nak_cum_ = ~0ULL;  // progress: a new gap deserves a new NAK
        ++stats_.frames_received;
        rx_cv_.notify_all();
      } else if (seq <= delivered_seq_) {
        // Duplicate: the peer retransmitted because our ack was lost (or a
        // kDuplicate fault fired). Re-ack, never redeliver.
        ++stats_.dup_suppressed;
        if (obs::MetricsEnabled()) TransportMetrics::Get().dup_suppressed->Inc();
      } else {
        // Gap: something before this frame was dropped or CRC-rejected.
        // Renegotiate from the last in-order point; the peer resends
        // everything after it (go-back-N). NAK once per gap — the window
        // of frames behind the gap all arrive out of order and must not
        // each trigger a full-window retransmit.
        if (last_nak_cum_ != delivered_seq_) {
          last_nak_cum_ = delivered_seq_;
          ++stats_.naks_sent;
          SendControlLocked(kCtlNak, delivered_seq_);
        }
      }
      break;
    }
    case kCtlAck: {
      while (!inflight_.empty() && inflight_.front().seq <= seq) {
        KeepSpareLocked(&spare_wires_, std::move(inflight_.front().wire));
        inflight_.pop_front();
      }
      if (inflight_.empty() && !OutPendingLocked()) drain_cv_.notify_all();
      break;
    }
    case kCtlNak: {
      ++stats_.naks_received;
      while (!inflight_.empty() && inflight_.front().seq <= seq) {
        KeepSpareLocked(&spare_wires_, std::move(inflight_.front().wire));
        inflight_.pop_front();
      }
      // Everything after the peer's last in-order frame: resend now. The
      // NAK itself proves the peer is alive, so the retransmit budget
      // restarts — exhaustion must measure silence, not renegotiation.
      const int64_t now = NowMs();
      for (Inflight& f : inflight_) {
        if (f.sent_once) {
          f.next_deadline_ms = now;
          f.attempts = 1;
          f.backoff_ms = options_.rto_initial_ms;
        }
      }
      break;
    }
    case kCtlPing:
      break;  // last_rx_ms_ already refreshed by the read path
    default:
      MarkDeadLocked("unknown channel frame type " + std::to_string(ctl));
      break;
  }
}

void FrameChannel::IoLoop() {
  while (true) {
    int64_t poll_deadline;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (closing_ || dead_) break;
      const int64_t now = NowMs();

      // Transmit pass over the inflight window, in sequence order.
      for (Inflight& f : inflight_) {
        if (!f.sent_once) {
          if (f.attempts == 0 && f.hold_until_ms == 0) {
            // First consideration: decide this frame's fault, once.
            const FaultAction action = fault_.Decide(f.seq);
            if (action != FaultAction::kNone) {
              ++stats_.faults_injected;
              if (obs::MetricsEnabled()) {
                TransportMetrics::Get().faults_injected->Inc();
              }
            }
            switch (action) {
              case FaultAction::kDrop:
                // Silently not sent; the retransmit timer recovers it.
                f.sent_once = true;
                f.attempts = 1;
                f.backoff_ms = options_.rto_initial_ms;
                f.next_deadline_ms = now + f.backoff_ms;
                continue;
              case FaultAction::kCorrupt: {
                // Flip payload bytes (past the frame header) in a sent
                // copy; the original stays intact for the retransmit the
                // receiver's NAK will trigger.
                std::vector<uint8_t> mutated = f.wire;
                fault_.CorruptPayload(
                    f.seq, mutated.data() + kFrameHeaderBytes,
                    mutated.size() - kFrameHeaderBytes);
                WriteWireLocked(mutated);
                break;
              }
              case FaultAction::kDuplicate:
                WriteWireLocked(f.wire);
                WriteWireLocked(f.wire);
                break;
              case FaultAction::kDelay:
                f.hold_until_ms = now + options_.fault.delay_ms;
                continue;  // sent when the hold expires
              case FaultAction::kNone:
                WriteWireLocked(f.wire);
                break;
            }
            f.sent_once = true;
            f.attempts = 1;
            f.backoff_ms = options_.rto_initial_ms;
            f.next_deadline_ms = now + f.backoff_ms;
            ++stats_.frames_sent;
            if (obs::MetricsEnabled()) TransportMetrics::Get().frames_sent->Inc();
          } else if (f.hold_until_ms != 0 && now >= f.hold_until_ms) {
            // Delayed frame: send clean now.
            WriteWireLocked(f.wire);
            f.sent_once = true;
            f.attempts = 1;
            f.backoff_ms = options_.rto_initial_ms;
            f.next_deadline_ms = now + f.backoff_ms;
            ++stats_.frames_sent;
            if (obs::MetricsEnabled()) TransportMetrics::Get().frames_sent->Inc();
          }
        } else if (now >= f.next_deadline_ms) {
          // Bounded exponential backoff; exhaustion declares the peer dead
          // (the executor's recovery path takes over from there).
          if (f.attempts > options_.max_retransmits) {
            MarkDeadLocked("retransmit limit (" +
                           std::to_string(options_.max_retransmits) +
                           ") exhausted for frame " + std::to_string(f.seq));
            break;
          }
          WriteWireLocked(f.wire);
          ++f.attempts;
          ++stats_.retransmits;
          if (obs::MetricsEnabled()) TransportMetrics::Get().retransmits->Inc();
          f.backoff_ms = std::min(f.backoff_ms * 2, options_.rto_max_ms);
          f.next_deadline_ms = now + f.backoff_ms;
        }
      }
      if (dead_) break;

      // Idle keepalive so a busy-computing peer still proves liveness.
      if (options_.keepalive_ms > 0 &&
          now - last_tx_ms_ >=
              static_cast<int64_t>(options_.keepalive_ms) &&
          !OutPendingLocked()) {
        SendControlLocked(kCtlPing, 0);
      }

    }
    if (!FlushWrites()) break;

    struct pollfd fds[2];
    fds[0].fd = fd_;
    fds[0].events = POLLIN;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Earliest future event bounds the poll timeout.
      const int64_t now = NowMs();
      poll_deadline = now + 100;
      for (const Inflight& f : inflight_) {
        if (!f.sent_once && f.hold_until_ms != 0) {
          poll_deadline = std::min(poll_deadline, f.hold_until_ms);
        } else if (f.sent_once) {
          poll_deadline = std::min(poll_deadline, f.next_deadline_ms);
        } else {
          poll_deadline = now;  // unsent frame: transmit immediately
        }
      }
      if (options_.keepalive_ms > 0) {
        poll_deadline =
            std::min(poll_deadline,
                     last_tx_ms_ + static_cast<int64_t>(options_.keepalive_ms));
      }
      if (OutPendingLocked()) fds[0].events |= POLLOUT;
    }
    fds[1].fd = wake_pipe_[0];
    fds[1].events = POLLIN;
    const int timeout =
        static_cast<int>(std::max<int64_t>(0, poll_deadline - NowMs()));
    const int rc = ::poll(fds, wake_pipe_[0] >= 0 ? 2 : 1, timeout);
    if (rc < 0 && errno != EINTR) {
      std::unique_lock<std::mutex> lock(mutex_);
      MarkDeadLocked(Errno("poll failed"));
      break;
    }
    if (wake_pipe_[0] >= 0) {
      uint8_t drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }

    // Read everything available straight into rx_buffer_ (the io thread's
    // alone, so no lock), then parse complete frames in place.
    bool peer_eof = false;
    bool read_error = false;
    std::string read_error_text;
    size_t bytes_read = 0;
    while (true) {
      if (rx_buffer_.size() - rx_end_ < kReadChunk) {
        if (rx_begin_ > 0) {
          // Slide the unparsed tail to the front before growing.
          std::memmove(rx_buffer_.data(), rx_buffer_.data() + rx_begin_,
                       rx_end_ - rx_begin_);
          rx_end_ -= rx_begin_;
          rx_begin_ = 0;
        }
        if (rx_buffer_.size() - rx_end_ < kReadChunk) {
          rx_buffer_.resize(std::max(rx_end_ + kReadChunk,
                                     2 * rx_buffer_.size()));
        }
      }
      const ssize_t n = ::read(fd_, rx_buffer_.data() + rx_end_,
                               rx_buffer_.size() - rx_end_);
      if (n > 0) {
        rx_end_ += static_cast<size_t>(n);
        bytes_read += static_cast<size_t>(n);
        continue;
      }
      if (n == 0) {
        peer_eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      read_error = true;
      read_error_text = Errno("read failed");
      break;
    }

    // Find and checksum the complete frames before taking the lock. A
    // malformed header means framing is lost for good (only payload
    // corruption is survivable — the CRC covers it); the channel is torn
    // down once the frames before it are handled.
    struct RxFrame {
      const uint8_t* payload;
      size_t size;
      bool crc_ok;
    };
    std::vector<RxFrame> frames;
    std::string framing_error;
    size_t scan = rx_begin_;
    while (rx_end_ - scan >= kFrameHeaderBytes) {
      ParsedFrameHeader header;
      if (!ParseFrameHeader(rx_buffer_.data() + scan, &header,
                            &framing_error)) {
        break;
      }
      if (header.kind != FrameKind::kDistMessage ||
          header.payload_size > options_.max_payload_bytes) {
        framing_error = "bad frame kind or oversized payload";
        break;
      }
      const size_t payload_size = static_cast<size_t>(header.payload_size);
      if (rx_end_ - scan < kFrameHeaderBytes + payload_size) break;  // partial
      const uint8_t* payload = rx_buffer_.data() + scan + kFrameHeaderBytes;
      frames.push_back({payload, payload_size,
                        Crc32(payload, payload_size) == header.payload_crc});
      scan += kFrameHeaderBytes + payload_size;
    }
    rx_begin_ = scan;

    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (bytes_read > 0) {
        stats_.bytes_received += bytes_read;
        last_rx_ms_ = NowMs();
      }
      bool delivered_or_dup = false;
      const uint64_t delivered_before = delivered_seq_;
      const uint64_t dups_before = stats_.dup_suppressed;
      for (const RxFrame& frame : frames) {
        if (dead_) break;
        if (!frame.crc_ok) {
          // Reject-and-renegotiate: drop the frame, tell the peer where the
          // in-order stream ends so it retransmits from there.
          ++stats_.crc_rejects;
          if (obs::MetricsEnabled()) TransportMetrics::Get().crc_rejects->Inc();
          if (last_nak_cum_ != delivered_seq_) {
            last_nak_cum_ = delivered_seq_;
            ++stats_.naks_sent;
            SendControlLocked(kCtlNak, delivered_seq_);
          }
        } else {
          HandleFrame(frame.payload, frame.size);
        }
      }
      if (!framing_error.empty() && !dead_) {
        MarkDeadLocked("lost framing: " + framing_error);
      }
      if (rx_begin_ == rx_end_) rx_begin_ = rx_end_ = 0;
      delivered_or_dup = delivered_seq_ != delivered_before ||
                         stats_.dup_suppressed != dups_before;
      if (delivered_or_dup && !dead_) {
        // One cumulative ack per parse batch (covers re-acking duplicates).
        SendControlLocked(kCtlAck, delivered_seq_);
      }
    }
    if (!FlushWrites()) break;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (peer_eof && !dead_) {
        MarkDeadLocked("EOF from peer");
      } else if (read_error && !dead_) {
        MarkDeadLocked(read_error_text);
      }
      if (dead_) break;
    }
  }
  // Final wake for anyone blocked on a channel that died mid-wait.
  std::unique_lock<std::mutex> lock(mutex_);
  rx_cv_.notify_all();
  drain_cv_.notify_all();
}

// --------------------------------------------------------------------------
// Socket helpers.

bool MakeSocketPair(int fds[2], std::string* error) {
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    if (error != nullptr) *error = Errno("socketpair failed");
    return false;
  }
  return true;
}

int ListenLoopback(uint16_t* port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = Errno("socket failed");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    if (error != nullptr) *error = Errno("bind/listen failed");
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    if (error != nullptr) *error = Errno("getsockname failed");
    ::close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

int AcceptWithTimeout(int listen_fd, uint32_t timeout_ms, std::string* error) {
  const int64_t deadline = NowMs() + timeout_ms;
  while (true) {
    struct pollfd pfd;
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int64_t remaining = deadline - NowMs();
    if (remaining <= 0) {
      if (error != nullptr) *error = "accept timed out";
      return -1;
    }
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining));
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = Errno("poll failed");
      return -1;
    }
    if (rc == 0) continue;  // loop re-checks the deadline
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      continue;  // transient — retry inside the deadline
    }
    if (error != nullptr) *error = Errno("accept failed");
    return -1;
  }
}

int ConnectLoopback(uint16_t port, uint32_t timeout_ms, std::string* error) {
  const int64_t deadline = NowMs() + timeout_ms;
  uint32_t backoff_ms = 5;  // bounded exponential backoff between attempts
  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error != nullptr) *error = Errno("socket failed");
      return -1;
    }
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    ::close(fd);
    if (NowMs() + backoff_ms > deadline) {
      if (error != nullptr) *error = Errno("connect timed out");
      return -1;
    }
    struct timespec ts;
    ts.tv_sec = backoff_ms / 1000;
    ts.tv_nsec = static_cast<long>(backoff_ms % 1000) * 1000000L;
    ::nanosleep(&ts, nullptr);
    backoff_ms = std::min(backoff_ms * 2, 200u);
  }
}

}  // namespace warplda
