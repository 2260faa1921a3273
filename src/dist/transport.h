#ifndef WARPLDA_DIST_TRANSPORT_H_
#define WARPLDA_DIST_TRANSPORT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dist/fault.h"
#include "util/contracts.h"

namespace warplda {

/// Reliable, ordered message channel over one stream socket — the transport
/// behind the distributed grid executor (dist/dist_executor.h).
///
/// Wire format: every message is one util/checkpoint_io frame (magic,
/// version, endian tag, CRC-32 over the payload) of kind kDistMessage. The
/// frame payload opens with a channel header
///
///   u32 channel message type (data / ack / nak / ping)
///   u64 sequence number (data) or cumulative sequence (ack / nak)
///   u32 application message type (data frames only)
///
/// followed by the application body.
///
/// Robustness envelope (every edge the fault injector can poke):
///  * reliability — data frames carry consecutive sequence numbers and stay
///    buffered until cumulatively acked; a retransmit timer with bounded
///    exponential backoff (rto_initial_ms doubling to rto_max_ms,
///    max_retransmits attempts) resends unacked frames, go-back-N style;
///  * CRC reject-and-renegotiate — a frame whose payload fails the CRC is
///    dropped and answered with a NAK of the last in-order sequence, which
///    triggers immediate retransmission of everything after it;
///  * duplicate suppression — a data frame at or below the delivered
///    sequence is re-acked (the peer's retransmit means our ack was lost)
///    but never redelivered to the application;
///  * heartbeats — an idle sender emits ping frames every keepalive_ms, so
///    a receiver can distinguish "peer busy computing" (pings arriving)
///    from "peer dead" (silence + EOF);
///  * death detection — EOF, a write error (EPIPE after a SIGKILL'd peer),
///    a malformed header (framing lost), or retransmit exhaustion marks the
///    channel dead with a reason; senders/receivers observe it immediately.
///
/// Threading: one io thread per channel owns the socket (nonblocking, poll
/// driven). Send() enqueues and wakes it; Receive() blocks on the delivery
/// queue. Any thread may call Send/Receive; the io thread never calls user
/// code. All shared state is mutex-guarded (TSan-clean by construction).
class FrameChannel {
 public:
  struct Options {
    /// Stream-read allocation bound (no file size exists to validate
    /// against). Sized for a worst-case sweep checkpoint message.
    uint64_t max_payload_bytes = 1ull << 30;
    uint32_t rto_initial_ms = 40;   ///< first retransmit backoff
    uint32_t rto_max_ms = 1000;     ///< backoff ceiling
    uint32_t max_retransmits = 12;  ///< per frame; exhaustion = peer dead
    uint32_t keepalive_ms = 50;     ///< idle ping period; 0 disables
    /// Outbound fault injection (first transmission of data frames only).
    FaultSpec fault;
    std::string peer = "peer";  ///< label for errors and metrics
  };

  /// Transport counters, all monotonic. The fault-matrix tests assert the
  /// envelope from these: every injected fault shows up (crc_rejects,
  /// dup_suppressed, retransmits) and stays bounded.
  struct Stats {
    uint64_t frames_sent = 0;      ///< data frames handed to the socket
    uint64_t frames_received = 0;  ///< data frames delivered in order
    uint64_t bytes_sent = 0;       ///< wire bytes, all frame kinds
    uint64_t bytes_received = 0;
    uint64_t retransmits = 0;      ///< data frame re-sends (timer or NAK)
    uint64_t crc_rejects = 0;      ///< frames dropped for a bad payload CRC
    uint64_t dup_suppressed = 0;   ///< duplicate data frames re-acked
    uint64_t naks_sent = 0;
    uint64_t naks_received = 0;
    uint64_t faults_injected = 0;  ///< outbound faults the injector fired
  };

  struct Message {
    uint32_t type = 0;          ///< application message type
    std::vector<uint8_t> body;  ///< application payload
  };

  enum class RecvStatus { kOk, kTimeout, kClosed };

  /// Takes ownership of `fd` (a connected stream socket). The io thread
  /// starts immediately — in a forked-worker design, construct only after
  /// every fork() (fork from a multithreaded process is where sanitizers
  /// and POSIX stop making promises).
  FrameChannel(int fd, Options options);
  ~FrameChannel();

  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  /// Enqueues a data message. Returns false when the channel is dead (the
  /// message will never be delivered). Never blocks on the socket. The
  /// wire frame is built in one allocation and checksummed outside the
  /// channel lock.
  bool Send(uint32_t type, std::span<const uint8_t> body) {
    return SendParts(type, {body});
  }

  /// Send with the body given as consecutive byte ranges, joined only in
  /// the wire frame (the executor forwards a delta's header and one slice
  /// this way).
  bool SendParts(uint32_t type,
                 std::initializer_list<std::span<const uint8_t>> parts);

  /// Blocks up to `timeout_ms` for the next in-order message. kClosed means
  /// dead AND drained — messages delivered before death are still returned.
  RecvStatus Receive(Message* out, uint32_t timeout_ms);

  /// Nonblocking Receive.
  bool TryReceive(Message* out);

  /// False once the peer is unreachable (EOF, write error, retransmit
  /// exhaustion, lost framing).
  bool alive() const;

  /// Why the channel died ("" while alive).
  std::string death_reason() const;

  /// Milliseconds since any frame (including pings) arrived — the
  /// heartbeat-timeout input for death detection.
  int64_t ms_since_last_rx() const;

  /// Blocks until every queued frame has been handed to the socket (not
  /// necessarily acked) or the channel dies. The shutdown path uses this so
  /// the final message is on the wire before the fd closes.
  bool DrainSends(uint32_t timeout_ms);

  Stats stats() const;

  /// Closes the socket and stops the io thread (idempotent). Queued but
  /// undelivered messages are dropped.
  void Close();

 private:
  struct Inflight {
    uint64_t seq = 0;
    std::vector<uint8_t> wire;   ///< encoded frame, ready to resend
    int64_t next_deadline_ms = 0;
    uint32_t attempts = 0;       ///< transmissions so far
    uint32_t backoff_ms = 0;
    bool sent_once = false;      ///< false until first transmission
    int64_t hold_until_ms = 0;   ///< kDelay fault: do not send before this
  };

  void IoLoop();
  void MarkDeadLocked(const std::string& reason);
  void HandleFrame(const uint8_t* payload, size_t size);
  void SendControlLocked(uint32_t ctl, uint64_t seq);
  /// Hands queued wire bytes to the socket (io thread only; takes the
  /// lock itself). Returns false once the channel is dead.
  bool FlushWrites();
  bool WriteWireLocked(const std::vector<uint8_t>& wire);
  /// Wire bytes queued but not yet handed to the socket.
  bool OutPendingLocked() const { return out_begin_ < out_buffer_.size(); }
  /// Spare buffer pools (see transport.cc): keep `buffer` if there is
  /// room; take one, or an empty vector.
  static void KeepSpareLocked(std::vector<std::vector<uint8_t>>* spares,
                              std::vector<uint8_t>&& buffer);
  static std::vector<uint8_t> TakeSpareLocked(
      std::vector<std::vector<uint8_t>>* spares);
  static constexpr size_t kMaxSpareBuffers = 4;

  /// Fixed at construction; Close() only tears down the descriptors.
  WARP_IMMUTABLE_AFTER(FrameChannel) Options options_;
  WARP_IMMUTABLE_AFTER(FrameChannel, Close) int fd_ = -1;
  WARP_IMMUTABLE_AFTER(FrameChannel, Close) int wake_pipe_[2] = {-1, -1};

  mutable std::mutex mutex_;
  std::condition_variable rx_cv_;
  std::condition_variable drain_cv_;
  bool dead_ = false;
  bool closing_ = false;
  std::string death_reason_;

  // TX state (io thread + Send under mutex_).
  uint64_t next_seq_ = 1;
  std::deque<Inflight> inflight_;  ///< unacked, seq ascending
  /// Wire bytes not yet written are out_buffer_[out_begin_, size()).
  std::vector<uint8_t> out_buffer_;
  size_t out_begin_ = 0;
  int64_t last_tx_ms_ = 0;
  std::vector<std::vector<uint8_t>> spare_wires_;   ///< acked frames' wires
  std::vector<std::vector<uint8_t>> spare_bodies_;  ///< received bodies

  // RX state. rx_buffer_ is the io thread's alone: it reads into
  // rx_buffer_[rx_end_, size()) and parses frames in place from rx_begin_.
  std::vector<uint8_t> rx_buffer_;
  size_t rx_begin_ = 0;
  size_t rx_end_ = 0;
  uint64_t delivered_seq_ = 0;      ///< highest in-order data seq delivered
  /// Last cumulative seq we NAKed, or ~0 if delivery has advanced since.
  /// One gap produces one NAK — re-NAKing on every out-of-order arrival
  /// would retransmit the whole window per arrival (a NAK storm).
  uint64_t last_nak_cum_ = ~0ULL;
  std::deque<Message> rx_queue_;
  int64_t last_rx_ms_ = 0;

  FaultInjector fault_;
  Stats stats_;
  WARP_IMMUTABLE_AFTER(FrameChannel) std::thread io_thread_;
};

/// Socket helpers for the executor (all loopback/local, all with the
/// timeout + EINTR discipline the robustness envelope requires).

/// A connected AF_UNIX socketpair (SOCK_STREAM); returns false + errno text
/// on failure. The default transport between a coordinator and its forked
/// workers.
bool MakeSocketPair(int fds[2], std::string* error);

/// Loopback TCP with real connect/accept edges, for exercising the
/// timeout/retry envelope over an actual network stack: listener on
/// 127.0.0.1:ephemeral (returns the port), accept with a deadline, connect
/// with a deadline + bounded exponential-backoff retry.
int ListenLoopback(uint16_t* port, std::string* error);
int AcceptWithTimeout(int listen_fd, uint32_t timeout_ms, std::string* error);
int ConnectLoopback(uint16_t port, uint32_t timeout_ms, std::string* error);

}  // namespace warplda

#endif  // WARPLDA_DIST_TRANSPORT_H_
