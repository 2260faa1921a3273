#include "dist/dist_executor.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <span>
#include <thread>

#include "core/checkpoint.h"
#include "dist/partitioner.h"
#include "obs/metrics.h"
#include "util/checkpoint_io.h"
#include "util/rng.h"

namespace warplda {
namespace {

/// Version of the message layouts below, carried by kMsgHello: a worker
/// built with other layouts fails the handshake instead of misreading
/// frames. 2: block deltas cut into per-reader slices, kMsgStats carries
/// worker times.
constexpr uint32_t kDistProtocolVersion = 2;

/// Application message types carried by FrameChannel data frames.
constexpr uint32_t kMsgHello = 1;      ///< worker -> coord: id, version
constexpr uint32_t kMsgAssign = 2;     ///< coord -> worker: epoch, iter, owner
constexpr uint32_t kMsgRestore = 3;    ///< coord -> worker: + sweep checkpoint
constexpr uint32_t kMsgBlockDelta = 4; ///< a block's effect: all slices up,
                                       ///< the reader's own one down
constexpr uint32_t kMsgRecover = 5;    ///< coord -> worker: abort, epoch bump
constexpr uint32_t kMsgShutdown = 6;   ///< coord -> worker: run complete
constexpr uint32_t kMsgStats = 7;      ///< worker -> coord: channel stats

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Where the coordinator's main thread spends a sweep, in the global
/// registry. Relay, apply and idle wait are observed once per completed span
/// (their totals over that span); capture once per barrier checkpoint.
/// Recorded only while obs::MetricsEnabled().
struct CoordinatorMetrics {
  obs::Histogram* relay_us;
  obs::Histogram* apply_us;
  obs::Histogram* capture_us;
  obs::Histogram* wait_us;

  static const CoordinatorMetrics& Get() {
    static const CoordinatorMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      CoordinatorMetrics cm;
      cm.relay_us = reg.GetHistogram(
          "dist_coord_relay_us",
          "Coordinator time per span sending peers' deltas to other workers");
      cm.apply_us = reg.GetHistogram(
          "dist_coord_apply_us",
          "Coordinator time per span decoding and applying block deltas");
      cm.capture_us = reg.GetHistogram(
          "dist_coord_capture_us",
          "Coordinator time per barrier checkpoint capture");
      cm.wait_us = reg.GetHistogram(
          "dist_coord_wait_us",
          "Coordinator time per span idle, with no delta to handle");
      return cm;
    }();
    return m;
  }
};

uint32_t BlockOf(const SweepPlan& plan, uint32_t doc_block,
                 uint32_t word_block) {
  return doc_block * plan.num_word_blocks + word_block;
}

/// Per-direction fault schedule seeds derived from the one run seed, so a
/// single number reproduces the whole run's fault pattern yet no two
/// channel directions share a schedule.
FaultSpec ChannelFault(const FaultSpec& base, uint32_t worker_id,
                       bool coordinator_side) {
  FaultSpec spec = base;
  if (spec.seed != 0) {
    spec.seed = SplitMix64(spec.seed ^
                           (static_cast<uint64_t>(worker_id) * 2 +
                            (coordinator_side ? 1 : 0) + 0x9E37u));
    if (spec.seed == 0) spec.seed = 1;
  }
  return spec;
}

void AccumulateStats(FrameChannel::Stats* into,
                     const FrameChannel::Stats& from) {
  into->frames_sent += from.frames_sent;
  into->frames_received += from.frames_received;
  into->bytes_sent += from.bytes_sent;
  into->bytes_received += from.bytes_received;
  into->retransmits += from.retransmits;
  into->crc_rejects += from.crc_rejects;
  into->dup_suppressed += from.dup_suppressed;
  into->naks_sent += from.naks_sent;
  into->naks_received += from.naks_received;
  into->faults_injected += from.faults_injected;
}

/// kMsgStats: the worker's channel stats, then its main-thread times.
std::vector<uint8_t> EncodeStats(const DistWorkerReport& r) {
  const FrameChannel::Stats& s = r.stats;
  PayloadWriter out;
  out.Put(s.frames_sent);
  out.Put(s.frames_received);
  out.Put(s.bytes_sent);
  out.Put(s.bytes_received);
  out.Put(s.retransmits);
  out.Put(s.crc_rejects);
  out.Put(s.dup_suppressed);
  out.Put(s.naks_sent);
  out.Put(s.naks_received);
  out.Put(s.faults_injected);
  out.Put(r.compute_us);
  out.Put(r.encode_us);
  out.Put(r.apply_us);
  out.Put(r.idle_us);
  return out.Take();
}

bool DecodeStats(const std::vector<uint8_t>& body, DistWorkerReport* r) {
  FrameChannel::Stats* s = &r->stats;
  PayloadReader in(body);
  return in.Get(&s->frames_sent) && in.Get(&s->frames_received) &&
         in.Get(&s->bytes_sent) && in.Get(&s->bytes_received) &&
         in.Get(&s->retransmits) && in.Get(&s->crc_rejects) &&
         in.Get(&s->dup_suppressed) && in.Get(&s->naks_sent) &&
         in.Get(&s->naks_received) && in.Get(&s->faults_injected) &&
         in.Get(&r->compute_us) && in.Get(&r->encode_us) &&
         in.Get(&r->apply_us) && in.Get(&r->idle_us);
}

/// Wire layout of a kMsgBlockDelta body: epoch, stage, block, ck_net, then
/// the slices to the end of the body. A slice is self-delimiting, so the
/// header followed by any one slice is itself a valid body — what the
/// coordinator forwards to that slice's reader, without re-encoding.
constexpr size_t kDeltaHeaderBytes = 8 + 4 + 4 + 4 + 8;
constexpr size_t kTopicCountBytes = 4 + 4;
constexpr size_t kSliceHeaderBytes = 4 + 8 + 8;
constexpr size_t kMoveBytes = 8 + 4 + 4 + 4;

/// Encodes `d` into `*out`, replacing what it held (the caller reuses one
/// writer, so its buffer is not faulted in afresh per block).
void EncodeDelta(uint64_t epoch, const GridBlockDelta& d, PayloadWriter* out) {
  size_t size = kDeltaHeaderBytes + d.ck_net.size() * kTopicCountBytes;
  for (const GridBlockDelta::Slice& slice : d.slices) {
    size += kSliceHeaderBytes + slice.moves.size() * kMoveBytes +
            slice.proposals.size() * sizeof(uint32_t);
  }
  out->Clear();
  out->Reserve(size);
  out->Put(epoch);
  out->Put(static_cast<uint32_t>(d.stage));
  out->Put(d.doc_block);
  out->Put(d.word_block);
  out->Put(static_cast<uint64_t>(d.ck_net.size()));
  for (const GridBlockDelta::TopicCount& tc : d.ck_net) {
    out->Put(tc.topic);
    out->Put(tc.count);
  }
  for (const GridBlockDelta::Slice& slice : d.slices) {
    out->Put(slice.reader);
    out->Put(static_cast<uint64_t>(slice.moves.size()));
    for (const GridBlockDelta::Move& mv : slice.moves) {
      out->Put(mv.pos);
      out->Put(mv.item);
      out->Put(mv.from);
      out->Put(mv.to);
    }
    out->PutVec(slice.proposals);
  }
}

/// Byte ranges of a decoded delta body: the header (through ck_net) and
/// each slice, in the body's slice order.
struct DeltaLayout {
  size_t header_bytes = 0;
  std::vector<std::pair<size_t, size_t>> slices;  ///< [begin, end)
};

bool DecodeDelta(const std::vector<uint8_t>& body, uint64_t* epoch,
                 GridBlockDelta* d, DeltaLayout* layout) {
  PayloadReader in(body);
  auto offset = [&] { return body.size() - in.remaining(); };
  uint32_t stage = 0;
  uint64_t count = 0;
  if (!in.Get(epoch) || !in.Get(&stage) || !in.Get(&d->doc_block) ||
      !in.Get(&d->word_block) || !in.Get(&count)) {
    return false;
  }
  if (stage > static_cast<uint32_t>(SweepStage::kDone)) return false;
  d->stage = static_cast<SweepStage>(stage);
  // Bound every count by the bytes left before resizing.
  if (count > in.remaining() / kTopicCountBytes) return false;
  d->ck_net.resize(static_cast<size_t>(count));
  for (GridBlockDelta::TopicCount& tc : d->ck_net) {
    if (!in.Get(&tc.topic) || !in.Get(&tc.count)) return false;
  }
  if (layout != nullptr) {
    layout->header_bytes = offset();
    layout->slices.clear();
  }
  // Decode over `d`'s existing slices, so a reused delta keeps their
  // buffers.
  size_t num_slices = 0;
  while (!in.exhausted()) {
    const size_t begin = offset();
    if (num_slices == d->slices.size()) d->slices.emplace_back();
    GridBlockDelta::Slice& slice = d->slices[num_slices++];
    if (!in.Get(&slice.reader) || !in.Get(&count)) return false;
    if (count > in.remaining() / kMoveBytes) return false;
    slice.moves.resize(static_cast<size_t>(count));
    for (GridBlockDelta::Move& mv : slice.moves) {
      if (!in.Get(&mv.pos) || !in.Get(&mv.item) || !in.Get(&mv.from) ||
          !in.Get(&mv.to)) {
        return false;
      }
    }
    if (!in.GetVec(&slice.proposals)) return false;
    if (layout != nullptr) layout->slices.emplace_back(begin, offset());
  }
  d->slices.resize(num_slices);
  return true;
}

/// A kMsgHello from a worker speaking this protocol version.
bool DecodeHello(const FrameChannel::Message& msg, uint32_t* worker_id) {
  PayloadReader in(msg.body);
  uint32_t version = 0;
  return msg.type == kMsgHello && in.Get(worker_id) && in.Get(&version) &&
         version == kDistProtocolVersion;
}

/// kMsgAssign / kMsgRestore share a prefix: epoch, iteration, owner map.
std::vector<uint8_t> EncodeAssignment(uint64_t epoch, uint32_t iteration,
                                      const std::vector<uint32_t>& owner,
                                      const std::vector<uint8_t>* ckpt) {
  PayloadWriter out;
  out.Put(epoch);
  out.Put(iteration);
  out.PutVec(owner);
  if (ckpt != nullptr) out.PutVec(*ckpt);
  return out.Take();
}

bool DecodeAssignment(const std::vector<uint8_t>& body, uint64_t* epoch,
                      uint32_t* iteration, std::vector<uint32_t>* owner,
                      std::vector<uint8_t>* ckpt) {
  PayloadReader in(body);
  if (!in.Get(epoch) || !in.Get(iteration) || !in.GetVec(owner)) return false;
  if (ckpt != nullptr && !in.GetVec(ckpt)) return false;
  return true;
}

// ==========================================================================
// Worker side (runs in the forked child; _exit()s, never returns).

struct WorkerState {
  GridSampler* sampler = nullptr;
  FrameChannel* channel = nullptr;
  const SweepPlan* plan = nullptr;
  const DistConfig* cfg = nullptr;
  uint32_t worker_id = 0;
  uint32_t num_blocks = 0;

  uint64_t epoch = 0;
  uint32_t iteration = 0;
  std::vector<uint32_t> owner;
  bool have_assignment = false;
  bool sweep_open = false;

  std::vector<char> ran;  ///< per block, current span
  uint32_t ran_count = 0;
  bool restored = false;    ///< a kMsgRestore landed; span state is stale
  bool recovering = false;  ///< between kMsgRecover and its kMsgRestore
  bool shutdown = false;
  bool failed = false;
  uint32_t barriers_done = 0;  ///< spans completed since process start
  DistWorkerReport report;     ///< main-thread times, sent at shutdown

  // Reused for every block, so their buffers are not faulted in afresh.
  GridBlockDelta captured;
  GridBlockDelta received;
  PayloadWriter encoder;
};

/// Adds the µs since `*mark` to `*total` and moves the mark to now.
void Charge(uint64_t* total, int64_t* mark) {
  const int64_t now = NowUs();
  *total += static_cast<uint64_t>(now - *mark);
  *mark = now;
}

void ResetSpan(WorkerState& ws) {
  ws.ran.assign(ws.num_blocks, 0);
  ws.ran_count = 0;
}

void MarkRan(WorkerState& ws, uint32_t block) {
  if (!ws.ran[block]) {
    ws.ran[block] = 1;
    ++ws.ran_count;
  }
}

/// Applies one received message to the worker state. Returns false when the
/// span completed (caller should fall through to the barrier before
/// processing more messages — the queue's next deltas belong to the next
/// span).
bool WorkerHandle(WorkerState& ws, const FrameChannel::Message& msg) {
  switch (msg.type) {
    case kMsgAssign: {
      uint64_t epoch = 0;
      uint32_t iteration = 0;
      std::vector<uint32_t> owner;
      if (!DecodeAssignment(msg.body, &epoch, &iteration, &owner, nullptr) ||
          owner.size() != ws.num_blocks) {
        ws.failed = true;
        return false;
      }
      ws.epoch = epoch;
      ws.iteration = iteration;
      ws.owner = std::move(owner);
      ws.have_assignment = true;
      // Stop draining: if our assign frame was delayed (dropped and
      // retransmitted), faster peers' first-span deltas may already be
      // queued behind it — they must wait until BeginSweep has run.
      return false;
    }
    case kMsgRecover: {
      // Abort now so staged state from the interrupted stage is gone; the
      // restore that follows on this same FIFO channel rebuilds everything.
      ws.sampler->AbortSweep();
      ws.sweep_open = false;
      ws.recovering = true;
      return true;
    }
    case kMsgRestore: {
      uint64_t epoch = 0;
      uint32_t iteration = 0;
      std::vector<uint32_t> owner;
      std::vector<uint8_t> ckpt_bytes;
      SweepCheckpoint ckpt;
      std::string error;
      if (!DecodeAssignment(msg.body, &epoch, &iteration, &owner,
                            &ckpt_bytes) ||
          owner.size() != ws.num_blocks ||
          !DecodeSweepCheckpointPayload(ckpt_bytes, "restore message", &ckpt,
                                        &error)) {
        ws.failed = true;
        return false;
      }
      ws.sampler->AbortSweep();  // idempotent; normally kMsgRecover already did
      ws.epoch = epoch;
      ws.iteration = iteration;
      ws.owner = std::move(owner);
      if (!ws.sampler->RestoreSweepState(ckpt, &error)) {
        ws.failed = true;
        return false;
      }
      ws.sweep_open = ckpt.next_stage != SweepStage::kWordAccept;
      ws.recovering = false;
      ws.restored = true;
      ResetSpan(ws);
      return false;  // span state is new — re-enter the span loop
    }
    case kMsgBlockDelta: {
      uint64_t epoch = 0;
      GridBlockDelta& delta = ws.received;
      if (!DecodeDelta(msg.body, &epoch, &delta, nullptr)) {
        ws.failed = true;
        return false;
      }
      if (epoch != ws.epoch || ws.recovering) return true;  // stale epoch
      const uint32_t b = BlockOf(*ws.plan, delta.doc_block, delta.word_block);
      // A worker is sent its own slice of a peer's block, or none when it
      // reads none of the block's tokens next.
      if (b >= ws.num_blocks || delta.slices.size() > 1 ||
          (delta.slices.size() == 1 &&
           delta.slices[0].reader != ws.worker_id)) {
        ws.failed = true;
        return false;
      }
      std::string error;
      if (!ws.sampler->ApplyBlockDelta(delta, ws.owner, &error)) {
        ws.failed = true;
        return false;
      }
      MarkRan(ws, b);
      // Span complete: stop draining — anything still queued is the next
      // span's traffic and must wait for our own EndStage.
      return ws.ran_count < ws.num_blocks;
    }
    case kMsgShutdown: {
      ws.report.stats = ws.channel->stats();
      ws.channel->Send(kMsgStats, EncodeStats(ws.report));
      ws.shutdown = true;
      return false;
    }
    default:
      return true;  // unknown types are ignored (forward compatibility)
  }
}

/// Drains available messages; with `timeout_ms` > 0 waits for the first.
/// Returns false when the channel is dead and drained. Time blocked in
/// Receive counts as idle, handling what arrives (decode, apply) as apply.
bool WorkerPump(WorkerState& ws, uint32_t timeout_ms) {
  FrameChannel::Message msg;
  bool keep_going = true;
  int64_t mark = NowUs();
  if (timeout_ms > 0) {
    const FrameChannel::RecvStatus st = ws.channel->Receive(&msg, timeout_ms);
    Charge(&ws.report.idle_us, &mark);
    if (st == FrameChannel::RecvStatus::kClosed) return false;
    if (st == FrameChannel::RecvStatus::kTimeout) return true;
    keep_going = WorkerHandle(ws, msg);
  }
  while (keep_going && !ws.failed && ws.channel->TryReceive(&msg)) {
    keep_going = WorkerHandle(ws, msg);
  }
  Charge(&ws.report.apply_us, &mark);
  return true;
}

void MaybeSelfKill(const WorkerState& ws, bool mid_stage) {
  const DistConfig::KillSpec& kill = ws.cfg->kill;
  if (kill.worker == ws.worker_id && kill.mid_stage == mid_stage &&
      kill.barrier == ws.barriers_done) {
    // SIGKILL, not exit(): no atexit, no flushes, the io thread dies with
    // us and unsent frames are simply lost — the case recovery must handle.
    ::kill(::getpid(), SIGKILL);
  }
}

void WorkerMain(WorkerState& ws) {
  ws.channel->Send(kMsgHello, [&] {
    PayloadWriter out;
    out.Put(ws.worker_id);
    out.Put(kDistProtocolVersion);
    return out.Take();
  }());

  while (!ws.have_assignment && !ws.shutdown && !ws.failed) {
    if (!WorkerPump(ws, 100)) return;
  }

  while (!ws.shutdown && !ws.failed) {
    if (ws.recovering) {
      // A kMsgRecover aborted our sweep; all sweep work stops until the
      // kMsgRestore behind it (possibly still in flight) rebuilds state.
      if (!WorkerPump(ws, 100)) return;
      continue;
    }
    if (ws.iteration >= ws.cfg->iterations && !ws.sweep_open) {
      // Run complete — wait for the shutdown handshake (the channel must
      // stay up so the coordinator's final frames get their acks).
      if (!WorkerPump(ws, 100)) return;
      continue;
    }
    if (!ws.sweep_open) {
      ws.sampler->BeginSweep(*ws.plan);
      ws.sweep_open = true;
    }
    while (ws.sampler->sweep_stage() != SweepStage::kDone && !ws.shutdown &&
           !ws.failed && !ws.recovering) {
      ws.restored = false;
      ResetSpan(ws);
      bool first_delta_sent = false;
      for (uint32_t b = 0; b < ws.num_blocks && !ws.restored &&
                           !ws.recovering && !ws.shutdown;
           ++b) {
        if (ws.owner[b] != ws.worker_id) continue;
        int64_t mark = NowUs();
        if (!ws.sampler->RunBlockCaptured(b / ws.plan->num_word_blocks,
                                          b % ws.plan->num_word_blocks,
                                          /*worker=*/0, ws.owner,
                                          &ws.captured)) {
          ws.failed = true;
          break;
        }
        Charge(&ws.report.compute_us, &mark);
        MarkRan(ws, b);
        EncodeDelta(ws.epoch, ws.captured, &ws.encoder);
        ws.channel->Send(kMsgBlockDelta, ws.encoder.bytes());
        Charge(&ws.report.encode_us, &mark);
        if (!first_delta_sent) {
          first_delta_sent = true;
          MaybeSelfKill(ws, /*mid_stage=*/true);
        }
        // Overlap: apply peers' deltas while our own blocks still compute.
        // Skip once the span is complete — if our last own block finished
        // it, a fast peer may already be past the barrier, and anything
        // queued from it belongs to the next span.
        if (ws.ran_count < ws.num_blocks && !WorkerPump(ws, 0)) return;
      }
      while (!ws.restored && !ws.recovering && !ws.shutdown && !ws.failed &&
             ws.ran_count < ws.num_blocks) {
        if (!WorkerPump(ws, 50)) return;
      }
      if (ws.restored || ws.recovering || ws.shutdown || ws.failed) break;
      MaybeSelfKill(ws, /*mid_stage=*/false);
      int64_t mark = NowUs();
      ws.sampler->EndStage();
      Charge(&ws.report.apply_us, &mark);
      ++ws.barriers_done;
    }
    if (ws.restored || ws.recovering || ws.shutdown || ws.failed) continue;
    if (ws.sweep_open && ws.sampler->sweep_stage() == SweepStage::kDone) {
      ws.sampler->EndSweep();
      ws.sweep_open = false;
      ++ws.iteration;
    }
  }
  ws.channel->DrainSends(ws.cfg->shutdown_timeout_ms);
}

// ==========================================================================
// Coordinator side.

struct WorkerSlot {
  int pid = -1;
  std::unique_ptr<FrameChannel> channel;
  bool live = false;
  bool reaped = false;
};

struct Coordinator {
  GridSampler* sampler = nullptr;
  const SweepPlan* plan = nullptr;
  const DistConfig* cfg = nullptr;
  uint32_t num_blocks = 0;
  std::vector<uint64_t> weights;

  std::vector<WorkerSlot> workers;
  uint64_t epoch = 0;
  uint32_t iteration = 0;
  std::vector<uint32_t> owner;  ///< block -> worker, also the reader map
  uint32_t num_readers = 0;     ///< slices per delta: largest owner + 1
  bool sweep_open = false;
  SweepCheckpoint barrier_ckpt;  ///< state at the last stage barrier

  std::vector<char> ran;
  uint32_t ran_count = 0;
  GridBlockDelta delta;  ///< decode target, reused for every block
  DeltaLayout layout;
  /// Current span's totals for CoordinatorMetrics (metrics on only).
  int64_t span_relay_us = 0;
  int64_t span_apply_us = 0;
  int64_t span_wait_us = 0;

  DistResult result;

  bool Fail(const std::string& message) {
    if (result.error.empty()) result.error = message;
    return false;
  }

  std::vector<uint32_t> LiveIds() const {
    std::vector<uint32_t> ids;
    for (uint32_t w = 0; w < workers.size(); ++w) {
      if (workers[w].live) ids.push_back(w);
    }
    return ids;
  }

  void ReapWorker(uint32_t w, bool force_kill) {
    WorkerSlot& slot = workers[w];
    if (slot.pid < 0 || slot.reaped) return;
    if (force_kill) ::kill(slot.pid, SIGKILL);
    int status = 0;
    if (::waitpid(slot.pid, &status, force_kill ? 0 : WNOHANG) == slot.pid) {
      slot.reaped = true;
    }
  }

  /// Captures the current barrier state; every recovery restores to it.
  bool CaptureBarrier() {
    const bool metrics = obs::MetricsEnabled();
    const int64_t start = metrics ? NowUs() : 0;
    if (!sampler->CaptureSweepState(&barrier_ckpt)) {
      return Fail("sampler refused a barrier checkpoint (mid-stage state?)");
    }
    barrier_ckpt.iteration = iteration;
    if (metrics) {
      CoordinatorMetrics::Get().capture_us->Observe(
          static_cast<double>(NowUs() - start));
    }
    return true;
  }

  /// Declares worker `w` dead, repartitions its blocks, and restores every
  /// survivor (and the coordinator's replica) to the last barrier.
  bool Recover(uint32_t w) {
    ReapWorker(w, /*force_kill=*/true);  // ensure it is really gone
    workers[w].live = false;
    workers[w].channel->Close();
    const std::vector<uint32_t> live = LiveIds();
    if (live.empty()) {
      return Fail("all workers dead (last: " +
                  workers[w].channel->death_reason() + ")");
    }
    ++epoch;
    ++result.recoveries;
    SetOwner(ReassignToSurvivors(weights, owner, live));
    // Rewind the coordinator replica to the barrier. The abort discards the
    // interrupted stage's staged state; the restore overwrites the rest
    // (injected proposal writes included), mirroring what survivors do.
    sampler->AbortSweep();
    sweep_open = false;
    std::string error;
    if (!sampler->RestoreSweepState(barrier_ckpt, &error)) {
      return Fail("coordinator restore failed: " + error);
    }
    sweep_open = barrier_ckpt.next_stage != SweepStage::kWordAccept;
    iteration = barrier_ckpt.iteration;
    std::vector<uint8_t> ckpt_bytes;
    EncodeSweepCheckpointPayload(barrier_ckpt, &ckpt_bytes);
    for (uint32_t s : live) {
      // FIFO per channel orders recover before restore before any relay of
      // the new epoch, so survivors abort before they see the new state.
      workers[s].channel->Send(kMsgRecover, {});
      workers[s].channel->Send(
          kMsgRestore, EncodeAssignment(epoch, iteration, owner, &ckpt_bytes));
    }
    ResetSpan();
    return true;
  }

  void SetOwner(std::vector<uint32_t> map) {
    owner = std::move(map);
    num_readers = *std::max_element(owner.begin(), owner.end()) + 1;
  }

  void ResetSpan() {
    ran.assign(num_blocks, 0);
    ran_count = 0;
    span_relay_us = 0;
    span_apply_us = 0;
    span_wait_us = 0;
  }

  /// One pass over live channels: applies + relays any received deltas,
  /// returns true if anything arrived. Death is detected by the caller.
  bool PumpDeltas(bool metrics) {
    bool any = false;
    FrameChannel::Message msg;
    for (uint32_t w = 0; w < workers.size(); ++w) {
      if (!workers[w].live) continue;
      while (ran_count < num_blocks && workers[w].channel->TryReceive(&msg)) {
        any = true;
        if (msg.type == kMsgStats || msg.type == kMsgHello) continue;
        if (msg.type != kMsgBlockDelta) continue;
        const int64_t decode_start = metrics ? NowUs() : 0;
        uint64_t delta_epoch = 0;
        if (!DecodeDelta(msg.body, &delta_epoch, &delta, &layout)) {
          Fail("malformed delta from worker " + std::to_string(w));
          return any;
        }
        if (delta_epoch != epoch) continue;  // pre-recovery straggler
        const uint32_t b = BlockOf(*plan, delta.doc_block, delta.word_block);
        if (b >= num_blocks || ran[b]) continue;  // duplicate: idempotent
        // Slice o must be reader o's, and the replica needs all of them.
        bool whole = delta.slices.size() == num_readers;
        for (uint32_t o = 0; whole && o < num_readers; ++o) {
          whole = delta.slices[o].reader == o;
        }
        if (!whole) {
          Fail("delta from worker " + std::to_string(w) +
               " lacks a reader's slice");
          return any;
        }
        const int64_t relay_start = metrics ? NowUs() : 0;
        // Forward first — the other workers wait on this frame at the span's
        // end, the replica does not — each live worker its slice behind the
        // block's header; one that reads none of the block gets the header
        // alone. Every worker thus counts every block of the span, and FIFO
        // guarantees it holds them all before any next-span frame. A delta
        // the replica then rejects fails the run, whatever peers did with
        // it.
        const std::span<const uint8_t> body(msg.body);
        const std::span<const uint8_t> header =
            body.first(layout.header_bytes);
        for (uint32_t o = 0; o < workers.size(); ++o) {
          if (o == w || !workers[o].live) continue;
          std::span<const uint8_t> slice;
          if (o < layout.slices.size()) {
            slice = body.subspan(
                layout.slices[o].first,
                layout.slices[o].second - layout.slices[o].first);
          }
          workers[o].channel->SendParts(kMsgBlockDelta, {header, slice});
        }
        const int64_t apply_start = metrics ? NowUs() : 0;
        // Every slice is here, so ApplyBlockDelta also checks ck_net
        // against the moves.
        std::string error;
        if (!sampler->ApplyBlockDelta(delta, owner, &error)) {
          Fail("delta rejected (worker " + std::to_string(w) + "): " + error);
          return any;
        }
        ran[b] = 1;
        ++ran_count;
        if (metrics) {
          span_relay_us += apply_start - relay_start;
          span_apply_us += relay_start - decode_start + NowUs() - apply_start;
        }
      }
    }
    return any;
  }

  /// Finds a dead live-marked worker (EOF / write error / heartbeat
  /// silence), or kNoWorker.
  uint32_t DetectDeath() {
    for (uint32_t w = 0; w < workers.size(); ++w) {
      if (!workers[w].live) continue;
      if (!workers[w].channel->alive()) return w;
      if (workers[w].channel->ms_since_last_rx() >
          static_cast<int64_t>(cfg->heartbeat_timeout_ms)) {
        return w;
      }
    }
    return DistConfig::kNoWorker;
  }

  /// Waits until every block of the current span has been applied locally,
  /// recovering from worker deaths along the way.
  bool WaitForSpan() {
    const bool metrics = obs::MetricsEnabled();
    while (ran_count < num_blocks) {
      if (!result.error.empty()) return false;
      const bool any = PumpDeltas(metrics);
      if (!result.error.empty()) return false;
      const uint32_t dead = DetectDeath();
      if (dead != DistConfig::kNoWorker) {
        if (!Recover(dead)) return false;
        return true;  // span state rewound; caller re-enters its loop
      }
      if (!any) {
        const int64_t idle_start = metrics ? NowUs() : 0;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (metrics) span_wait_us += NowUs() - idle_start;
      }
    }
    if (metrics) {
      const CoordinatorMetrics& m = CoordinatorMetrics::Get();
      m.relay_us->Observe(static_cast<double>(span_relay_us));
      m.apply_us->Observe(static_cast<double>(span_apply_us));
      m.wait_us->Observe(static_cast<double>(span_wait_us));
    }
    return true;
  }
};

void SumChannelStats(Coordinator& coord) {
  for (WorkerSlot& slot : coord.workers) {
    if (slot.channel != nullptr) {
      AccumulateStats(&coord.result.coordinator_stats, slot.channel->stats());
    }
  }
}

}  // namespace

std::vector<uint64_t> BlockTokenWeights(const Corpus& corpus,
                                        const SweepPlan& plan) {
  std::vector<uint64_t> weights(
      static_cast<size_t>(plan.num_doc_blocks) * plan.num_word_blocks, 0);
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    const uint32_t db = plan.doc_block.empty() ? 0 : plan.doc_block[d];
    for (WordId w : corpus.doc_tokens(d)) {
      const uint32_t wb = plan.word_block.empty() ? 0 : plan.word_block[w];
      ++weights[static_cast<size_t>(db) * plan.num_word_blocks + wb];
    }
  }
  return weights;
}

DistResult RunDistributedSweeps(GridSampler& sampler, const Corpus& corpus,
                                const SweepPlan& plan,
                                const DistConfig& config) {
  Coordinator coord;
  coord.sampler = &sampler;
  coord.plan = &plan;
  coord.cfg = &config;
  coord.num_blocks = plan.num_doc_blocks * plan.num_word_blocks;

  std::string error;
  if (config.num_workers == 0) {
    coord.Fail("num_workers must be >= 1");
    return coord.result;
  }
  if (!plan.Validate(corpus.num_docs(), corpus.num_words(), &error)) {
    coord.Fail("invalid plan: " + error);
    return coord.result;
  }
  if (!sampler.CaptureSweepState(&coord.barrier_ckpt)) {
    coord.Fail("sampler does not support sweep checkpointing");
    return coord.result;
  }
  coord.barrier_ckpt.iteration = 0;

  coord.weights = BlockTokenWeights(corpus, plan);
  coord.SetOwner(PartitionByTokens(coord.weights, config.num_workers,
                                   PartitionStrategy::kGreedy));
  coord.result.initial_owner = coord.owner;

  // ---- spawn phase: sockets first, then every fork, then (only once the
  // coordinator is done forking) the channels and their io threads.
  uint16_t port = 0;
  int listen_fd = -1;
  std::vector<int> parent_fds(config.num_workers, -1);
  std::vector<int> child_fds(config.num_workers, -1);
  if (config.use_tcp) {
    listen_fd = ListenLoopback(&port, &error);
    if (listen_fd < 0) {
      coord.Fail("listen failed: " + error);
      return coord.result;
    }
  } else {
    for (uint32_t w = 0; w < config.num_workers; ++w) {
      int fds[2];
      if (!MakeSocketPair(fds, &error)) {
        coord.Fail("socketpair failed: " + error);
        for (uint32_t c = 0; c < w; ++c) {
          ::close(parent_fds[c]);
          ::close(child_fds[c]);
        }
        return coord.result;
      }
      parent_fds[w] = fds[0];
      child_fds[w] = fds[1];
    }
  }

  coord.workers.resize(config.num_workers);
  std::vector<int> pids;
  for (uint32_t w = 0; w < config.num_workers; ++w) {
    const int pid = ::fork();
    if (pid < 0) {
      coord.Fail("fork failed: " + std::string(std::strerror(errno)));
      for (uint32_t o = 0; o < config.num_workers; ++o) {
        if (coord.workers[o].pid > 0) {
          ::kill(coord.workers[o].pid, SIGKILL);
          ::waitpid(coord.workers[o].pid, nullptr, 0);
        }
        if (parent_fds[o] >= 0) ::close(parent_fds[o]);
        if (child_fds[o] >= 0) ::close(child_fds[o]);
      }
      if (listen_fd >= 0) ::close(listen_fd);
      return coord.result;
    }
    if (pid == 0) {
      // ---- worker process. It inherited the initialized sampler replica;
      // everything else it needs arrives over the channel.
      ::signal(SIGPIPE, SIG_IGN);
      int fd = -1;
      if (config.use_tcp) {
        ::close(listen_fd);
        fd = ConnectLoopback(port, config.connect_timeout_ms, &error);
      } else {
        for (uint32_t o = 0; o < config.num_workers; ++o) {
          if (parent_fds[o] >= 0) ::close(parent_fds[o]);
          if (o != w && child_fds[o] >= 0) ::close(child_fds[o]);
        }
        fd = child_fds[w];
      }
      if (fd < 0) ::_exit(3);
      {
        FrameChannel::Options opts = config.channel;
        opts.fault = ChannelFault(config.fault, w, /*coordinator_side=*/false);
        opts.peer = "coordinator";
        FrameChannel channel(fd, opts);
        WorkerState ws;
        ws.sampler = &sampler;
        ws.channel = &channel;
        ws.plan = &plan;
        ws.cfg = &config;
        ws.worker_id = w;
        ws.num_blocks = coord.num_blocks;
        // The child inherited the coordinator's whole stack (test harness
        // included); an escaping exception would unwind into a copy of a
        // caller that must never run twice. Trap it here — a worker that
        // throws is simply a dead worker for the coordinator to recover.
        try {
          WorkerMain(ws);
        } catch (...) {
          ws.failed = true;
        }
        channel.Close();
        if (ws.failed) ::_exit(2);
      }
      ::_exit(0);
    }
    coord.workers[w].pid = pid;
    pids.push_back(pid);
  }

  // ---- coordinator. Channels (and their io threads) only exist from here
  // on; the process was single-threaded through every fork above.
  ::signal(SIGPIPE, SIG_IGN);
  if (config.use_tcp) {
    // Accepted connections are identified by their Hello, not accept order.
    std::vector<int> accepted;
    for (uint32_t w = 0; w < config.num_workers; ++w) {
      const int fd = AcceptWithTimeout(listen_fd, config.connect_timeout_ms,
                                       &error);
      if (fd < 0) break;
      accepted.push_back(fd);
    }
    ::close(listen_fd);
    if (accepted.size() != config.num_workers) {
      coord.Fail("accept failed: " + error);
      for (int fd : accepted) ::close(fd);
      for (WorkerSlot& slot : coord.workers) {
        if (slot.pid > 0) {
          ::kill(slot.pid, SIGKILL);
          ::waitpid(slot.pid, nullptr, 0);
        }
      }
      return coord.result;
    }
    // Temporary slots until each Hello names its worker.
    std::vector<std::unique_ptr<FrameChannel>> pending;
    for (size_t i = 0; i < accepted.size(); ++i) {
      FrameChannel::Options opts = config.channel;
      opts.fault = ChannelFault(config.fault, static_cast<uint32_t>(i),
                                /*coordinator_side=*/true);
      opts.peer = "worker?";
      pending.push_back(
          std::make_unique<FrameChannel>(accepted[i], opts));
    }
    for (auto& channel : pending) {
      FrameChannel::Message msg;
      uint32_t id = 0;
      if (channel->Receive(&msg, config.connect_timeout_ms) !=
              FrameChannel::RecvStatus::kOk ||
          !DecodeHello(msg, &id) || id >= config.num_workers ||
          coord.workers[id].channel != nullptr) {
        coord.Fail("worker handshake failed");
        break;
      }
      coord.workers[id].channel = std::move(channel);
      coord.workers[id].live = true;
    }
  } else {
    for (uint32_t w = 0; w < config.num_workers; ++w) {
      ::close(child_fds[w]);
      FrameChannel::Options opts = config.channel;
      opts.fault = ChannelFault(config.fault, w, /*coordinator_side=*/true);
      opts.peer = "worker" + std::to_string(w);
      coord.workers[w].channel =
          std::make_unique<FrameChannel>(parent_fds[w], opts);
      FrameChannel::Message msg;
      uint32_t id = 0;
      if (coord.workers[w].channel->Receive(&msg, config.connect_timeout_ms) !=
              FrameChannel::RecvStatus::kOk ||
          !DecodeHello(msg, &id) || id != w) {
        coord.Fail("worker " + std::to_string(w) + " handshake failed");
        break;
      }
      coord.workers[w].live = true;
    }
  }

  if (config.on_workers_spawned) config.on_workers_spawned(pids);

  if (coord.result.error.empty()) {
    const std::vector<uint8_t> assign =
        EncodeAssignment(coord.epoch, 0, coord.owner, nullptr);
    for (WorkerSlot& slot : coord.workers) {
      if (slot.live) slot.channel->Send(kMsgAssign, assign);
    }

    // ---- main loop: sweeps -> spans -> delta exchange.
    while (coord.iteration < config.iterations &&
           coord.result.error.empty()) {
      const int64_t sweep_start = NowMs();
      if (!coord.sweep_open) {
        sampler.BeginSweep(plan);
        coord.sweep_open = true;
      }
      bool rewound = false;
      while (sampler.sweep_stage() != SweepStage::kDone) {
        coord.ResetSpan();
        if (!coord.WaitForSpan()) break;
        if (coord.ran_count < coord.num_blocks) {
          // A recovery rewound the sweep; re-enter from the restored state
          // (possibly a different stage, possibly between sweeps).
          rewound = true;
          break;
        }
        sampler.EndStage();
        // The sweep's last barrier is captured after EndSweep below; no
        // recovery can read a capture taken in between.
        if (sampler.sweep_stage() != SweepStage::kDone &&
            !coord.CaptureBarrier()) {
          break;
        }
      }
      if (!coord.result.error.empty()) break;
      if (rewound || !coord.sweep_open) continue;
      if (sampler.sweep_stage() == SweepStage::kDone) {
        sampler.EndSweep();
        coord.sweep_open = false;
        ++coord.iteration;
        ++coord.result.iterations_completed;
        coord.result.sweep_seconds.push_back(
            static_cast<double>(NowMs() - sweep_start) / 1000.0);
        if (!coord.CaptureBarrier()) break;
      }
    }
  }

  // ---- shutdown: handshake stats out of live workers, then reap everyone.
  coord.result.worker_reports.resize(coord.workers.size());
  for (uint32_t w = 0; w < coord.workers.size(); ++w) {
    WorkerSlot& slot = coord.workers[w];
    if (!slot.live) continue;
    slot.channel->Send(kMsgShutdown, {});
  }
  const int64_t deadline = NowMs() + config.shutdown_timeout_ms;
  for (uint32_t w = 0; w < coord.workers.size(); ++w) {
    WorkerSlot& slot = coord.workers[w];
    if (!slot.live) continue;
    FrameChannel::Message msg;
    while (NowMs() < deadline) {
      const FrameChannel::RecvStatus st = slot.channel->Receive(
          &msg, static_cast<uint32_t>(std::max<int64_t>(1, deadline - NowMs())));
      if (st != FrameChannel::RecvStatus::kOk) break;
      if (msg.type == kMsgStats) {
        DistWorkerReport& report = coord.result.worker_reports[w];
        if (DecodeStats(msg.body, &report)) {
          report.reported = true;
          AccumulateStats(&coord.result.worker_stats, report.stats);
        }
        break;
      }
    }
    slot.channel->DrainSends(
        static_cast<uint32_t>(std::max<int64_t>(1, deadline - NowMs())));
  }
  SumChannelStats(coord);
  for (WorkerSlot& slot : coord.workers) {
    if (slot.channel != nullptr) slot.channel->Close();
  }
  for (uint32_t w = 0; w < coord.workers.size(); ++w) {
    WorkerSlot& slot = coord.workers[w];
    if (slot.pid <= 0 || slot.reaped) continue;
    const int64_t reap_deadline = NowMs() + 2000;
    bool reaped = false;
    while (NowMs() < reap_deadline) {
      if (::waitpid(slot.pid, nullptr, WNOHANG) == slot.pid) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!reaped) {
      ::kill(slot.pid, SIGKILL);
      ::waitpid(slot.pid, nullptr, 0);
    }
    slot.reaped = true;
  }

  coord.result.block_owner = coord.owner;
  coord.result.final_epoch = coord.epoch;
  if (coord.result.error.empty()) coord.result.ok = true;
  return coord.result;
}

}  // namespace warplda
