#ifndef WARPLDA_CORE_CHECKPOINT_H_
#define WARPLDA_CORE_CHECKPOINT_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/sampler.h"
#include "core/sweep_plan.h"

namespace warplda {

/// Durability subsystem: crash-safe, versioned, CRC-validated checkpoints
/// for every long-running training mode.
///
/// All files use the shared frame of util/checkpoint_io.h — magic, format
/// version, endianness tag, payload size (validated against the real file
/// size before any allocation), and a CRC-32 over the payload — and are
/// written atomically (temp file + fsync + rename), so a kill at any instant
/// leaves either the previous complete checkpoint or the new one, never a
/// torn file. Loads are strictly bounded and fully validated: every count is
/// checked against the remaining payload before memory is sized, priors must
/// be finite and positive, mh_steps nonzero, and every topic id in range.
///
/// Two artifact families build on the frame:
///  * SweepCheckpoint — the training state of a grid-execution run,
///    captured between sweeps or at a stage barrier
///    (GridSampler::CaptureSweepState, from ParallelExecutor's barrier hook
///    mid-sweep) so a restored run resumes bit-identical to an
///    uninterrupted one (Save/LoadSweepCheckpoint,
///    GridSampler::RestoreSweepState). The only training checkpoint: the
///    baseline samplers do not checkpoint.
///  * serving model chains — serve/ModelStore::CheckpointTo/RestoreFrom
///    persist the published model once plus small per-publish deltas.

/// Mid-sweep state of a grid-execution training run, captured at a stage
/// barrier — the instant EndStage() has applied a stage's staged writes and
/// folded every worker's ck-delta partition, so no per-worker state is in
/// flight. `next_stage == kWordAccept` means "between sweeps": the sweep
/// either has not begun or has fully completed; any other value names the
/// stage the restored sweep resumes at.
///
/// Restoring (GridSampler::RestoreSweepState) reproduces the uninterrupted
/// run bit-identically because everything the remaining stages read is here:
/// the applied assignments, the pending MH proposals, the acceptance-time
/// c_k snapshot, and the per-token RNG stream bases (phase epoch plus the
/// word/doc-phase bases), which is all a per-token-stream sampler needs —
/// per-worker scratch is empty at a barrier by construction.
struct SweepCheckpoint {
  LdaConfig config;        ///< sampler config, with the *current* priors
  uint32_t iteration = 0;  ///< fully completed sweeps before the open one
  SweepStage next_stage = SweepStage::kWordAccept;
  SweepPlan plan;  ///< the open sweep's grid (unused between sweeps)
  uint64_t phase_epoch = 0;  ///< RNG stream epoch counter
  uint64_t base_word = 0;    ///< word-phase per-token stream base
  uint64_t base_doc = 0;     ///< doc-phase per-token stream base
  /// Topic assignments in the sampler's internal CSC (word-major) entry
  /// order — NOT document-major like Sampler::Assignments().
  std::vector<TopicId> assignments;
  /// Pending MH proposals, mh_steps per token, CSC entry order.
  std::vector<TopicId> proposals;
  /// Acceptance-time snapshot of the global topic counts c_k (size K).
  std::vector<int64_t> ck_fixed;
};

/// Binary serialization (frame kind kSweepCheckpoint). Returns false and
/// fills *error on failure; Save leaves any existing file at `path` intact
/// when it fails.
bool SaveSweepCheckpoint(const SweepCheckpoint& checkpoint,
                         const std::string& path, std::string* error);
bool LoadSweepCheckpoint(const std::string& path, SweepCheckpoint* checkpoint,
                         std::string* error);

/// The payload codec behind Save/LoadSweepCheckpoint, exposed so the
/// distributed tier can ship a checkpoint over a socket (inside its own
/// framed message) without touching disk. Decode applies the full
/// validation battery — structural bounds, topic ranges, the ck-histogram
/// sum — exactly as the file loader does; `context` names the source in
/// error messages the way a path would.
void EncodeSweepCheckpointPayload(const SweepCheckpoint& checkpoint,
                                  std::vector<uint8_t>* payload);
bool DecodeSweepCheckpointPayload(const std::vector<uint8_t>& payload,
                                  const std::string& context,
                                  SweepCheckpoint* checkpoint,
                                  std::string* error);

/// Background checkpoint writer: moves the serialize + write + fsync of
/// checkpoint saves off the training thread onto one dedicated writer
/// thread, so a stage barrier pays only the in-memory capture (the moved-in
/// checkpoint IS the write buffer — Submit takes it by value and the barrier
/// returns while the writer owns it).
///
/// Ordering and durability semantics match the synchronous path exactly:
///  * one writer thread, FIFO — files land on disk in submit order, through
///    the same atomic WriteFrame (temp + fsync + rename);
///  * each item's `done` callback runs on the writer thread immediately
///    after ITS file is durable and before the next item is dequeued, so at
///    callback time the newest file on disk is that very checkpoint (the
///    kill-and-resume harness SIGKILLs inside this callback and relies on
///    exactly that); a failed write skips its callback, mirroring the sync
///    path where the save threw before the hook ran;
///  * at most `max_pending` submissions are in flight (double buffering by
///    default) — Submit blocks when the queue is full, which also bounds
///    how far training can run ahead of durability.
///
/// The first write failure is latched: ok()/Flush() report it, and every
/// later submission is still written (a transient disk error should not
/// discard subsequent checkpoints). Callbacks must not throw — a throwing
/// callback is caught and latched as an error. The destructor drains the
/// queue silently (exception-path safety); call Flush() and check it on the
/// success path.
class AsyncCheckpointWriter {
 public:
  using Completion = std::function<void()>;

  explicit AsyncCheckpointWriter(size_t max_pending = 2);
  ~AsyncCheckpointWriter();

  AsyncCheckpointWriter(const AsyncCheckpointWriter&) = delete;
  AsyncCheckpointWriter& operator=(const AsyncCheckpointWriter&) = delete;

  /// Enqueues a checkpoint for writing to `path`. Blocks while `max_pending`
  /// submissions are already in flight. `done` (optional) runs on the writer
  /// thread once the file is durable.
  void Submit(SweepCheckpoint checkpoint, std::string path,
              Completion done = nullptr);

  /// Blocks until every submitted checkpoint is durable (or failed). Returns
  /// false and fills `*error` (when non-null) if any write has failed.
  bool Flush(std::string* error);

  /// Non-blocking: false (and `*error`) once any write has failed.
  bool ok(std::string* error = nullptr) const;

 private:
  struct Item {
    SweepCheckpoint checkpoint;
    std::string path;
    Completion done;
  };

  void WriterLoop();

  size_t max_pending_;
  mutable std::mutex mutex_;
  std::condition_variable cv_space_;  // Submit waits for queue room
  std::condition_variable cv_idle_;   // Flush waits for queue empty + idle
  std::condition_variable cv_work_;   // writer waits for items
  std::deque<Item> queue_;            // guarded by mutex_
  bool writing_ = false;              // an item is being written
  bool shutdown_ = false;
  std::string first_error_;           // latched first failure, "" = none
  std::thread writer_;
};

}  // namespace warplda

#endif  // WARPLDA_CORE_CHECKPOINT_H_
