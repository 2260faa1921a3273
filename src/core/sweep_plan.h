#ifndef WARPLDA_CORE_SWEEP_PLAN_H_
#define WARPLDA_CORE_SWEEP_PLAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace warplda {

/// Partition of a training sweep into a (doc-block × word-block) grid.
///
/// This is the unit of work distribution in the paper's multi-machine design:
/// documents are split into `num_doc_blocks` partitions (one per worker) and
/// the vocabulary into `num_word_blocks` slices; block (i, j) is the set of
/// tokens whose document lies in doc partition i and whose word lies in word
/// partition j. A default-constructed plan is the trivial 1×1 grid, which is
/// exactly what `Sampler::Iterate()` executes.
///
/// Plans are produced by hand, by `SweepPlan::Trivial()`, or — balanced by
/// token counts — by `MakeSweepPlan()` in `dist/partitioner.h`.
///
/// A sampler may map items to blocks its own way, as long as every token
/// belongs to exactly one block per stage. WarpLdaSampler does: in word
/// stages block (i, j) owns the (i·W+j)-th of D·W contiguous, token-balanced
/// column ranges, and in doc stages the (i·W+j)-th such row range, so every
/// block owns whole items. For it only the block counts matter; the item
/// maps are validated and checkpointed but do not steer which block owns
/// an item.
struct SweepPlan {
  uint32_t num_doc_blocks = 1;
  uint32_t num_word_blocks = 1;
  /// Block id per document, size D (empty means every doc is in block 0,
  /// which requires num_doc_blocks == 1).
  std::vector<uint32_t> doc_block;
  /// Block id per word, size V (empty means every word is in block 0).
  std::vector<uint32_t> word_block;

  /// The 1×1 plan: one block containing the whole corpus.
  static SweepPlan Trivial() { return SweepPlan(); }

  bool trivial() const { return num_doc_blocks == 1 && num_word_blocks == 1; }

  /// Checks the plan against a corpus shape. On failure returns false and,
  /// when `error` is non-null, explains which invariant broke.
  bool Validate(uint32_t num_docs, uint32_t num_words,
                std::string* error) const;

  /// Samplers use equality to reuse plan-derived indices across sweeps.
  bool operator==(const SweepPlan&) const = default;
};

/// The four block-wise stages of one grid sweep, in execution order.
///
/// WarpLDA's word phase splits into an MH-acceptance stage (consumes the
/// pending doc proposals against a delayed snapshot of c_w and c_k) and a
/// proposal stage (draws fresh word proposals from the updated c_w); the doc
/// phase splits symmetrically. Within a stage, blocks touch disjoint
/// assignment state and own per-token RNG streams, so they may run in any
/// order — or on different machines — without changing the samples. The
/// barrier between stages (EndStage) is where a distributed implementation
/// would exchange token state between doc owners and word-slice owners.
enum class SweepStage {
  kWordAccept = 0,
  kWordPropose = 1,
  kDocAccept = 2,
  kDocPropose = 3,
  kDone = 4,
};

const char* ToString(SweepStage stage);

struct SweepCheckpoint;  // core/checkpoint.h

/// The externally visible effect of running one grid block for one stage
/// span — the unit a distributed execution tier ships between processes.
///
/// Within a stage, blocks share no mutable state: accepted topic moves are
/// written to tokens no other block reads (or staged until the barrier) and
/// proposal draws write only the block's own tokens' slots. A block's
/// entire effect is therefore capturable as (moves, proposal writes) and
/// replayable in another process that holds the same pre-stage state —
/// after which EndStage() applies it exactly as if the block had run
/// locally.
///
/// The effect is cut by reader. A reader map names, per block, the process
/// that runs it (the map is the same in both passes); a token's reader is
/// the process that runs the item it belongs to in the *next* span: after a
/// word span, the runner of the doc block holding the token's row; after a
/// doc span, the runner of the word block holding its column. Slice r
/// carries the moves and proposals of reader r's tokens, each in the
/// block's canonical token order (derived from the plan and corpus,
/// identical in every process; mh_steps proposals per token). Captured
/// without a reader map, a delta has one slice, reader 0, covering the
/// whole block. `ck_net` is the block's net change to the global topic
/// counts c_k — every reader needs it, whichever slice it gets, to keep its
/// c_k global.
struct GridBlockDelta {
  SweepStage stage = SweepStage::kDone;  ///< span the block ran in
  uint32_t doc_block = 0;
  uint32_t word_block = 0;
  /// One z write: token at storage position `pos` moves `from`→`to`;
  /// `item` is the token's column (word stages) or row (doc stages), so a
  /// receiver can check the move belongs to its block.
  struct Move {
    uint64_t pos = 0;
    uint32_t item = 0;
    uint32_t from = 0;
    uint32_t to = 0;
  };
  /// One nonzero entry of the block's net c_k change.
  struct TopicCount {
    uint32_t topic = 0;
    int32_t count = 0;
  };
  /// Reader `reader`'s share of the block.
  struct Slice {
    uint32_t reader = 0;
    std::vector<Move> moves;
    std::vector<uint32_t> proposals;  ///< TopicId, mh_steps per token
  };
  std::vector<TopicCount> ck_net;  ///< ascending topic, counts sum to 0
  std::vector<Slice> slices;       ///< ascending reader, at most one each
};

/// One unit of barrier work: fn(worker, task), see TaskRunner.
using BarrierTask = std::function<void(uint32_t worker, uint32_t task)>;

/// Runs fn(worker, t) for every t in [0, num_tasks) and returns once they
/// have completed. Worker ids lie in [0, reserved workers), and tasks that
/// run at the same time have distinct ids. A task's exception reaches the
/// caller (the first one, when several throw). ParallelExecutor::Run is the
/// pooled runner; RunInline runs every task on the calling thread.
using TaskRunner =
    std::function<void(uint32_t num_tasks, const BarrierTask& fn)>;

/// The inline TaskRunner: tasks in index order, as worker 0.
void RunInline(uint32_t num_tasks, const BarrierTask& fn);

/// Grid-execution interface of a sampler whose sweep can run block-by-block.
///
/// Protocol: BeginSweep(plan), then until sweep_stage() reports kDone call
/// RunBlock(i, j) exactly once per grid block (any order) followed by
/// EndStage(), then EndSweep(). A sampler may run adjacent stages as one
/// span; sweep_stage() names the span's first stage. `RunSweep()` drives the whole protocol in
/// canonical order. A conforming implementation guarantees that any schedule
/// of any plan produces the same assignments as `RunSweep(SweepPlan::
/// Trivial())` — grid execution changes where work happens, never what is
/// sampled. Protocol violations throw std::logic_error; invalid plans throw
/// std::invalid_argument.
///
/// Threading: within a stage, RunBlock calls for *distinct* blocks may be
/// issued concurrently, each tagged with the calling worker's id so the
/// implementation can key per-thread scratch; call ReserveWorkers(n) before
/// BeginSweep to size that scratch. BeginSweep/EndStage/EndSweep are called
/// by the single driving thread, which lends BeginSweep and EndStage a
/// TaskRunner: the sampler splits its barrier work (for WarpLDA, the
/// injected-move apply and the c_k delta fold) into tasks whose writes do
/// not overlap, and the runner may spread them over the workers that run
/// blocks. ParallelExecutor lends its own pool (core/parallel_executor.h);
/// the one-argument overloads, for hand-stepped drivers, run the same tasks
/// inline. The runner changes where barrier work runs, never what it writes.
class GridSampler {
 public:
  virtual ~GridSampler() = default;

  /// Opens a sweep over `plan`, running its barrier work on `run`. The
  /// sampler must be initialized and no other sweep may be active; every
  /// worker id `run` may pass must be reserved. If the barrier work throws,
  /// the sweep is closed again before the exception propagates.
  virtual void BeginSweep(const SweepPlan& plan, const TaskRunner& run) = 0;
  void BeginSweep(const SweepPlan& plan) { BeginSweep(plan, RunInline); }

  /// Runs the current stage's work for grid block (doc_block, word_block) on
  /// behalf of `worker` (an id in [0, reserved workers); per-thread scratch
  /// is keyed by it). Each block must run exactly once per stage; distinct
  /// blocks may run concurrently when each caller passes a distinct worker.
  virtual void RunBlock(uint32_t doc_block, uint32_t word_block,
                        uint32_t worker = 0) = 0;

  /// Hints that workers [0, num_workers) may call RunBlock concurrently, so
  /// per-worker scratch must exist for each. Called between sweeps or at a
  /// stage barrier of an open sweep — ParallelExecutor::FinishSweep reserves
  /// at the barrier it starts from, including the one BeginSweep opens and
  /// the one RestoreSweepState reopens — but never while the current stage
  /// has blocks in flight. The default accepts any count, keeps no scratch.
  virtual void ReserveWorkers(uint32_t num_workers) { (void)num_workers; }

  /// Distributed execution: runs a block exactly like RunBlock and
  /// additionally captures its externally visible effect into `*out`, ready
  /// to ship to a peer process holding the same pre-stage state. `readers`
  /// is the reader map (the runner of each block, size num_doc_blocks ×
  /// num_word_blocks, row-major): the capture holds one slice per reader id
  /// up to the largest in the map, empty ones included. An empty map
  /// captures the whole block as one slice. A call with a map that differs
  /// from the previous call's may rebuild per-reader indices, so it must
  /// not overlap another RunBlockCaptured or ApplyBlockDelta call. Returns
  /// false when the sampler does not support delta capture (the default).
  virtual bool RunBlockCaptured(uint32_t doc_block, uint32_t word_block,
                                uint32_t worker,
                                const std::vector<uint32_t>& readers,
                                GridBlockDelta* out) {
    (void)doc_block;
    (void)word_block;
    (void)worker;
    (void)readers;
    (void)out;
    return false;
  }

  /// Distributed execution: injects a peer's captured block effect, marking
  /// the block as run for the current stage — EndStage() then applies it
  /// exactly as if the block had run locally. `readers` is the map the
  /// delta was cut with (empty for a whole-block delta). Each slice the
  /// delta carries is applied to its reader's tokens; a process applies
  /// just its own slice when only the tokens it reads next must be
  /// current, or every slice to keep a full replica. c_k always moves by
  /// `ck_net`; when every slice is present, `ck_net` is checked against
  /// the moves. Idempotent: a delta for a block that already ran this stage
  /// (a duplicate frame) is accepted and ignored. Returns false, leaving
  /// the sampler untouched, on a malformed delta (wrong stage, out-of-range
  /// positions/topics, a move or proposal count that does not fit its
  /// slice, a `ck_net` that does not sum to zero) or when unsupported (the
  /// default); `*error` explains.
  virtual bool ApplyBlockDelta(const GridBlockDelta& delta,
                               const std::vector<uint32_t>& readers,
                               std::string* error) {
    (void)delta;
    (void)readers;
    if (error != nullptr) {
      *error = "this sampler does not support block deltas";
    }
    return false;
  }

  /// Barrier: checks every block of the current stage ran, applies the
  /// stage's staged updates, and advances to the next stage, running the
  /// barrier work on `run`. If that work throws, the sweep stays open and
  /// the caller must AbortSweep().
  virtual void EndStage(const TaskRunner& run) = 0;
  void EndStage() { EndStage(RunInline); }

  /// Closes the sweep; every stage must have completed.
  virtual void EndSweep() = 0;

  /// Error recovery: closes an open sweep immediately, discarding any
  /// staged-but-unapplied work, leaving the sampler usable (its state is
  /// whatever the last completed stage barrier applied, plus whatever part
  /// of a barrier that threw got applied — valid, but pending proposals may
  /// be stale, so callers normally re-run a full sweep).
  /// No-op when no sweep is open. RunSweep drivers call this when a stage
  /// throws, so the exception does not wedge the sampler.
  virtual void AbortSweep() {}

  /// Stage the active sweep is in, or kDone when no sweep is active.
  virtual SweepStage sweep_stage() const = 0;

  /// Durability hook (see core/checkpoint.h): fills `out` with the sampler's
  /// complete sweep state — assignments, pending proposals, RNG stream
  /// bases, count snapshots — so a fresh process can resume bit-identically.
  /// Only legal at a quiescent point: between sweeps, or at a stage barrier
  /// of an open sweep (after EndStage() returned, before any block of the
  /// next stage runs — exactly when ParallelExecutor's barrier hook fires).
  /// Returns false when called mid-stage or when the sampler does not
  /// support sweep checkpointing (the default).
  virtual bool CaptureSweepState(SweepCheckpoint* out) const {
    (void)out;
    return false;
  }

  /// Durability hook: restores state captured by CaptureSweepState. The
  /// sampler must be Init()ed on the same corpus with a matching config and
  /// have no open sweep. When `state.next_stage` is not kWordAccept this
  /// leaves the sampler *inside* an open sweep at that stage — drive the
  /// remaining stages with ParallelExecutor::FinishSweep (or RunBlock/
  /// EndStage by hand). Returns false and fills `*error` on any mismatch or
  /// when unsupported (the default).
  virtual bool RestoreSweepState(const SweepCheckpoint& state,
                                 std::string* error) {
    (void)state;
    if (error != nullptr) {
      *error = "this sampler does not support sweep checkpointing";
    }
    return false;
  }

  /// Convenience: one full sweep of `plan`, blocks in row-major order.
  void RunSweep(const SweepPlan& plan);
};

}  // namespace warplda

#endif  // WARPLDA_CORE_SWEEP_PLAN_H_
