#ifndef WARPLDA_CORE_WARP_LDA_H_
#define WARPLDA_CORE_WARP_LDA_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/sampler.h"
#include "core/count_arena.h"
#include "core/sparse_matrix.h"
#include "core/sweep_plan.h"
#include "eval/topic_model.h"
#include "util/alias_table.h"
#include "util/contracts.h"
#include "util/hash_count.h"
#include "util/rng.h"

namespace warplda {

/// WarpLDA (paper §4): Monte-Carlo EM training of LDA with O(1) per-token
/// sampling and O(K)-sized randomly accessed memory per document/word.
///
/// Per-token state is the paper's y_dn = (z_dn, z⁽¹⁾…z⁽ᴹ⁾): the current
/// assignment plus M pending topic proposals, stored in a SparseMatrix in
/// CSC (word-major) order with row pointers for the document sweep (§5.2).
///
/// A sweep is the compressed two-pass schedule of §4.4:
///  * word pass: build c_w on the fly, accept the pending *doc* proposals
///    with π = min{1, (C_wt+β)(C_s+β̄)/((C_ws+β)(C_t+β̄))}, then draw M fresh
///    *word* proposals from an alias table over the updated q_word ∝ C_wk+β;
///  * doc pass: build c_d on the fly, accept the pending *word* proposals
///    with π = min{1, (C_dt+α)(C_s+β̄)/((C_ds+α)(C_t+β̄))}, then draw M fresh
///    *doc* proposals by random positioning into z_d (q_doc ∝ C_dk+α).
///
/// Counts are delayed (MCEM, §4.2): acceptance uses the per-pass snapshot
/// of the global counts c_k and the per-scope snapshot of c_d/c_w, which is
/// what decouples the two count matrices and shrinks the random-access
/// footprint to one cache-resident vector (§3.3, Table 2's last row).
///
/// There is one sweep implementation, the grid sweep (GridSampler): it runs
/// block-by-block over a SweepPlan's (doc-partition × word-partition) grid —
/// the multi-machine schedule, where worker i owns doc partition i and word
/// slices rotate. Iterate() is that sweep on the trivial 1×1 plan, run
/// inline; threaded training lends a ParallelExecutor and a larger plan.
/// Every (pass, token) pair draws from its own RNG stream derived from the
/// seed, and delayed counts make tokens within a stage independent, so any
/// plan and any block order produce identical assignments. Distinct blocks
/// of a stage may run concurrently: each RunBlock call works out of the
/// calling worker's ThreadScratch — including its partition of the c_k
/// deltas, folded once at the EndStage barrier — and writes only its own
/// tokens' proposal slots. A block whose span covers whole columns (or
/// whole rows) owns those items outright, so it counts them on the fly and
/// commits their z in place, as §4.4's pass over one column does; every
/// other span defers its z writes into the block's own move list for the
/// barrier. The barrier work itself (arena and alias rebuilds, move apply,
/// delta fold) runs as tasks with disjoint write sets on the TaskRunner
/// the driver lends.
///
/// Spans whose items may be split across blocks read shared flat count
/// arenas built once per sweep (CountArena), and their MH accept chains run
/// as a gather → vectorized-ratio → masked-select batch
/// (core/simd_kernels.h). Whole-item spans, and every span while a memory
/// tracer is attached, run the scalar per-token chain (AcceptChain).
class WarpLdaSampler : public Sampler, public GridSampler {
 public:
  void Init(const Corpus& corpus, const LdaConfig& config) override;
  void Iterate() override;
  std::vector<TopicId> Assignments() const override;
  void SetAssignments(const std::vector<TopicId>& assignments) override;
  void SetPriors(double alpha, double beta) override;
  std::string name() const override { return "WarpLDA"; }

  /// GridSampler: block-wise sweep execution (see core/sweep_plan.h for the
  /// protocol). Produces the same samples as Iterate() for any plan, any
  /// block schedule and any worker count. Adjacent stages are fused into one
  /// span wherever the plan allows (see SpanLength): sweep_stage() names the
  /// *first* stage of the current span, RunBlock executes every stage of the
  /// span for that block, and EndStage() advances past the whole span.
  using GridSampler::BeginSweep;
  using GridSampler::EndStage;
  void BeginSweep(const SweepPlan& plan, const TaskRunner& run) override;
  void RunBlock(uint32_t doc_block, uint32_t word_block,
                uint32_t worker = 0) override;
  void EndStage(const TaskRunner& run) override;
  void EndSweep() override;
  void AbortSweep() override;
  SweepStage sweep_stage() const override { return grid_.stage; }
  /// Grows the per-worker scratch (counts, alias, ck-delta partition) so
  /// RunBlock may be called with worker ids in [0, num_workers). Requires
  /// Init(); legal between sweeps and at a stage barrier of an open sweep
  /// (the restore path grows the pool before finishing a restored sweep),
  /// but never while a stage has blocks in flight.
  void ReserveWorkers(uint32_t num_workers) override;

  /// Durability hooks (core/checkpoint.h): capture is legal between sweeps
  /// and at stage barriers (deltas folded, staged moves applied — the
  /// per-worker state is empty, so the checkpoint is just assignments,
  /// proposals, c_k snapshot, and RNG stream bases); restore reproduces that
  /// exact state in a fresh process, mid-sweep when the checkpoint was. Any
  /// thread count may finish a restored sweep bit-identically to the
  /// uninterrupted run, and a checkpoint taken at any stage barrier restores:
  /// both stream bases are minted at BeginSweep, so the bytes do not depend
  /// on which barriers the capturing run's plan had.
  bool CaptureSweepState(SweepCheckpoint* out) const override;
  bool RestoreSweepState(const SweepCheckpoint& state,
                         std::string* error) override;

  /// Distributed execution hooks (see core/sweep_plan.h). A block's effect
  /// is its moves (staged, or committed in place by a whole-item span) plus
  /// the proposal slots its span wrote, gathered / scattered in the
  /// plan-derived segment position order — canonical because every process
  /// builds identical indices from the same plan and corpus. Injected
  /// deltas land in the block's own move list, worker 0's ck-delta and the
  /// block's own proposal slots, so EndStage() applies them exactly as
  /// local work; a full set of deltas makes this sampler's state evolve
  /// bit-identically to the process that ran the blocks.
  bool RunBlockCaptured(uint32_t doc_block, uint32_t word_block,
                        uint32_t worker, GridBlockDelta* out) override;
  bool ApplyBlockDelta(const GridBlockDelta& delta,
                       std::string* error) override;
  /// Restricts per-item cache builds (column alias tables, row count
  /// tables) to the items owned blocks actually read. The column count
  /// arena is always built in full: the word-accept barrier patches it with
  /// *every* block's moves, local and injected alike.
  void SetLocalBlocks(const std::vector<char>& owned) override;

  /// Live global topic counts c_k (size K). Deltas are folded in at stage
  /// barriers, so between Iterate() calls (or outside an open sweep)
  /// this is exactly the histogram of Assignments().
  const std::vector<int64_t>& topic_counts() const { return ck_live_; }

  /// Snapshot-export hook for serving: aggregates the current assignments
  /// into a TopicModel ready for serve::ModelStore::Publish(). Safe to call
  /// between Iterate() calls while a server keeps answering from earlier
  /// snapshots (train-while-serve). Init() must have been called.
  /// Same name and contract as StreamingWarpLda::ExportSharedModel().
  std::shared_ptr<const TopicModel> ExportSharedModel() const;

  /// As above, and additionally reports which words' sparse rows differ
  /// from the model returned by the previous call to this overload (every
  /// word on the first call) — exactly the changed-word set
  /// serve::ModelStore::PublishDelta needs, so the trainer→server publish
  /// loop can republish incrementally. Tracks the last export internally;
  /// `changed_words` may be null to only advance that tracking.
  std::shared_ptr<const TopicModel> ExportSharedModel(
      std::vector<WordId>* changed_words);

 private:
  /// A write from an accept stage: token at CSC position `pos` moves from
  /// topic `from` to `to`. `item` is the token's column (word stages) so
  /// the barrier can patch the column count arena, or its row (doc stages).
  /// The same record a block delta ships, so captured moves need no copy.
  using StagedMove = GridBlockDelta::Move;

  struct WARP_WORKER_LOCAL ThreadScratch {
    HashCount counts;
    AliasTable alias;
    AliasTable::Workspace alias_ws;
    /// This worker's partition of the c_k updates; folded into ck_live_ at
    /// stage barriers.
    std::vector<int64_t> ck_delta;
    std::vector<std::pair<uint32_t, double>> alias_entries;
    /// A whole-item segment's accepted moves, committed to z in place (and
    /// replayed into `counts`) once the segment's accept pass is done.
    std::vector<StagedMove> segment_moves;
    /// Accept-batch SoA scratch (one chunk of tokens; see AcceptSegment):
    /// per-proposal a=count+prior / b=ck_fixed+beta_bar gathers, the current
    /// topic's running a/b, computed ratios and accept masks, and the
    /// lazily seeded per-token chain RNGs.
    std::vector<double> bat_ta, bat_tb, bat_ca, bat_cb, bat_ratio;
    std::vector<uint32_t> bat_topic, bat_cur;
    std::vector<uint8_t> bat_ge1, bat_seeded;
    std::vector<Rng> bat_rng;
    /// Plain (non-atomic) obs accumulators, bumped on the hot path and
    /// drained into the global registry by FlushScratchMetrics() at stage
    /// barriers — never an atomic op per token.
    uint64_t obs_tokens = 0;       ///< AcceptChain calls (tokens visited)
    uint64_t obs_proposals = 0;    ///< non-self MH proposals considered
    uint64_t obs_accepts = 0;      ///< proposals accepted (topic moved)
    uint64_t obs_alias_builds = 0; ///< alias tables (re)built
  };

  /// Per-(block × stage-axis) work list, precomputed by BuildGridIndices:
  /// the CSC positions a block owns, grouped into per-column (word stages)
  /// or per-row (doc stages) segments. A segment that covers its whole item
  /// stores no positions — the column's own run or the row's own index
  /// array already lists them — so only items split across blocks copy
  /// theirs. Read a segment's positions through Positions().
  struct BlockSegment {
    uint32_t item;   // column (word axis) or row (doc axis)
    /// [begin, end) into BlockIndex::positions for a split item; begin ==
    /// end for a whole item.
    uint32_t begin;
    uint32_t end;
  };
  struct BlockIndex {
    std::vector<BlockSegment> segments;
    std::vector<uint64_t> positions;  // split items' CSC entry positions
    uint64_t tokens = 0;              // tokens over all segments
  };
  /// One segment's CSC positions: the stored list of a split item, the
  /// contiguous run of a whole column, or the index array of a whole row.
  struct TokenPositions {
    const uint64_t* list;  // null: contiguous from `first`
    uint64_t first;
    uint32_t size;
    uint64_t operator[](uint32_t i) const {
      return list != nullptr ? list[i] : first + i;
    }
  };

  /// State of an open grid sweep (BeginSweep .. EndSweep). Workers read it
  /// freely inside a stage; every mutation happens on the driver thread at
  /// sweep/stage boundaries — the WARP_* contracts below make warplint
  /// enforce exactly that split.
  struct GridState {
    WARP_IMMUTABLE_AFTER(BuildGridIndices) SweepPlan plan;
    WARP_BARRIER_ONLY SweepStage stage = SweepStage::kDone;
    WARP_BARRIER_ONLY bool open = false;
    /// True when the plan-derived indices below match `plan`; BeginSweep
    /// skips rebuilding them for repeated sweeps of the same plan.
    WARP_IMMUTABLE_AFTER(BuildGridIndices) bool indices_built = false;
    /// Fusion legality, per plan: cols_ok — every column's tokens lie in a
    /// single doc block (word-accept may fuse with word-propose); rows_ok —
    /// every row's tokens lie in a single word block (doc-accept may fuse
    /// with doc-propose).
    WARP_IMMUTABLE_AFTER(BuildGridIndices) bool cols_ok = false;
    WARP_IMMUTABLE_AFTER(BuildGridIndices) bool rows_ok = false;
    /// True once BuildColArena filled the column tables for this sweep (the
    /// word-accept barrier then patches them in place instead of rebuilding).
    WARP_BARRIER_ONLY bool col_filled = false;
    // word/doc-phase RNG stream bases (see StreamBase).
    WARP_IMMUTABLE_AFTER(BeginSweep, RestoreSweepState) uint64_t base_word = 0;
    WARP_IMMUTABLE_AFTER(BeginSweep, RestoreSweepState) uint64_t base_doc = 0;
    // (doc×word) block -> column / row segments.
    WARP_IMMUTABLE_AFTER(BuildGridIndices) std::vector<BlockIndex> word_ix;
    WARP_IMMUTABLE_AFTER(BuildGridIndices) std::vector<BlockIndex> doc_ix;
    /// Per (doc, word) block: ran in the current span. Deliberately
    /// unannotated — RunBlock marks its own block done through a reference,
    /// a per-block-disjoint write the line-level contract model cannot
    /// distinguish from a race.
    std::vector<char> block_ran;
    /// Per (doc, word) block: deferred z writes of the current span,
    /// applied (and the column arena patched) at the EndStage barrier, one
    /// task per word block. Kept per block, not per worker, so no two apply
    /// tasks touch one column. Empty for a whole-item span's local blocks,
    /// which commit in place; injected deltas still land here.
    /// Unannotated for block_ran's reason.
    std::vector<std::vector<StagedMove>> block_moves;
  };

  /// RNG stream tags: each (epoch, tag, token) triple names one stream.
  static constexpr uint32_t kTagAccept = 0x51;
  static constexpr uint32_t kTagPropose = 0xA3;

  /// Tokens per accept-batch chunk: large enough to expose memory-level
  /// parallelism in the gather pass and fill the vector lanes, small enough
  /// that the SoA scratch stays L1-resident.
  static constexpr uint32_t kAcceptChunk = 256;

  /// Barrier tasks per item axis: enough that dynamic claiming evens out
  /// the Zipfian item costs over pools of up to a few dozen workers.
  static constexpr uint32_t kBarrierTasks = 64;
  /// Topics per ck-delta fold task.
  static constexpr uint32_t kFoldTopics = 4096;

  /// Per-pass base of the token RNG streams. Hashed once when a sweep opens,
  /// not once per token.
  uint64_t StreamBase(uint64_t epoch) const {
    return SplitMix64(config_.seed ^ (epoch * 0x9E3779B97F4A7C15ULL));
  }

  /// Deterministic per-token RNG stream. Grid blocks may run in any order
  /// (or on any thread), so each token's draws come from its own stream,
  /// named by the (stream_base, tag, token) triple.
  static Rng StreamRng(uint64_t stream_base, uint32_t tag, uint64_t token) {
    return Rng(
        SplitMix64(stream_base ^ (static_cast<uint64_t>(tag) << 56) ^ token));
  }

  /// Builds `counts` from the topic values in `z` (capacity min(K, 2|z|)).
  void BuildCounts(HashCount& counts, std::span<const TopicId> z) const;
  void BuildCounts(HashCount& counts,
                   SparseMatrix<TopicId>::RowView row) const;

  /// Runs one token's MH acceptance chain against the delayed snapshots
  /// (Eq. 7) and returns the final topic, reading the delayed counts from
  /// `counts` and folding topic moves into `s.ck_delta`. The word pass
  /// gives (prior_vec=nullptr, prior=β); the doc pass gives the α_k vector
  /// (or nullptr) and the symmetric α. The RNG stream is seeded
  /// lazily — chains whose proposals all equal the current topic, or always
  /// accept, draw nothing. This is the scalar accept path; AcceptSegment
  /// runs it, or its batched equivalent, over a segment.
  template <typename Counts>
  TopicId AcceptChain(ThreadScratch& s, const Counts& counts, TopicId current,
                      const TopicId* props, uint32_t m,
                      const std::vector<double>* prior_vec, double prior,
                      uint64_t stream_base, uint64_t token);

  /// Batched MH acceptance over one segment's tokens: gathers each token's
  /// (count+prior, ck_fixed+beta_bar) operands into SoA chunks, computes
  /// the chain-step ratios with the vectorized kernel, then resolves
  /// accepts sequentially per token (preserving each token's lazy RNG
  /// stream consumption exactly). Appends a StagedMove per moved token
  /// (tagged `move_item`) to `moves`, in position order; z is not written.
  /// Bit-identical to running AcceptChain per token, which it does instead
  /// over a HashCount (a whole-item span's private table, where the gather
  /// pass does not pay) and when a memory tracer is attached (for trace
  /// fidelity).
  template <typename Counts>
  void AcceptSegment(ThreadScratch& s, const Counts& counts,
                     const TokenPositions& positions,
                     const std::vector<double>* prior_vec, double prior,
                     uint64_t stream_base, uint32_t move_item,
                     std::vector<StagedMove>& moves);

  /// Drains every worker's obs accumulators into the global metrics
  /// registry (when metrics are enabled; the accumulators are zeroed either
  /// way). Called at stage barriers, where workers are quiescent.
  void FlushScratchMetrics();

  /// Loads the word-proposal alias table over q_word ∝ C_wk (the count
  /// branch of the mixture) from `counts`, which must hold the
  /// post-acceptance c_w. Entries are emitted in ascending-topic order, so
  /// the table depends only on the count *values* — not on how the table
  /// was filled — so a whole-column span (which replays its acceptance moves
  /// into a private snapshot) and a split-column plan (which patches the
  /// shared column arena at the barrier) load identical tables.
  template <typename Counts>
  void BuildAliasInto(ThreadScratch& scratch, const Counts& counts,
                      AliasTable& alias);

  /// Draws M word proposals for each of `positions` from the count/β
  /// mixture over `alias`, each token from its own stream.
  void DrawWordProposals(const TokenPositions& positions,
                         const AliasTable& alias, double count_prob);
  /// Draws M doc proposals for each of `positions` by random positioning
  /// into `row` (the whole row's topics), α branch as fallback (§4.3),
  /// each token from its own stream under `stream_base`.
  void DrawDocProposals(uint64_t stream_base, const TokenPositions& positions,
                        SparseMatrix<TopicId>::RowView row);
  /// Draws M doc proposals for every token of every row (Init and
  /// SetAssignments: the pending proposals the next word pass consumes).
  void DrawAllDocProposals();

  /// (Re)builds the plan-derived grid indices (per-block segment lists,
  /// fusion legality) unless they already match `plan`. Shared by BeginSweep
  /// and RestoreSweepState.
  void BuildGridIndices(const SweepPlan& plan);
  /// Appends one item's segments (`len` tokens) to the blocks holding it.
  /// `buckets[b]` lists the item's positions in block b of the other axis;
  /// all are empty when that axis has a single block. `own_block` is the
  /// item's block on its own axis; `over_doc_blocks` says the buckets run
  /// over doc blocks (a column) rather than word blocks (a row). An item
  /// inside one block becomes a whole-item segment that stores no
  /// positions. Returns false when the item is split across blocks.
  static bool AddItemSegments(uint32_t item, uint32_t len,
                              const std::vector<std::vector<uint64_t>>& buckets,
                              std::vector<BlockIndex>& indices, uint32_t num_wb,
                              uint32_t own_block, bool over_doc_blocks);
  /// The CSC positions of `seg`, a segment of `ix` on the given axis.
  TokenPositions Positions(const BlockIndex& ix, const BlockSegment& seg,
                           bool word_axis) const;

  /// Length (1 or 2) of the fused stage span entered at `s`, under the
  /// current plan's legality bits.
  int SpanLength(SweepStage s) const;
  /// Whether the span entered at `begin` draws proposals, and on which axis
  /// (word_ix vs doc_ix position order) they are gathered / scattered.
  /// Shared by RunBlockCaptured and ApplyBlockDelta so the two sides agree.
  bool SpanWritesProposals(SweepStage begin, bool* word_axis) const;
  /// True when `item` (word for the word axis, doc otherwise) is read by a
  /// locally owned block, or when no SetLocalBlocks filter is active.
  /// Implements the filtered cache builds.
  std::vector<char> LocalItemFilter(bool word_axis) const;
  /// Barrier-side preparation for the span entered at `begin`: snapshot
  /// refreshes and count-arena/alias (re)builds its stages read, as tasks
  /// on `run`.
  void EnterSpan(SweepStage begin, const TaskRunner& run);

  /// Shared count-table arenas (see count_arena.h), read by spans whose
  /// items may be split across blocks; whole-item spans count on the fly.
  /// Geometry is sized once per corpus; contents are rebuilt per sweep
  /// (columns at BeginSweep, rows at the doc-accept span entry) and the
  /// column arena is patched in place with the word-accept moves at the
  /// barrier.
  void EnsureColArenaGeometry();
  void EnsureRowArenaGeometry();
  void BuildColArena(const TaskRunner& run);
  void BuildRowArena(const TaskRunner& run);
  /// Builds every column's word-proposal alias table from the (patched)
  /// column arena — once per column per sweep, replacing the old
  /// once-per-(block × column) rebuilds.
  void BuildColAliases(const TaskRunner& run);

  /// Barrier task bodies. Each writes only its own items' tables, its own
  /// word block's z positions and column tables, or its own topics of
  /// ck_live_ and the ck-delta partitions, so tasks may run concurrently.
  void FillColArenaRange(uint32_t lo, uint32_t hi);
  void FillRowArenaRange(uint32_t lo, uint32_t hi,
                         const std::vector<char>& needed);
  void BuildColAliasRange(uint32_t lo, uint32_t hi,
                          const std::vector<char>& needed, ThreadScratch& s);
  /// Applies the staged moves of every block in word block `word_block`.
  void ApplyMovesRange(uint32_t word_block, bool patch_col_counts);
  void FoldDeltaRange(uint32_t lo, uint32_t hi);

  /// RunBlock with an optional capture list: a whole-item span appends the
  /// moves it commits in place to `*committed` (RunBlockCaptured's delta).
  void RunBlockInto(uint32_t doc_block, uint32_t word_block, uint32_t worker,
                    std::vector<StagedMove>* committed);

  /// Grid block bodies, one per (span pattern, axis). Concurrency-safe
  /// across distinct blocks: they read shared *immutable* span state, write
  /// only their own tokens' proposal slots, and put count updates into
  /// scratch_[worker]'s ck-delta partition. The split-item bodies defer z
  /// writes into the block's move list; the two whole-item bodies (the
  /// fused [wa, wp] and [da, dp] spans) commit their own items' z in place
  /// and report those moves to `committed` when it is non-null.
  void RunWordAcceptPart(uint32_t doc_block, uint32_t word_block,
                         ThreadScratch& s, std::vector<StagedMove>& moves);
  void RunFusedWordPart(uint32_t doc_block, uint32_t word_block,
                        ThreadScratch& s, std::vector<StagedMove>* committed);
  void RunWordProposePart(uint32_t doc_block, uint32_t word_block);
  void RunDocAcceptPart(uint32_t doc_block, uint32_t word_block,
                        ThreadScratch& s, std::vector<StagedMove>& moves);
  void RunFusedDocPart(uint32_t doc_block, uint32_t word_block,
                       ThreadScratch& s, std::vector<StagedMove>* committed);
  void RunDocProposePart(uint32_t doc_block, uint32_t word_block);
  /// Applies every block's staged moves to z (and, when the next span's
  /// alias builds will read it, patches the column count arena), then folds
  /// the per-worker ck-delta partitions into ck_live_, as tasks on `run`.
  void ApplyStagedMoves(bool patch_col_counts, const TaskRunner& run);

  const Corpus* corpus_ = nullptr;
  LdaConfig config_;
  double alpha_bar_ = 0.0;
  double beta_bar_ = 0.0;

  /// Model returned by the last ExportSharedModel(changed_words) call; the
  /// diff base for incremental publishing.
  std::shared_ptr<const TopicModel> last_export_;

  /// z in CSC order. Shared-read during grid stages; mutations are staged in
  /// GridState::block_moves and applied under the EndStage barrier, except
  /// in a whole-item span, whose block commits its own items in place (no
  /// other block reads those items until the barrier).
  WARP_BARRIER_ONLY SparseMatrix<TopicId> matrix_;
  /// M proposals per token, CSC order. Deliberately unannotated: propose
  /// stages legitimately write their own tokens' slots concurrently (the
  /// slot ranges are disjoint by construction), which a per-member contract
  /// would mislabel as a race.
  std::vector<TopicId> proposals_;
  WARP_BARRIER_ONLY AliasTable prior_alias_;  // over α_k (asymmetric prior)
  /// c_k snapshot used in acceptance — frozen while any span is open.
  WARP_IMMUTABLE_AFTER(Init, SetAssignments, EnterSpan, RestoreSweepState)
  std::vector<int64_t> ck_fixed_;
  /// Live c_k, maintained across phases by folding per-worker ck_delta
  /// partitions at barriers.
  WARP_BARRIER_ONLY std::vector<int64_t> ck_live_;
  WARP_WORKER_LOCAL std::vector<ThreadScratch> scratch_;
  WARP_BARRIER_ONLY CountArena col_counts_;  // per-column c_w (split items)
  WARP_BARRIER_ONLY CountArena row_counts_;  // per-row c_d (split items)
  WARP_BARRIER_ONLY std::vector<AliasTable> col_alias_;  // word proposals
  WARP_BARRIER_ONLY uint64_t phase_epoch_ = 0;  // RNG stream epoch
  GridState grid_;
  /// SetLocalBlocks ownership flags (num_blocks, row-major); empty = no
  /// filter, build every per-item cache.
  WARP_BARRIER_ONLY std::vector<char> local_blocks_;
};

}  // namespace warplda

#endif  // WARPLDA_CORE_WARP_LDA_H_
