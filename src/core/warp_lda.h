#ifndef WARPLDA_CORE_WARP_LDA_H_
#define WARPLDA_CORE_WARP_LDA_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/sampler.h"
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
/// There is one sweep implementation, the grid sweep (GridSampler), run
/// block by block over a SweepPlan's D×W blocks. Each pass is split into
/// whole items: in the word pass block (i, j) owns the (i·W+j)-th of D·W
/// contiguous, token-balanced column ranges, and in the doc pass the
/// (i·W+j)-th such row range — the reference code's `omp parallel for` over
/// words, then over docs, cut into D·W chunks. So every plan runs the same
/// two spans, [word-accept + word-propose] → c_k fold → [doc-accept +
/// doc-propose], and Iterate() is the 1×1 plan run inline. A block counts
/// its items on the fly, commits their z in place and draws their
/// proposals from the committed values; no other block reads those items
/// in that span. Every (pass, token) pair draws from its own RNG stream
/// derived from the seed, and delayed counts make tokens within a pass
/// independent, so any plan, block order and worker count produce
/// identical assignments. Distinct blocks of a span may run concurrently:
/// each RunBlock call works out of the calling worker's ThreadScratch —
/// including its partition of the c_k deltas, folded once at the EndStage
/// barrier — and writes only its own items' z and proposal slots.
class WarpLdaSampler : public Sampler, public GridSampler {
 public:
  void Init(const Corpus& corpus, const LdaConfig& config) override;
  void Iterate() override;
  std::vector<TopicId> Assignments() const override;
  /// Replaces the topic assignments (document-major, parallel to the
  /// corpus tokens), recounts c_k and redraws the pending doc proposals
  /// from them, as Init() does. Init() must come first; not during an open
  /// sweep.
  void SetAssignments(const std::vector<TopicId>& assignments);
  void SetPriors(double alpha, double beta) override;
  std::string name() const override { return "WarpLDA"; }

  /// GridSampler: block-wise sweep execution (see core/sweep_plan.h for the
  /// protocol). Produces the same samples as Iterate() for any plan, any
  /// block schedule and any worker count. An accept stage and the propose
  /// stage after it run as one span: sweep_stage() names the span's accept
  /// stage (kWordAccept or kDocAccept), RunBlock executes both stages for
  /// that block, and EndStage() advances past the whole span.
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

  /// The items block `block` (= doc_block·W + word_block) owns in the word
  /// spans (columns, `word_axis`) or the doc spans (rows) of the current
  /// or last sweep's plan, as the range [first, second).
  std::pair<uint32_t, uint32_t> BlockItems(size_t block,
                                           bool word_axis) const;

  /// Durability hooks (core/checkpoint.h): capture is legal between sweeps
  /// and at stage barriers (deltas folded, injected moves applied — the
  /// per-worker state is empty, so the checkpoint is just assignments,
  /// proposals, c_k snapshot, and RNG stream bases); restore reproduces that
  /// exact state in a fresh process, mid-sweep when the checkpoint was. Any
  /// thread count may finish a restored sweep bit-identically to the
  /// uninterrupted run, and a checkpoint taken at any stage barrier restores:
  /// both stream bases are minted at BeginSweep, so the bytes do not depend
  /// on which plan the capturing run had. Checkpoints written at a
  /// word-propose or doc-propose barrier (by builds that split items across
  /// blocks) are rejected.
  bool CaptureSweepState(SweepCheckpoint* out) const override;
  bool RestoreSweepState(const SweepCheckpoint& state,
                         std::string* error) override;

  /// Distributed execution hooks (see core/sweep_plan.h). A block's effect
  /// is the moves it committed in place plus the proposal slots its span
  /// wrote, gathered / scattered in its items' id order and each item's
  /// token order — canonical because every process derives the same item
  /// ranges from the same plan and corpus. A reader map cuts that effect
  /// into per-reader slices through per-(block, reader) token lists, built
  /// from the map on first use (the empty map is the one-reader map), so a
  /// slice is cut, validated and applied in time proportional to its size.
  /// Injected moves land in the block's own move list, the block's c_k
  /// change (`ck_net`) in worker 0's ck-delta and the proposals in the
  /// slice tokens' own slots, so EndStage() applies them exactly as local
  /// work; a full set of deltas makes this sampler's state evolve
  /// bit-identically to the process that ran the blocks, and a reader's
  /// slices keep every token it reads next (and c_k) current.
  bool RunBlockCaptured(uint32_t doc_block, uint32_t word_block,
                        uint32_t worker, const std::vector<uint32_t>& readers,
                        GridBlockDelta* out) override;
  bool ApplyBlockDelta(const GridBlockDelta& delta,
                       const std::vector<uint32_t>& readers,
                       std::string* error) override;

  /// Live global topic counts c_k (size K). Deltas are folded in at stage
  /// barriers, so between Iterate() calls (or outside an open sweep)
  /// this is exactly the histogram of Assignments().
  const std::vector<int64_t>& topic_counts() const { return ck_live_; }

  /// Snapshot-export hook for serving: aggregates the current assignments
  /// into a TopicModel ready for serve::ModelStore::Publish(). Safe to call
  /// between Iterate() calls while a server keeps answering from earlier
  /// snapshots (train-while-serve). Init() must have been called.
  std::shared_ptr<const TopicModel> ExportSharedModel() const;

  /// As above, and additionally reports which words' sparse rows differ
  /// from the model returned by the previous call to this overload (every
  /// word on the first call). Kept only because bench/warpbench/serving.cc
  /// reports the changed share (store.changed_word_share); delete it, with
  /// last_export_ and TopicModel::ChangedWords, when that benchmark is next
  /// redefined. Tracks the last export internally; `changed_words` may be
  /// null to only advance that tracking.
  std::shared_ptr<const TopicModel> ExportSharedModel(
      std::vector<WordId>* changed_words);

 private:
  /// An accepted topic move: token at CSC position `pos` moves from topic
  /// `from` to `to`; `item` is the token's column (word pass) or row (doc
  /// pass). The same record a block delta ships, so captured moves need no
  /// copy.
  using StagedMove = GridBlockDelta::Move;

  struct alignas(64) WARP_WORKER_LOCAL ThreadScratch {
    HashCount counts;
    AliasTable alias;
    AliasTable::Workspace alias_ws;
    /// This worker's partition of the c_k updates; folded into ck_live_ at
    /// stage barriers.
    std::vector<int64_t> ck_delta;
    std::vector<std::pair<uint32_t, double>> alias_entries;
    /// One item's accepted moves, committed to z in place (and replayed
    /// into `counts`) once the item's accept pass is done.
    std::vector<StagedMove> item_moves;
    /// RunBlockCaptured only: the block's committed moves, each token's
    /// reader, and the block's per-topic c_k change (size K once used,
    /// all zero between captures).
    std::vector<StagedMove> block_moves;
    std::vector<uint32_t> reader_tag;
    std::vector<int32_t> ck_tally;
    /// Plain (non-atomic) obs accumulators, bumped on the hot path and
    /// drained into the global registry by FlushScratchMetrics() at stage
    /// barriers — never an atomic op per token.
    uint64_t obs_tokens = 0;       ///< AcceptChain calls (tokens visited)
    uint64_t obs_proposals = 0;    ///< non-self MH proposals considered
    uint64_t obs_accepts = 0;      ///< proposals accepted (topic moved)
    uint64_t obs_alias_builds = 0; ///< alias tables (re)built
  };
  // Whole cache lines per worker: unpadded, worker w's per-token obs_*
  // bumps shared a line with worker w+1's `counts` header, and an 8x8 sweep
  // on 4 threads used 1.6x the CPU of 1 thread (1.07x padded; medians).
  static_assert(alignof(ThreadScratch) == 64 &&
                sizeof(ThreadScratch) % 64 == 0);

  /// One item's CSC positions: the contiguous run of a column, or the index
  /// array of a row.
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
    // word/doc-phase RNG stream bases (see StreamBase).
    WARP_IMMUTABLE_AFTER(BeginSweep, RestoreSweepState) uint64_t base_word = 0;
    WARP_IMMUTABLE_AFTER(BeginSweep, RestoreSweepState) uint64_t base_doc = 0;
    /// Item ranges, D·W + 1 bounds each: block b = i·W + j owns columns
    /// [col_bounds[b], col_bounds[b+1]) in word stages and rows
    /// [row_bounds[b], row_bounds[b+1]) in doc stages.
    WARP_IMMUTABLE_AFTER(BuildGridIndices) std::vector<uint32_t> col_bounds;
    WARP_IMMUTABLE_AFTER(BuildGridIndices) std::vector<uint32_t> row_bounds;
    /// Per (doc, word) block: ran in the current span. Deliberately
    /// unannotated — RunBlock marks its own block done through a reference,
    /// a per-block-disjoint write the line-level contract model cannot
    /// distinguish from a race.
    std::vector<char> block_ran;
    /// Per (doc, word) block: moves injected by ApplyBlockDelta, committed
    /// to z at the EndStage barrier (a local block commits its own in
    /// place). Unannotated for block_ran's reason.
    std::vector<std::vector<StagedMove>> block_moves;
  };

  /// Per-(block, reader) token lists for cutting and applying sliced block
  /// deltas (see GridBlockDelta). Built by BuildReaderIndex from a reader
  /// map and kept while the map and the grid's item ranges stay the same;
  /// empty until a delta hook runs, so in-process sweeps never build one.
  /// Tokens are named by their index along an axis's canonical order: the
  /// CSC position on the word axis, the row-major index on the doc axis.
  struct ReaderIndex {
    std::vector<uint32_t> readers;  ///< the (normalized) map, size D·W
    std::vector<uint32_t> col_bounds;  ///< grid item ranges it was built on
    std::vector<uint32_t> row_bounds;
    uint32_t num_readers = 0;
    /// Per axis (0: word spans, 1: doc spans), the tokens of group
    /// g = block·num_readers + reader are tokens[begin[g] .. begin[g+1]),
    /// in canonical order. 4 B per token per axis.
    std::vector<uint32_t> begin[2];
    std::vector<uint32_t> tokens[2];
  };

  /// Largest reader id + 1 a reader map may name.
  static constexpr uint32_t kMaxReaders = 1u << 16;

  /// RNG stream tags: each (epoch, tag, token) triple names one stream.
  static constexpr uint32_t kTagAccept = 0x51;
  static constexpr uint32_t kTagPropose = 0xA3;

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
  /// accept, draw nothing.
  TopicId AcceptChain(ThreadScratch& s, const HashCount& counts,
                      TopicId current, const TopicId* props, uint32_t m,
                      const std::vector<double>* prior_vec, double prior,
                      uint64_t stream_base, uint64_t token);

  /// Runs AcceptChain over one item's tokens and appends a StagedMove per
  /// moved token (tagged `item`) to `s.item_moves`, in position order; z is
  /// not written.
  void AcceptItem(ThreadScratch& s, const TokenPositions& positions,
                  const std::vector<double>* prior_vec, double prior,
                  uint64_t stream_base, uint32_t item);

  /// Drains every worker's obs accumulators into the global metrics
  /// registry (when metrics are enabled; the accumulators are zeroed either
  /// way). Called at stage barriers, where workers are quiescent.
  void FlushScratchMetrics();

  /// Loads the word-proposal alias table over q_word ∝ C_wk (the count
  /// branch of the mixture) from `counts`, which must hold the
  /// post-acceptance c_w. Entries are emitted in ascending-topic order, so
  /// the table depends only on the count *values*, not on the order the
  /// table was filled in.
  void BuildAliasInto(ThreadScratch& scratch, const HashCount& counts,
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

  /// Derives the per-block item ranges from `plan`'s block counts. Shared
  /// by BeginSweep and RestoreSweepState.
  void BuildGridIndices(const SweepPlan& plan);
  /// The CSC positions of column `item` (word axis) or row `item`.
  TokenPositions ItemPositions(uint32_t item, bool word_axis) const;

  /// Barrier-side preparation for the next span: the c_k snapshot its
  /// accept stage reads.
  void EnterSpan();

  /// Barrier task bodies. Each writes only its own word block's z positions
  /// or its own topics of ck_live_ and the ck-delta partitions, so tasks may
  /// run concurrently.
  /// Commits the injected moves of every block in word block `word_block`.
  void ApplyMovesRange(uint32_t word_block);
  void FoldDeltaRange(uint32_t lo, uint32_t hi);

  /// The reader index for `readers` (empty = every block read by reader
  /// 0), rebuilt when the map or the grid's item ranges changed. Returns
  /// null and fills `*error` for a map of the wrong size or with a reader
  /// id of kMaxReaders or more.
  const ReaderIndex* ReaderIndexFor(const std::vector<uint32_t>& readers,
                                    std::string* error);
  void BuildReaderIndex(std::vector<uint32_t> readers);
  /// Canonical-order tokens [first, second) of `block` on an axis, the CSC
  /// position of axis token `a`, and the end of item `item`'s tokens.
  std::pair<uint64_t, uint64_t> BlockAxisRange(size_t block,
                                               bool word_axis) const;
  uint64_t AxisPosition(uint64_t a, bool word_axis) const {
    return word_axis ? a : matrix_.csc_position(a);
  }
  uint64_t AxisEnd(uint32_t item, bool word_axis) const {
    return word_axis ? matrix_.col_offset(item + 1)
                     : matrix_.row_offset(item + 1);
  }

  /// RunBlock with an optional capture list: the span appends the moves it
  /// commits in place to `*committed` (RunBlockCaptured's delta).
  void RunBlockInto(uint32_t doc_block, uint32_t word_block, uint32_t worker,
                    std::vector<StagedMove>* committed);

  /// Block bodies, one per span. Concurrency-safe across distinct blocks:
  /// each reads and writes only its own items' z and proposal slots, reads
  /// shared *immutable* span state, and puts count updates into the
  /// worker's ck-delta partition. Each commits its items' z in place and
  /// reports those moves to `committed` when it is non-null.
  void RunWordPart(size_t block, ThreadScratch& s,
                   std::vector<StagedMove>* committed);
  void RunDocPart(size_t block, ThreadScratch& s,
                  std::vector<StagedMove>* committed);
  /// Commits every block's injected moves to z, then folds the per-worker
  /// ck-delta partitions into ck_live_, as tasks on `run`.
  void ApplyStagedMoves(const TaskRunner& run);

  const Corpus* corpus_ = nullptr;
  LdaConfig config_;
  double alpha_bar_ = 0.0;
  double beta_bar_ = 0.0;

  /// Model returned by the last ExportSharedModel(changed_words) call; the
  /// diff base for the changed-word report.
  std::shared_ptr<const TopicModel> last_export_;

  /// z in CSC order. Shared-read during grid stages; a block commits its
  /// own items in place (no other block reads them until the barrier), and
  /// injected moves are applied under the EndStage barrier.
  WARP_BARRIER_ONLY SparseMatrix<TopicId> matrix_;
  /// M proposals per token, CSC order. Deliberately unannotated: blocks
  /// legitimately write their own tokens' slots concurrently (the slot
  /// ranges are disjoint by construction), which a per-member contract
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
  WARP_BARRIER_ONLY uint64_t phase_epoch_ = 0;  // RNG stream epoch
  GridState grid_;
  WARP_IMMUTABLE_AFTER(Init, BuildReaderIndex) ReaderIndex reader_index_;
};

}  // namespace warplda

#endif  // WARPLDA_CORE_WARP_LDA_H_
