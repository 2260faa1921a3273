#include "core/warp_lda.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "core/checkpoint.h"
#include "core/simd_kernels.h"
#include "obs/metrics.h"

namespace warplda {

namespace {

/// Cached registry handles for the sampler-level counters (see
/// FlushScratchMetrics; the hot path only bumps plain per-worker fields).
struct SamplerMetrics {
  obs::Counter* tokens;
  obs::Counter* proposals;
  obs::Counter* accepts;
  obs::Counter* alias_builds;

  static const SamplerMetrics& Get() {
    static const SamplerMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      SamplerMetrics sm;
      sm.tokens = reg.GetCounter("trainer_tokens_sampled_total",
                                 "Tokens run through an MH acceptance chain");
      sm.proposals = reg.GetCounter(
          "trainer_mh_proposals_total",
          "Non-self MH proposals considered (accept rate = accepts/this)");
      sm.accepts = reg.GetCounter("trainer_mh_accepts_total",
                                  "MH proposals accepted (topic moved)");
      sm.alias_builds = reg.GetCounter(
          "trainer_alias_rebuilds_total",
          "Word-proposal alias tables (re)built");
      return sm;
    }();
    return m;
  }
};

}  // namespace

// Determinism invariant: every plan, block order and worker count must sample
// identically, so every (pass, token) pair draws from its own RNG stream:
// acceptance and proposal draws depend only on the per-pass snapshots plus
// the token's stream, never on which thread or grid block processed the token
// first. Anything that would couple tokens — updating c_w/c_d during a scan,
// a shared RNG cursor — is structured out.

void WarpLdaSampler::Init(const Corpus& corpus, const LdaConfig& config) {
  corpus_ = &corpus;
  config_ = config;
  alpha_bar_ = config.alpha_bar();
  beta_bar_ = config.beta * corpus.num_words();
  if (!config_.alpha_vector.empty()) {
    prior_alias_.Build(config_.alpha_vector);
  }
  const uint32_t k = config_.num_topics;
  const uint32_t m = std::max(1u, config_.mh_steps);

  matrix_.Reset(corpus.num_docs(), corpus.num_words());
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    for (WordId w : corpus.doc_tokens(d)) matrix_.AddEntry(d, w);
  }
  matrix_.Finalize();
  proposals_.assign(matrix_.num_entries() * m, 0);

  scratch_.assign(1, ThreadScratch());
  scratch_[0].ck_delta.assign(k, 0);
  phase_epoch_ = 0;
  grid_ = GridState();
  col_counts_ = CountArena();
  row_counts_ = CountArena();
  col_alias_.clear();

  // Random initial assignments.
  ck_live_.assign(k, 0);
  Rng init_rng(config.seed);
  for (uint64_t e = 0; e < matrix_.num_entries(); ++e) {
    TopicId topic = init_rng.NextInt(k);
    matrix_.entry_data(e) = topic;
    ++ck_live_[topic];
  }
  ck_fixed_ = ck_live_;

  // Alg. 2 enters the word pass expecting pending doc proposals, so draw
  // the first batch now from the initial assignments (stream epoch 0).
  DrawAllDocProposals();
}

void WarpLdaSampler::SetPriors(double alpha, double beta) {
  config_.alpha = alpha;
  config_.beta = beta;
  alpha_bar_ = alpha * config_.num_topics;
  beta_bar_ = beta * corpus_->num_words();
}

std::shared_ptr<const TopicModel> WarpLdaSampler::ExportSharedModel() const {
  return std::make_shared<const TopicModel>(*corpus_, Assignments(),
                                            config_.num_topics, config_.alpha,
                                            config_.beta);
}

std::shared_ptr<const TopicModel> WarpLdaSampler::ExportSharedModel(
    std::vector<WordId>* changed_words) {
  return TrackExportDelta(ExportSharedModel(), &last_export_, changed_words);
}

void WarpLdaSampler::SetAssignments(const std::vector<TopicId>& assignments) {
  if (grid_.open) {
    throw std::logic_error(
        "WarpLdaSampler: SetAssignments() during an active grid sweep");
  }
  std::fill(ck_live_.begin(), ck_live_.end(), 0);
  for (uint64_t t = 0; t < assignments.size(); ++t) {
    matrix_.entry_data(matrix_.csc_position(t)) = assignments[t];
    ++ck_live_[assignments[t]];
  }
  ck_fixed_ = ck_live_;
  // Refresh the pending proposals so the next word pass consumes proposals
  // drawn from the restored state (mirrors the tail of Init()).
  DrawAllDocProposals();
}

std::vector<TopicId> WarpLdaSampler::Assignments() const {
  std::vector<TopicId> out(matrix_.num_entries());
  for (uint64_t t = 0; t < out.size(); ++t) {
    out[t] = matrix_.entry_data(matrix_.csc_position(t));
  }
  return out;
}

void WarpLdaSampler::BuildCounts(HashCount& counts,
                                 std::span<const TopicId> z) const {
  counts.Init(
      std::min<uint32_t>(config_.num_topics, 2 * static_cast<uint32_t>(z.size())));
  for (TopicId topic : z) counts.Inc(topic);
}

void WarpLdaSampler::BuildCounts(HashCount& counts,
                                 SparseMatrix<TopicId>::RowView row) const {
  counts.Init(std::min<uint32_t>(config_.num_topics, 2 * row.size()));
  for (uint32_t i = 0; i < row.size(); ++i) counts.Inc(row[i]);
}

template <typename Counts>
TopicId WarpLdaSampler::AcceptChain(ThreadScratch& s, const Counts& counts,
                                    TopicId current, const TopicId* props,
                                    uint32_t m,
                                    const std::vector<double>* prior_vec,
                                    double prior, uint64_t stream_base,
                                    uint64_t token) {
  int64_t* ck_delta = s.ck_delta.data();
  ++s.obs_tokens;
  Rng rng;
  bool seeded = false;
  for (uint32_t j = 0; j < m; ++j) {
    TopicId t = props[j];
    if (t == current) continue;
    ++s.obs_proposals;
    Trace(reinterpret_cast<const void*>(counts.SlotAddr(t)),
          sizeof(HashCount::Entry), /*random=*/true, /*write=*/false);
    const double prior_t = prior_vec ? (*prior_vec)[t] : prior;
    const double prior_s = prior_vec ? (*prior_vec)[current] : prior;
    // Eq. 7: delayed c_w/c_d and c_k snapshots on both sides. The expression
    // tree — (mul, mul) over a div — is replicated exactly by the batched
    // kernel (simd::ComputeAcceptRatios), keeping both paths bit-identical.
    double accept =
        (counts.Get(t) + prior_t) * (ck_fixed_[current] + beta_bar_) /
        ((counts.Get(current) + prior_s) * (ck_fixed_[t] + beta_bar_));
    bool take = accept >= 1.0;
    if (!take) {
      if (!seeded) {
        rng = StreamRng(stream_base, kTagAccept, token);
        seeded = true;
      }
      take = rng.NextBernoulli(accept);
    }
    if (take) {
      ++s.obs_accepts;
      --ck_delta[current];
      ++ck_delta[t];
      current = t;
    }
  }
  return current;
}

void WarpLdaSampler::FlushScratchMetrics() {
  uint64_t tokens = 0;
  uint64_t proposals = 0;
  uint64_t accepts = 0;
  uint64_t alias_builds = 0;
  for (auto& s : scratch_) {
    tokens += s.obs_tokens;
    proposals += s.obs_proposals;
    accepts += s.obs_accepts;
    alias_builds += s.obs_alias_builds;
    s.obs_tokens = s.obs_proposals = s.obs_accepts = s.obs_alias_builds = 0;
  }
  if (!obs::MetricsEnabled() || tokens + proposals + alias_builds == 0) return;
  const SamplerMetrics& m = SamplerMetrics::Get();
  m.tokens->Inc(tokens);
  m.proposals->Inc(proposals);
  m.accepts->Inc(accepts);
  m.alias_builds->Inc(alias_builds);
}

template <typename Counts>
void WarpLdaSampler::BuildAliasInto(ThreadScratch& scratch,
                                    const Counts& counts, AliasTable& alias) {
  // Alg. 2 builds the alias table over the post-acceptance C_wk: q_word ∝
  // C_wk + β as a mixture of this count-weighted table and the uniform β
  // branch. Entries are sorted by topic so the bin layout is a pure function
  // of the count values: a whole-column span (which patches its private
  // acceptance-time snapshot with the segment's moves) and a split-column
  // plan (which patches the shared column arena with the staged moves at the
  // barrier) insert keys in different orders yet load identical tables.
  ++scratch.obs_alias_builds;
  scratch.alias_entries.clear();
  counts.ForEachNonZero([&](uint32_t k, int32_t c) {
    scratch.alias_entries.emplace_back(k, static_cast<double>(c));
  });
  std::sort(scratch.alias_entries.begin(), scratch.alias_entries.end());
  alias.BuildSparse(scratch.alias_entries, scratch.alias_ws);
}

void WarpLdaSampler::DrawWordProposals(const TokenPositions& positions,
                                       const AliasTable& alias,
                                       double count_prob) {
  const uint32_t m = std::max(1u, config_.mh_steps);
  const uint32_t k_topics = config_.num_topics;
  for (uint32_t i = 0; i < positions.size; ++i) {
    Rng rng = StreamRng(grid_.base_word, kTagPropose, positions[i]);
    TopicId* slot = &proposals_[positions[i] * m];
    for (uint32_t j = 0; j < m; ++j) {
      slot[j] = rng.NextBernoulli(count_prob) ? alias.Sample(rng)
                                              : rng.NextInt(k_topics);
    }
  }
}

void WarpLdaSampler::DrawDocProposals(uint64_t stream_base,
                                      const TokenPositions& positions,
                                      SparseMatrix<TopicId>::RowView row) {
  const uint32_t m = std::max(1u, config_.mh_steps);
  const uint32_t k_topics = config_.num_topics;
  const bool asymmetric = !config_.alpha_vector.empty();
  const uint32_t len = row.size();
  // q_doc ∝ C_dk + α_k as the mixture of §4.3: with probability L_d/(L_d+ᾱ)
  // random positioning into z_d, otherwise a draw from the prior (uniform
  // for symmetric α, alias table over α_k otherwise).
  const double position_prob =
      static_cast<double>(len) / (static_cast<double>(len) + alpha_bar_);
  for (uint32_t i = 0; i < positions.size; ++i) {
    Rng rng = StreamRng(stream_base, kTagPropose, positions[i]);
    TopicId* slot = &proposals_[positions[i] * m];
    for (uint32_t j = 0; j < m; ++j) {
      if (rng.NextBernoulli(position_prob)) {
        slot[j] = row[rng.NextInt(len)];
      } else {
        slot[j] = asymmetric ? prior_alias_.Sample(rng) : rng.NextInt(k_topics);
      }
    }
  }
}

void WarpLdaSampler::DrawAllDocProposals() {
  const uint64_t stream_base = StreamBase(phase_epoch_);
  for (DocId d = 0; d < corpus_->num_docs(); ++d) {
    const std::span<const uint64_t> entries = matrix_.row_positions(d);
    DrawDocProposals(stream_base,
                     {entries.data(), 0, static_cast<uint32_t>(entries.size())},
                     matrix_.row(d));
  }
}

void WarpLdaSampler::Iterate() { RunSweep(SweepPlan::Trivial()); }

// --------------------------------------------------------------------------
// Grid execution. Stages defer their writes (accepted topics go to the
// block's staged-move list, count updates to the worker's ck-delta
// partition) and apply them at the EndStage barrier, so every block of a
// stage observes the same pre-stage state no matter the schedule. Combined
// with the per-token RNG streams this makes any grid — the 1×1 plan that
// Iterate() runs included — sample identically, on any number of workers:
// a block body reads only shared *immutable* span state (z, the count
// arenas, the column alias tables) and writes only its own tokens' proposal
// slots plus scratch_[worker], so concurrent blocks share no mutable memory
// (ParallelExecutor relies on exactly this). The one exception is a
// whole-item span (below): its block owns every token of its items, no
// other block reads them in that span, so it commits their z in place.
//
// Stage fusion merges adjacent stages into one RunBlock pass per block where
// the write-set proof holds, giving each plan its one stage schedule:
//  * [word-propose, doc-accept] is always legal: a block's word-propose
//    writes only its own tokens' proposal slots, and its doc-accept reads
//    only its own tokens' proposals — the same token set, written earlier in
//    the same call. z is stable across the pair (propose never writes z, and
//    accept stages its writes), so the row snapshots are schedule-invariant.
//  * [word-accept, word-propose] requires cols_ok (every column inside one
//    doc block): propose's alias table needs the whole column's
//    post-acceptance counts, which only that block computed.
//  * [doc-accept, doc-propose] requires rows_ok (every row inside one word
//    block): propose positions into the whole row's post-acceptance topics.
// These two are the whole-item spans: the block counts its items on the fly
// (no shared arena), commits their acceptances to z in place and draws the
// proposals from the committed values — §4.4's pass over one column or row.
// Fusion never changes the samples — only which barriers exist: 2 per sweep
// when every column and every row lies in one block (the trivial plan), 3
// otherwise.

void WarpLdaSampler::ReserveWorkers(uint32_t num_workers) {
  if (corpus_ == nullptr) {
    throw std::logic_error(
        "WarpLdaSampler: Init() must precede ReserveWorkers()");
  }
  if (grid_.open) {
    // Growing the pool is safe whenever no block is in flight — between
    // sweeps or at a stage barrier (where FinishSweep resumes a restored
    // sweep, possibly with more workers than the checkpointing run had).
    for (char ran : grid_.block_ran) {
      if (ran) {
        throw std::logic_error(
            "WarpLdaSampler: ReserveWorkers() with stage blocks in flight");
      }
    }
  }
  while (scratch_.size() < num_workers) {
    scratch_.emplace_back().ck_delta.assign(config_.num_topics, 0);
  }
}

void WarpLdaSampler::BeginSweep(const SweepPlan& plan, const TaskRunner& run) {
  if (corpus_ == nullptr) {
    throw std::logic_error("WarpLdaSampler: Init() must precede BeginSweep()");
  }
  if (grid_.open) {
    throw std::logic_error("WarpLdaSampler: a grid sweep is already active");
  }
  std::string error;
  if (!plan.Validate(corpus_->num_docs(), corpus_->num_words(), &error)) {
    throw std::invalid_argument("WarpLdaSampler: invalid SweepPlan: " + error);
  }
  if (!local_blocks_.empty() &&
      local_blocks_.size() !=
          static_cast<size_t>(plan.num_doc_blocks) * plan.num_word_blocks) {
    throw std::invalid_argument(
        "WarpLdaSampler: SetLocalBlocks mask sized for a different plan");
  }
  BuildGridIndices(plan);
  for (auto& s : scratch_) {
    std::fill(s.ck_delta.begin(), s.ck_delta.end(), 0);
  }
  const size_t num_blocks =
      static_cast<size_t>(plan.num_doc_blocks) * plan.num_word_blocks;
  grid_.block_moves.resize(num_blocks);
  grid_.block_ran.assign(num_blocks, 0);
  // Mint both pass stream bases up front. Checkpoints therefore carry
  // identical bytes at a given barrier whichever plan produced them, and a
  // checkpoint from any barrier resumes the same trajectory.
  phase_epoch_ += 2;
  grid_.base_word = StreamBase(phase_epoch_ - 1);
  grid_.base_doc = StreamBase(phase_epoch_);
  grid_.col_filled = false;
  grid_.stage = SweepStage::kWordAccept;
  grid_.open = true;
  try {
    EnterSpan(SweepStage::kWordAccept, run);
  } catch (...) {
    AbortSweep();  // a failed barrier task leaves no half-open sweep
    throw;
  }
}

void WarpLdaSampler::BuildGridIndices(const SweepPlan& plan) {
  if (grid_.indices_built && plan == grid_.plan) return;
  grid_.plan = plan;
  const uint32_t num_wb = plan.num_word_blocks;
  const uint32_t num_db = plan.num_doc_blocks;
  const size_t num_blocks = static_cast<size_t>(num_db) * num_wb;
  grid_.word_ix.assign(num_blocks, {});
  grid_.doc_ix.assign(num_blocks, {});

  // Word axis: group each column's CSC positions by doc block, giving every
  // block its exact token list up front. Columns are never rescanned per
  // block, and with one doc block every column is whole, so the per-entry
  // doc-block map is skipped.
  std::vector<uint32_t> entry_doc_block;
  if (num_db > 1) {
    entry_doc_block.resize(matrix_.num_entries());
    for (DocId d = 0; d < corpus_->num_docs(); ++d) {
      for (uint64_t pos : matrix_.row_positions(d)) {
        entry_doc_block[pos] = plan.doc_block[d];
      }
    }
  }
  std::vector<std::vector<uint64_t>> buckets(num_db);
  grid_.cols_ok = true;
  for (WordId w = 0; w < corpus_->num_words(); ++w) {
    const uint32_t wb = plan.word_block.empty() ? 0 : plan.word_block[w];
    const uint64_t base = matrix_.col_offset(w);
    const uint32_t len = matrix_.col_size(w);
    if (len == 0) continue;
    for (auto& bucket : buckets) bucket.clear();
    if (num_db > 1) {
      for (uint64_t p = base; p < base + len; ++p) {
        buckets[entry_doc_block[p]].push_back(p);
      }
    }
    if (!AddItemSegments(w, len, buckets, grid_.word_ix, num_wb, wb,
                         /*over_doc_blocks=*/true)) {
      grid_.cols_ok = false;
    }
  }

  // Doc axis: same grouping, rows by word block, preserving row order so a
  // split row's positions are a subsequence of the row's own index array.
  buckets.assign(num_wb, {});
  std::vector<uint32_t> entry_word_block;
  if (num_wb > 1) {
    entry_word_block.resize(matrix_.num_entries());
    for (WordId w = 0; w < corpus_->num_words(); ++w) {
      const uint64_t base = matrix_.col_offset(w);
      std::fill_n(entry_word_block.begin() + base, matrix_.col_size(w),
                  plan.word_block[w]);
    }
  }
  grid_.rows_ok = true;
  for (DocId d = 0; d < corpus_->num_docs(); ++d) {
    const uint32_t db = plan.doc_block.empty() ? 0 : plan.doc_block[d];
    const std::span<const uint64_t> row = matrix_.row_positions(d);
    if (row.empty()) continue;
    for (auto& bucket : buckets) bucket.clear();
    if (num_wb > 1) {
      for (uint64_t pos : row) buckets[entry_word_block[pos]].push_back(pos);
    }
    if (!AddItemSegments(d, static_cast<uint32_t>(row.size()), buckets,
                         grid_.doc_ix, num_wb, db,
                         /*over_doc_blocks=*/false)) {
      grid_.rows_ok = false;
    }
  }
  grid_.indices_built = true;
}

bool WarpLdaSampler::AddItemSegments(
    uint32_t item, uint32_t len,
    const std::vector<std::vector<uint64_t>>& buckets,
    std::vector<BlockIndex>& indices, uint32_t num_wb, uint32_t own_block,
    bool over_doc_blocks) {
  auto block_of = [&](uint32_t other) {
    return over_doc_blocks ? static_cast<size_t>(other) * num_wb + own_block
                           : static_cast<size_t>(own_block) * num_wb + other;
  };
  uint32_t hit = 0;
  uint32_t blocks_hit = 0;
  for (uint32_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b].empty()) continue;
    hit = b;
    ++blocks_hit;
  }
  if (blocks_hit <= 1) {
    // Whole item (no bucket filled means the other axis has one block).
    BlockIndex& ix = indices[block_of(hit)];
    ix.segments.push_back({item, 0, 0});
    ix.tokens += len;
    return true;
  }
  for (uint32_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b].empty()) continue;
    BlockIndex& ix = indices[block_of(b)];
    const uint32_t begin = static_cast<uint32_t>(ix.positions.size());
    ix.positions.insert(ix.positions.end(), buckets[b].begin(),
                        buckets[b].end());
    ix.segments.push_back(
        {item, begin, static_cast<uint32_t>(ix.positions.size())});
    ix.tokens += buckets[b].size();
  }
  return false;
}

WarpLdaSampler::TokenPositions WarpLdaSampler::Positions(
    const BlockIndex& ix, const BlockSegment& seg, bool word_axis) const {
  if (seg.begin != seg.end) {
    return {&ix.positions[seg.begin], 0, seg.end - seg.begin};
  }
  if (word_axis) {
    return {nullptr, matrix_.col_offset(seg.item), matrix_.col_size(seg.item)};
  }
  const std::span<const uint64_t> row = matrix_.row_positions(seg.item);
  return {row.data(), 0, static_cast<uint32_t>(row.size())};
}

int WarpLdaSampler::SpanLength(SweepStage s) const {
  switch (s) {
    case SweepStage::kWordAccept:
      return grid_.cols_ok ? 2 : 1;
    case SweepStage::kWordPropose:
      return 2;  // [word-propose, doc-accept] is legal on every plan
    case SweepStage::kDocAccept:
      return grid_.rows_ok ? 2 : 1;
    default:
      return 1;
  }
}

void WarpLdaSampler::EnterSpan(SweepStage begin, const TaskRunner& run) {
  const int len = SpanLength(begin);
  // Snapshot refresh: any span containing an accept stage needs ck_fixed =
  // the fold state at its phase boundary. The [wp, da] span refreshes at
  // entry (post word-accept fold; word-propose itself never reads it), so
  // its doc-accept half — and the checkpoint bytes at the word-propose
  // barrier — see the doc phase's snapshot.
  // Doc-propose entry must NOT refresh: its barrier checkpoint carries the
  // doc-accept snapshot, not the post-doc-accept fold.
  if (begin != SweepStage::kDocPropose) ck_fixed_ = ck_live_;
  switch (begin) {
    case SweepStage::kWordAccept:
      // Unfused word-accept blocks read the shared column tables; the fused
      // [wa, wp] body builds its own per-column snapshot instead.
      if (len == 1) BuildColArena(run);
      break;
    case SweepStage::kWordPropose:
      // Post-acceptance column counts: patched in place at the word-accept
      // barrier, or rebuilt from z on the restore path (where z is already
      // post-acceptance).
      if (!grid_.col_filled) BuildColArena(run);
      BuildColAliases(run);
      BuildRowArena(run);  // the span's doc-accept half reads rows
      break;
    case SweepStage::kDocAccept:
      // The fused [da, dp] body counts its whole rows on the fly.
      if (len == 1) BuildRowArena(run);
      break;
    default:
      break;
  }
}

void WarpLdaSampler::EnsureColArenaGeometry() {
  if (col_counts_.ready) return;
  std::vector<uint32_t> lengths(corpus_->num_words());
  std::vector<uint32_t> hints(corpus_->num_words());
  for (WordId w = 0; w < corpus_->num_words(); ++w) {
    lengths[w] = static_cast<uint32_t>(matrix_.col_data(w).size());
    hints[w] = std::min<uint32_t>(config_.num_topics, 2 * lengths[w]);
  }
  col_counts_.AllocateFromHints(hints);
  col_counts_.SplitRanges(lengths, kBarrierTasks);
}

void WarpLdaSampler::EnsureRowArenaGeometry() {
  if (row_counts_.ready) return;
  std::vector<uint32_t> lengths(corpus_->num_docs());
  std::vector<uint32_t> hints(corpus_->num_docs());
  for (DocId d = 0; d < corpus_->num_docs(); ++d) {
    lengths[d] = matrix_.row(d).size();
    hints[d] = std::min<uint32_t>(config_.num_topics, 2 * lengths[d]);
  }
  row_counts_.AllocateFromHints(hints);
  row_counts_.SplitRanges(lengths, kBarrierTasks);
}

void WarpLdaSampler::BuildColArena(const TaskRunner& run) {
  EnsureColArenaGeometry();
  const std::vector<uint32_t>& ranges = col_counts_.ranges;
  run(static_cast<uint32_t>(ranges.size() - 1), [&](uint32_t, uint32_t t) {
    FillColArenaRange(ranges[t], ranges[t + 1]);
  });
  grid_.col_filled = true;
}

void WarpLdaSampler::FillColArenaRange(uint32_t lo, uint32_t hi) {
  col_counts_.ClearItems(lo, hi);
  for (WordId w = lo; w < hi; ++w) {
    FlatCounts counts = col_counts_.view(w);
    for (TopicId topic : matrix_.col_data(w)) counts.Inc(topic);
  }
}

void WarpLdaSampler::BuildRowArena(const TaskRunner& run) {
  EnsureRowArenaGeometry();
  // Row tables are only ever read by doc-accept block bodies, so a
  // SetLocalBlocks filter restricts the fill to the rows owned blocks
  // actually visit (unlike the column arena, which the word-accept barrier
  // patches for every block's moves and must stay complete).
  const std::vector<char> needed = LocalItemFilter(/*word_axis=*/false);
  const std::vector<uint32_t>& ranges = row_counts_.ranges;
  run(static_cast<uint32_t>(ranges.size() - 1), [&](uint32_t, uint32_t t) {
    FillRowArenaRange(ranges[t], ranges[t + 1], needed);
  });
}

void WarpLdaSampler::FillRowArenaRange(uint32_t lo, uint32_t hi,
                                       const std::vector<char>& needed) {
  row_counts_.ClearItems(lo, hi);
  for (DocId d = lo; d < hi; ++d) {
    if (!needed.empty() && !needed[d]) continue;
    auto row = matrix_.row(d);
    FlatCounts counts = row_counts_.view(d);
    for (uint32_t i = 0; i < row.size(); ++i) counts.Inc(row[i]);
  }
}

void WarpLdaSampler::BuildColAliases(const TaskRunner& run) {
  col_alias_.resize(corpus_->num_words());
  // One order-stable build per column per sweep — not per (block × column),
  // each task on its worker's entry scratch. Under a SetLocalBlocks filter
  // only the columns an owned block will read are built: a distributed
  // worker skips the (V − V/P) tables whose propose work happens in other
  // processes.
  const std::vector<char> needed = LocalItemFilter(/*word_axis=*/true);
  const std::vector<uint32_t>& ranges = col_counts_.ranges;
  run(static_cast<uint32_t>(ranges.size() - 1),
      [&](uint32_t worker, uint32_t t) {
        if (worker >= scratch_.size()) {
          throw std::invalid_argument(
              "WarpLdaSampler: barrier task on worker " +
              std::to_string(worker) + "; ReserveWorkers() first");
        }
        BuildColAliasRange(ranges[t], ranges[t + 1], needed, scratch_[worker]);
      });
}

void WarpLdaSampler::BuildColAliasRange(uint32_t lo, uint32_t hi,
                                        const std::vector<char>& needed,
                                        ThreadScratch& s) {
  for (WordId w = lo; w < hi; ++w) {
    if (matrix_.col_data(w).empty()) continue;
    if (!needed.empty() && !needed[w]) continue;
    const FlatCounts counts = col_counts_.view(w);
    BuildAliasInto(s, counts, col_alias_[w]);
  }
}

void WarpLdaSampler::RunBlock(uint32_t doc_block, uint32_t word_block,
                              uint32_t worker) {
  RunBlockInto(doc_block, word_block, worker, /*committed=*/nullptr);
}

void WarpLdaSampler::RunBlockInto(uint32_t doc_block, uint32_t word_block,
                                  uint32_t worker,
                                  std::vector<StagedMove>* committed) {
  if (!grid_.open) {
    throw std::logic_error("WarpLdaSampler: RunBlock() without BeginSweep()");
  }
  if (grid_.stage == SweepStage::kDone) {
    throw std::logic_error(
        "WarpLdaSampler: RunBlock() after all stages completed");
  }
  if (doc_block >= grid_.plan.num_doc_blocks ||
      word_block >= grid_.plan.num_word_blocks) {
    throw std::invalid_argument("WarpLdaSampler: block index out of range");
  }
  if (worker >= scratch_.size()) {
    throw std::invalid_argument(
        "WarpLdaSampler: worker id " + std::to_string(worker) +
        " out of range; ReserveWorkers() before the sweep");
  }
  const size_t block =
      static_cast<size_t>(doc_block) * grid_.plan.num_word_blocks + word_block;
  char& ran = grid_.block_ran[block];
  if (ran) {
    throw std::logic_error(std::string("WarpLdaSampler: block ran twice in ") +
                           ToString(grid_.stage) + " stage");
  }
  ran = 1;
  ThreadScratch& scratch = scratch_[worker];
  std::vector<StagedMove>& moves = grid_.block_moves[block];
  const int len = SpanLength(grid_.stage);
  switch (grid_.stage) {
    case SweepStage::kWordAccept:
      if (len == 2) {
        RunFusedWordPart(doc_block, word_block, scratch, committed);
      } else {
        RunWordAcceptPart(doc_block, word_block, scratch, moves);
      }
      break;
    case SweepStage::kWordPropose:
      RunWordProposePart(doc_block, word_block);
      // [wp, da]: this block's doc-accept reads exactly the proposals its
      // word-propose half just wrote (the block's token set is the same on
      // both axes), so no barrier is needed between them.
      RunDocAcceptPart(doc_block, word_block, scratch, moves);
      break;
    case SweepStage::kDocAccept:
      if (len == 2) {
        RunFusedDocPart(doc_block, word_block, scratch, committed);
      } else {
        RunDocAcceptPart(doc_block, word_block, scratch, moves);
      }
      break;
    case SweepStage::kDocPropose:
      RunDocProposePart(doc_block, word_block);
      break;
    case SweepStage::kDone:
      break;  // unreachable, checked above
  }
}

template <typename Counts>
void WarpLdaSampler::AcceptSegment(ThreadScratch& s, const Counts& counts,
                                   const TokenPositions& positions,
                                   const std::vector<double>* prior_vec,
                                   double prior, uint64_t stream_base,
                                   uint32_t move_item,
                                   std::vector<StagedMove>& moves) {
  const uint32_t m = std::max(1u, config_.mh_steps);
  const uint32_t n = positions.size;
  if (tracer_ != nullptr || std::is_same_v<Counts, HashCount>) {
    // The scalar chain, token by token. Trace runs need it: the batched path
    // elides the per-proposal slot probes the cache tracer replays. So do
    // the whole-item spans' private hash tables: there the gather pass's
    // 1+M probes per token (self-proposals included) cost more than the
    // vector ratio saves, while over a flat arena they are plain loads.
    for (uint32_t i = 0; i < n; ++i) {
      const uint64_t pos = positions[i];
      const TopicId before = matrix_.entry_data(pos);
      const TopicId after =
          AcceptChain(s, counts, before, &proposals_[pos * m], m, prior_vec,
                      prior, stream_base, pos);
      if (after != before) moves.push_back({pos, move_item, before, after});
    }
    return;
  }
  if (s.bat_ca.size() < kAcceptChunk) {
    s.bat_ca.resize(kAcceptChunk);
    s.bat_cb.resize(kAcceptChunk);
    s.bat_cur.resize(kAcceptChunk);
    s.bat_ratio.resize(kAcceptChunk);
    s.bat_ge1.resize(kAcceptChunk);
    s.bat_seeded.resize(kAcceptChunk);
    s.bat_rng.resize(kAcceptChunk);
  }
  const size_t steps_cap = static_cast<size_t>(m) * kAcceptChunk;
  if (s.bat_ta.size() < steps_cap) {
    s.bat_ta.resize(steps_cap);
    s.bat_tb.resize(steps_cap);
    s.bat_topic.resize(steps_cap);
  }
  int64_t* ck_delta = s.ck_delta.data();
  for (uint32_t chunk = 0; chunk < n; chunk += kAcceptChunk) {
    const uint32_t nb = std::min(kAcceptChunk, n - chunk);
    // Gather pass: every operand of every chain step, SoA per step. The
    // count table is a delayed snapshot — immutable for the whole stage —
    // so step j's operands can be fetched before steps 0..j-1 resolve.
    for (uint32_t t = 0; t < nb; ++t) {
      const uint64_t pos = positions[chunk + t];
      const TopicId cur = matrix_.entry_data(pos);
      s.bat_cur[t] = cur;
      s.bat_ca[t] = counts.Get(cur) + (prior_vec ? (*prior_vec)[cur] : prior);
      s.bat_cb[t] = ck_fixed_[cur] + beta_bar_;
      s.bat_seeded[t] = 0;
      const TopicId* props = &proposals_[pos * m];
      for (uint32_t j = 0; j < m; ++j) {
        const TopicId p = props[j];
        s.bat_topic[j * kAcceptChunk + t] = p;
        s.bat_ta[j * kAcceptChunk + t] =
            counts.Get(p) + (prior_vec ? (*prior_vec)[p] : prior);
        s.bat_tb[j * kAcceptChunk + t] = ck_fixed_[p] + beta_bar_;
      }
    }
    s.obs_tokens += nb;
    // Chain steps: vectorized ratio compute over the whole chunk, then a
    // sequential resolve that reproduces the scalar chain exactly — same
    // self-proposal skips, same lazy per-token stream seeding, same
    // Bernoulli consumption, and on accept the running (a, b) switch to the
    // target's gathered operands (legal because the snapshot is immutable).
    for (uint32_t j = 0; j < m; ++j) {
      const double* a_t = &s.bat_ta[static_cast<size_t>(j) * kAcceptChunk];
      const double* b_t = &s.bat_tb[static_cast<size_t>(j) * kAcceptChunk];
      const uint32_t* topic =
          &s.bat_topic[static_cast<size_t>(j) * kAcceptChunk];
      simd::ComputeAcceptRatios(nb, a_t, b_t, s.bat_ca.data(),
                                s.bat_cb.data(), s.bat_ratio.data(),
                                s.bat_ge1.data());
      for (uint32_t t = 0; t < nb; ++t) {
        const TopicId p = topic[t];
        if (p == s.bat_cur[t]) continue;
        ++s.obs_proposals;
        bool take = s.bat_ge1[t] != 0;
        if (!take) {
          if (!s.bat_seeded[t]) {
            s.bat_rng[t] =
                StreamRng(stream_base, kTagAccept, positions[chunk + t]);
            s.bat_seeded[t] = 1;
          }
          take = s.bat_rng[t].NextBernoulli(s.bat_ratio[t]);
        }
        if (take) {
          ++s.obs_accepts;
          --ck_delta[s.bat_cur[t]];
          ++ck_delta[p];
          s.bat_cur[t] = p;
          s.bat_ca[t] = a_t[t];
          s.bat_cb[t] = b_t[t];
        }
      }
    }
    for (uint32_t t = 0; t < nb; ++t) {
      const uint64_t pos = positions[chunk + t];
      const TopicId before = matrix_.entry_data(pos);
      const TopicId after = s.bat_cur[t];
      if (after != before) moves.push_back({pos, move_item, before, after});
    }
  }
}

void WarpLdaSampler::RunWordAcceptPart(uint32_t doc_block,
                                       uint32_t word_block, ThreadScratch& s,
                                       std::vector<StagedMove>& moves) {
  const double beta = config_.beta;
  const BlockIndex& ix =
      grid_.word_ix[static_cast<size_t>(doc_block) *
                        grid_.plan.num_word_blocks +
                    word_block];
  for (const BlockSegment& seg : ix.segments) {
    // Shared pre-stage column table from the arena (immutable this stage).
    const FlatCounts counts = col_counts_.view(seg.item);
    AcceptSegment(s, counts, Positions(ix, seg, /*word_axis=*/true), nullptr,
                  beta, grid_.base_word, seg.item, moves);
  }
}

void WarpLdaSampler::RunFusedWordPart(uint32_t doc_block, uint32_t word_block,
                                      ThreadScratch& s,
                                      std::vector<StagedMove>* committed) {
  // [wa, wp] span (cols_ok): each segment is a whole column that no other
  // block reads this span. Count it on the fly, accept, commit the moves to
  // z in place while patching the private snapshot with them, then build
  // the column's alias table and draw — one scope per column, as §4.4 has
  // it, with no shared arena, staged moves or barrier in between.
  const uint32_t k_topics = config_.num_topics;
  const double beta = config_.beta;
  const BlockIndex& ix =
      grid_.word_ix[static_cast<size_t>(doc_block) *
                        grid_.plan.num_word_blocks +
                    word_block];
  for (const BlockSegment& seg : ix.segments) {
    const TokenPositions positions = Positions(ix, seg, /*word_axis=*/true);
    const std::span<TopicId> z = matrix_.col_data(seg.item);
    BuildCounts(s.counts, z);
    Trace(reinterpret_cast<const void*>(s.counts.slots().data()),
          s.counts.capacity() * static_cast<uint32_t>(sizeof(HashCount::Entry)),
          /*random=*/true, /*write=*/true);
    s.segment_moves.clear();
    AcceptSegment(s, s.counts, positions, nullptr, beta, grid_.base_word,
                  seg.item, s.segment_moves);
    for (const StagedMove& mv : s.segment_moves) {
      z[mv.pos - positions.first] = mv.to;
      s.counts.Dec(mv.from);
      s.counts.Inc(mv.to);
    }
    if (committed != nullptr) {
      committed->insert(committed->end(), s.segment_moves.begin(),
                        s.segment_moves.end());
    }
    BuildAliasInto(s, s.counts, s.alias);
    const double lw = static_cast<double>(z.size());
    DrawWordProposals(positions, s.alias, lw / (lw + beta * k_topics));
    TraceScopeEnd();
  }
}

void WarpLdaSampler::RunWordProposePart(uint32_t doc_block,
                                        uint32_t word_block) {
  const uint32_t k_topics = config_.num_topics;
  const double beta = config_.beta;
  const BlockIndex& ix =
      grid_.word_ix[static_cast<size_t>(doc_block) *
                        grid_.plan.num_word_blocks +
                    word_block];
  for (const BlockSegment& seg : ix.segments) {
    // Post-acceptance alias table, built once per column at the span entry.
    const double lw = static_cast<double>(matrix_.col_size(seg.item));
    DrawWordProposals(Positions(ix, seg, /*word_axis=*/true),
                      col_alias_[seg.item], lw / (lw + beta * k_topics));
  }
}

void WarpLdaSampler::RunDocAcceptPart(uint32_t doc_block, uint32_t word_block,
                                      ThreadScratch& s,
                                      std::vector<StagedMove>& moves) {
  const std::vector<double>* alpha_vec =
      config_.alpha_vector.empty() ? nullptr : &config_.alpha_vector;
  const BlockIndex& ix =
      grid_.doc_ix[static_cast<size_t>(doc_block) *
                       grid_.plan.num_word_blocks +
                   word_block];
  for (const BlockSegment& seg : ix.segments) {
    const FlatCounts counts = row_counts_.view(seg.item);
    AcceptSegment(s, counts, Positions(ix, seg, /*word_axis=*/false),
                  alpha_vec, config_.alpha, grid_.base_doc, seg.item, moves);
  }
}

void WarpLdaSampler::RunFusedDocPart(uint32_t doc_block, uint32_t word_block,
                                     ThreadScratch& s,
                                     std::vector<StagedMove>* committed) {
  // [da, dp] span (rows_ok): each segment is a whole row that no other block
  // reads this span, so it gets the whole-column treatment of
  // RunFusedWordPart — count on the fly, accept, commit in place, then
  // position the row's proposals into its committed topics.
  const std::vector<double>* alpha_vec =
      config_.alpha_vector.empty() ? nullptr : &config_.alpha_vector;
  const BlockIndex& ix =
      grid_.doc_ix[static_cast<size_t>(doc_block) *
                       grid_.plan.num_word_blocks +
                   word_block];
  for (const BlockSegment& seg : ix.segments) {
    const TokenPositions positions = Positions(ix, seg, /*word_axis=*/false);
    const SparseMatrix<TopicId>::RowView row = matrix_.row(seg.item);
    BuildCounts(s.counts, row);
    Trace(reinterpret_cast<const void*>(s.counts.slots().data()),
          s.counts.capacity() * static_cast<uint32_t>(sizeof(HashCount::Entry)),
          /*random=*/true, /*write=*/true);
    s.segment_moves.clear();
    AcceptSegment(s, s.counts, positions, alpha_vec, config_.alpha,
                  grid_.base_doc, seg.item, s.segment_moves);
    for (const StagedMove& mv : s.segment_moves) {
      matrix_.entry_data(mv.pos) = mv.to;
    }
    if (committed != nullptr) {
      committed->insert(committed->end(), s.segment_moves.begin(),
                        s.segment_moves.end());
    }
    DrawDocProposals(grid_.base_doc, positions, row);
    TraceScopeEnd();
  }
}

void WarpLdaSampler::RunDocProposePart(uint32_t doc_block,
                                       uint32_t word_block) {
  const BlockIndex& ix =
      grid_.doc_ix[static_cast<size_t>(doc_block) *
                       grid_.plan.num_word_blocks +
                   word_block];
  for (const BlockSegment& seg : ix.segments) {
    // Positioning reads the whole row's post-barrier topics; this block
    // draws only for its own tokens.
    DrawDocProposals(grid_.base_doc, Positions(ix, seg, /*word_axis=*/false),
                     matrix_.row(seg.item));
  }
}

void WarpLdaSampler::ApplyStagedMoves(bool patch_col_counts,
                                      const TaskRunner& run) {
  // O(moved tokens), not O(all tokens): each stage's accepted moves are the
  // only z writes. One task per word block applies its blocks' moves — a
  // column lies in one word block, so no two tasks patch one column table —
  // and one task per topic range folds the per-worker ck-delta partitions,
  // the once-per-barrier reduction that replaces a shared (contended) delta
  // vector. Every position moves at most once per stage, so any task
  // interleaving folds to the same state.
  const uint32_t num_wb = grid_.plan.num_word_blocks;
  const uint32_t k_topics = config_.num_topics;
  const uint32_t fold_tasks = (k_topics + kFoldTopics - 1) / kFoldTopics;
  run(num_wb + fold_tasks, [&](uint32_t, uint32_t t) {
    if (t < num_wb) {
      ApplyMovesRange(t, patch_col_counts);
    } else {
      const uint32_t lo = (t - num_wb) * kFoldTopics;
      FoldDeltaRange(lo, std::min(k_topics, lo + kFoldTopics));
    }
  });
}

void WarpLdaSampler::ApplyMovesRange(uint32_t word_block,
                                     bool patch_col_counts) {
  const uint32_t num_wb = grid_.plan.num_word_blocks;
  for (uint32_t db = 0; db < grid_.plan.num_doc_blocks; ++db) {
    std::vector<StagedMove>& moves =
        grid_.block_moves[static_cast<size_t>(db) * num_wb + word_block];
    for (const StagedMove& mv : moves) {
      matrix_.entry_data(mv.pos) = mv.to;
      if (patch_col_counts) {
        FlatCounts counts = col_counts_.view(mv.item);
        counts.Dec(mv.from);
        counts.Inc(mv.to);
      }
    }
    moves.clear();
  }
}

void WarpLdaSampler::FoldDeltaRange(uint32_t lo, uint32_t hi) {
  for (ThreadScratch& s : scratch_) {
    for (uint32_t k = lo; k < hi; ++k) {
      ck_live_[k] += s.ck_delta[k];
      s.ck_delta[k] = 0;
    }
  }
}

void WarpLdaSampler::EndStage(const TaskRunner& run) {
  if (!grid_.open) {
    throw std::logic_error("WarpLdaSampler: EndStage() without BeginSweep()");
  }
  if (grid_.stage == SweepStage::kDone) {
    throw std::logic_error(
        "WarpLdaSampler: EndStage() after all stages completed");
  }
  size_t missing = 0;
  for (char ran : grid_.block_ran) missing += ran ? 0 : 1;
  if (missing > 0) {
    throw std::logic_error(
        "WarpLdaSampler: EndStage() in " + std::string(ToString(grid_.stage)) +
        " stage with " + std::to_string(missing) + " of " +
        std::to_string(grid_.block_ran.size()) + " blocks not run");
  }
  const SweepStage begin = grid_.stage;
  const int len = SpanLength(begin);
  if (begin != SweepStage::kDocPropose) {  // every other span accepts
    // Patch the shared column tables in place only when the next span's
    // alias builds will read them (an unfused word-accept feeding
    // word-propose); everywhere else the moves only touch z.
    ApplyStagedMoves(
        /*patch_col_counts=*/begin == SweepStage::kWordAccept && len == 1,
        run);
  }
  grid_.stage = static_cast<SweepStage>(static_cast<int>(begin) + len);
  std::fill(grid_.block_ran.begin(), grid_.block_ran.end(), 0);
  if (grid_.stage != SweepStage::kDone) EnterSpan(grid_.stage, run);
  FlushScratchMetrics();  // workers are quiescent at the barrier
}

void WarpLdaSampler::AbortSweep() {
  if (!grid_.open) return;
  // Discard the aborted stage's staged moves and unfolded deltas; the live
  // state is whatever the last completed barrier applied, plus the segments
  // an aborted whole-item span already committed in place. A barrier whose
  // tasks threw may have applied only some moves, or folded deltas whose
  // moves it did not apply, so c_k is recounted from z to keep the two
  // consistent. Pending proposals may be stale — callers recover by running
  // a fresh full sweep.
  for (auto& s : scratch_) {
    std::fill(s.ck_delta.begin(), s.ck_delta.end(), 0);
  }
  for (auto& moves : grid_.block_moves) moves.clear();
  std::fill(ck_live_.begin(), ck_live_.end(), 0);
  for (uint64_t e = 0; e < matrix_.num_entries(); ++e) {
    ++ck_live_[matrix_.entry_data(e)];
  }
  grid_.stage = SweepStage::kDone;
  grid_.open = false;
}

void WarpLdaSampler::EndSweep() {
  if (!grid_.open) {
    throw std::logic_error("WarpLdaSampler: EndSweep() without BeginSweep()");
  }
  if (grid_.stage != SweepStage::kDone) {
    throw std::logic_error(
        std::string("WarpLdaSampler: EndSweep() while still in ") +
        ToString(grid_.stage) + " stage");
  }
  grid_.open = false;
}

bool WarpLdaSampler::CaptureSweepState(SweepCheckpoint* out) const {
  if (corpus_ == nullptr) return false;
  if (grid_.open) {
    // Only quiescent points are capturable: at a barrier every worker's
    // staged moves are applied and every ck-delta partition is folded (and
    // zeroed), so the live arrays below are the *whole* state. Mid-stage
    // they are not, and a checkpoint here would silently drop work.
    for (char ran : grid_.block_ran) {
      if (ran) return false;
    }
  }
  out->config = config_;
  // The sampler treats mh_steps == 0 as 1 everywhere; normalize so the
  // checkpoint's proposal count is self-consistent under validation.
  out->config.mh_steps = std::max(1u, config_.mh_steps);
  // An open sweep whose stages all completed (EndSweep still pending) is
  // state-identical to "between sweeps": everything is applied.
  const bool mid_sweep = grid_.open && grid_.stage != SweepStage::kDone;
  out->next_stage = mid_sweep ? grid_.stage : SweepStage::kWordAccept;
  out->plan = mid_sweep ? grid_.plan : SweepPlan::Trivial();
  out->phase_epoch = phase_epoch_;
  out->base_word = grid_.base_word;
  out->base_doc = grid_.base_doc;
  out->ck_fixed = ck_fixed_;
  out->assignments.resize(matrix_.num_entries());
  for (uint64_t e = 0; e < matrix_.num_entries(); ++e) {
    out->assignments[e] = matrix_.entry_data(e);  // CSC entry order
  }
  out->proposals = proposals_;
  return true;
}

bool WarpLdaSampler::RestoreSweepState(const SweepCheckpoint& state,
                                       std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = "WarpLdaSampler: " + message;
    return false;
  };
  if (corpus_ == nullptr) return fail("Init() must precede restore");
  if (grid_.open) return fail("restore during an active grid sweep");
  // Identity parameters must match the Init() config exactly — they shape
  // the RNG streams and the proposal layout, so a mismatch could not resume
  // the same trajectory. Priors are taken *from* the checkpoint (they drift
  // under hyper-parameter optimization).
  if (state.config.num_topics != config_.num_topics) {
    return fail("checkpoint has " + std::to_string(state.config.num_topics) +
                " topics, sampler has " + std::to_string(config_.num_topics));
  }
  if (state.config.mh_steps != std::max(1u, config_.mh_steps)) {
    return fail("checkpoint mh_steps " +
                std::to_string(state.config.mh_steps) +
                " does not match the sampler's");
  }
  if (state.config.seed != config_.seed) {
    return fail("checkpoint seed does not match the sampler's");
  }
  if (state.config.alpha_vector != config_.alpha_vector) {
    return fail("checkpoint asymmetric-prior vector does not match");
  }
  const uint64_t n = matrix_.num_entries();
  const uint64_t m = std::max(1u, config_.mh_steps);
  if (state.assignments.size() != n) {
    return fail("checkpoint token count " +
                std::to_string(state.assignments.size()) +
                " does not match the corpus (" + std::to_string(n) + ")");
  }
  if (state.proposals.size() != n * m) {
    return fail("checkpoint proposal count does not match");
  }
  if (state.ck_fixed.size() != config_.num_topics) {
    return fail("checkpoint ck snapshot size does not match");
  }
  for (TopicId z : state.assignments) {
    if (z >= config_.num_topics) return fail("assignment out of range");
  }
  for (TopicId z : state.proposals) {
    if (z >= config_.num_topics) return fail("proposal out of range");
  }
  const bool mid_sweep = state.next_stage != SweepStage::kWordAccept;
  if (mid_sweep) {
    std::string plan_error;
    if (!state.plan.Validate(corpus_->num_docs(), corpus_->num_words(),
                             &plan_error)) {
      return fail("checkpoint sweep plan does not fit the corpus: " +
                  plan_error);
    }
    if (!local_blocks_.empty() &&
        local_blocks_.size() != static_cast<size_t>(
                                    state.plan.num_doc_blocks) *
                                    state.plan.num_word_blocks) {
      return fail("SetLocalBlocks mask sized for a different plan");
    }
  }

  // Vector-aware prior refresh (SetPriors would overwrite the asymmetric ᾱ
  // with the symmetric product).
  config_.alpha = state.config.alpha;
  config_.beta = state.config.beta;
  alpha_bar_ = config_.alpha_bar();
  beta_bar_ = config_.beta * corpus_->num_words();
  std::fill(ck_live_.begin(), ck_live_.end(), 0);
  for (uint64_t e = 0; e < n; ++e) {
    matrix_.entry_data(e) = state.assignments[e];
    ++ck_live_[state.assignments[e]];
  }
  proposals_ = state.proposals;
  ck_fixed_ = state.ck_fixed;
  phase_epoch_ = state.phase_epoch;
  grid_.base_word = state.base_word;
  grid_.base_doc = state.base_doc;
  for (auto& s : scratch_) {
    std::fill(s.ck_delta.begin(), s.ck_delta.end(), 0);
  }
  for (auto& moves : grid_.block_moves) moves.clear();
  if (!mid_sweep) {
    // Between sweeps: proposals are the pending doc proposals the next word
    // phase consumes; nothing else to reopen.
    grid_.stage = SweepStage::kDone;
    grid_.open = false;
    return true;
  }
  // Reopen the sweep at the checkpointed barrier: rebuild the plan indices
  // and the span state EnterSpan would have prepared there. The snapshot
  // refresh inside EnterSpan is a no-op on this path — at an accept span's
  // entry barrier the checkpointed ck_fixed equals the fold state ck_live
  // was just rebuilt to — and the arenas are rebuilt from the restored z,
  // which is exactly the z the capturing run's arenas reflected.
  BuildGridIndices(state.plan);
  const size_t num_blocks = static_cast<size_t>(state.plan.num_doc_blocks) *
                            state.plan.num_word_blocks;
  grid_.block_moves.resize(num_blocks);
  grid_.block_ran.assign(num_blocks, 0);
  grid_.col_filled = false;
  grid_.stage = state.next_stage;
  grid_.open = true;
  if (state.next_stage != SweepStage::kDocPropose) {
    EnterSpan(state.next_stage, RunInline);
  }
  return true;
}

// --------------------------------------------------------------------------
// Distributed execution: block deltas. Within a stage, a block's entire
// externally visible effect is (moves, own tokens' proposal slots) — its z
// writes are staged until the barrier or, in a whole-item span, committed to
// items no other block reads, and every other write lands in per-worker
// scratch. Capturing those two pieces and replaying them in a
// peer process that holds the same pre-stage state makes the peer's
// EndStage() fold bit-identical to having run the block locally: staged
// moves land in scratch (with their ck-delta net effect, intermediates of
// an MH chain cancel), and proposals scatter into the very slots the block
// would have written. Proposal order is the plan-derived segment position
// order, which every process computes identically from (plan, corpus).

bool WarpLdaSampler::SpanWritesProposals(SweepStage begin,
                                         bool* word_axis) const {
  switch (begin) {
    case SweepStage::kWordAccept:
      *word_axis = true;
      return SpanLength(begin) == 2;  // fused [wa, wp] draws word proposals
    case SweepStage::kWordPropose:
      // Word proposals always; a fused [wp, da] span's doc-accept half only
      // stages moves, so the axis stays word.
      *word_axis = true;
      return true;
    case SweepStage::kDocAccept:
      *word_axis = false;
      return SpanLength(begin) == 2;  // fused [da, dp] draws doc proposals
    case SweepStage::kDocPropose:
      *word_axis = false;
      return true;
    default:
      *word_axis = false;
      return false;
  }
}

std::vector<char> WarpLdaSampler::LocalItemFilter(bool word_axis) const {
  if (local_blocks_.empty()) return {};
  const auto& indices = word_axis ? grid_.word_ix : grid_.doc_ix;
  std::vector<char> needed(
      word_axis ? corpus_->num_words() : corpus_->num_docs(), 0);
  for (size_t b = 0; b < indices.size() && b < local_blocks_.size(); ++b) {
    if (!local_blocks_[b]) continue;
    for (const BlockSegment& seg : indices[b].segments) {
      needed[seg.item] = 1;
    }
  }
  return needed;
}

void WarpLdaSampler::SetLocalBlocks(const std::vector<char>& owned) {
  local_blocks_ = owned;
}

bool WarpLdaSampler::RunBlockCaptured(uint32_t doc_block, uint32_t word_block,
                                      uint32_t worker, GridBlockDelta* out) {
  if (!grid_.open || grid_.stage == SweepStage::kDone) {
    throw std::logic_error(
        "WarpLdaSampler: RunBlockCaptured() outside an active stage");
  }
  if (worker >= scratch_.size()) {
    throw std::invalid_argument(
        "WarpLdaSampler: worker id out of range; ReserveWorkers() first");
  }
  const SweepStage begin = grid_.stage;
  const size_t block =
      static_cast<size_t>(doc_block) * grid_.plan.num_word_blocks + word_block;
  // A whole-item span reports the moves it commits in place; any other span
  // stages them in the block's list, which (the block ran once this span)
  // holds exactly its moves. Only one of the two is non-empty.
  out->moves.clear();
  RunBlockInto(doc_block, word_block, worker, &out->moves);
  const std::vector<StagedMove>& staged = grid_.block_moves[block];
  out->moves.insert(out->moves.end(), staged.begin(), staged.end());
  out->stage = begin;
  out->doc_block = doc_block;
  out->word_block = word_block;
  out->proposals.clear();
  bool word_axis = false;
  if (SpanWritesProposals(begin, &word_axis)) {
    const BlockIndex& ix = (word_axis ? grid_.word_ix : grid_.doc_ix)[block];
    const uint32_t m = std::max(1u, config_.mh_steps);
    out->proposals.reserve(ix.tokens * m);
    for (const BlockSegment& seg : ix.segments) {
      const TokenPositions positions = Positions(ix, seg, word_axis);
      for (uint32_t i = 0; i < positions.size; ++i) {
        const TopicId* slot = &proposals_[positions[i] * m];
        out->proposals.insert(out->proposals.end(), slot, slot + m);
      }
    }
  }
  return true;
}

bool WarpLdaSampler::ApplyBlockDelta(const GridBlockDelta& delta,
                                     std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = "WarpLdaSampler: " + message;
    return false;
  };
  if (!grid_.open || grid_.stage == SweepStage::kDone) {
    return fail("ApplyBlockDelta() outside an active stage");
  }
  if (delta.stage != grid_.stage) {
    return fail(std::string("delta captured in ") + ToString(delta.stage) +
                " applied in " + ToString(grid_.stage) + " stage");
  }
  if (delta.doc_block >= grid_.plan.num_doc_blocks ||
      delta.word_block >= grid_.plan.num_word_blocks) {
    return fail("delta block index out of range");
  }
  const size_t block =
      static_cast<size_t>(delta.doc_block) * grid_.plan.num_word_blocks +
      delta.word_block;
  char& ran = grid_.block_ran[block];
  // Duplicate-frame idempotence: a redelivered delta for a block this stage
  // already ran (locally or injected) is acknowledged without reapplying —
  // applying twice would double its moves and ck updates.
  if (ran) return true;

  // Validate the whole delta before mutating anything, so a malformed frame
  // leaves the sampler untouched.
  const uint32_t k_topics = config_.num_topics;
  const uint64_t num_entries = matrix_.num_entries();
  // Moves carry the item AcceptSegment tagged them with: the column for the
  // word-accept stage (the barrier may patch the column arena through it),
  // the row for spans whose accept half runs on the doc axis.
  const bool word_items = delta.stage == SweepStage::kWordAccept;
  if (delta.stage == SweepStage::kDocPropose && !delta.moves.empty()) {
    return fail("delta stages moves in a pure propose span");
  }
  for (const GridBlockDelta::Move& mv : delta.moves) {
    if (mv.pos >= num_entries) return fail("delta move position out of range");
    if (mv.from >= k_topics || mv.to >= k_topics) {
      return fail("delta move topic out of range");
    }
    // z is stable for the whole span, so `from` must match the current
    // assignment — anything else means the peer ran from different state.
    if (matrix_.entry_data(mv.pos) != mv.from) {
      return fail("delta move disagrees with the current assignment");
    }
  }
  // AcceptSegment emits a block's moves in its index order, each tagged
  // with its segment's item. The barrier applies each word block's moves
  // in its own task, so a move outside its block could race with another
  // task's writes: check the moves follow the block's index, in one pass.
  if (!delta.moves.empty()) {
    const BlockIndex& mix = (word_items ? grid_.word_ix : grid_.doc_ix)[block];
    size_t next = 0;
    for (const BlockSegment& seg : mix.segments) {
      const TokenPositions positions = Positions(mix, seg, word_items);
      for (uint32_t p = 0; p < positions.size && next < delta.moves.size();
           ++p) {
        if (delta.moves[next].pos != positions[p]) continue;
        if (delta.moves[next].item != seg.item) {
          return fail("delta move item is not its token's segment");
        }
        ++next;
      }
    }
    if (next != delta.moves.size()) {
      return fail("delta moves do not follow the block's token order");
    }
  }
  bool word_axis = false;
  const bool has_proposals = SpanWritesProposals(delta.stage, &word_axis);
  const BlockIndex& ix = (word_axis ? grid_.word_ix : grid_.doc_ix)[block];
  const uint32_t m = std::max(1u, config_.mh_steps);
  const size_t expected_proposals =
      has_proposals ? ix.tokens * static_cast<size_t>(m) : 0;
  if (delta.proposals.size() != expected_proposals) {
    return fail("delta proposal count " +
                std::to_string(delta.proposals.size()) + " (expected " +
                std::to_string(expected_proposals) + ")");
  }
  for (uint32_t p : delta.proposals) {
    if (p >= k_topics) return fail("delta proposal topic out of range");
  }

  // Injected moves land in the block's own list and their counts in worker
  // 0's ck-delta partition — the same apply and commutative fold EndStage()
  // gives local work (scratch_[0] always exists: Init sizes the pool to at
  // least one).
  std::vector<StagedMove>& moves = grid_.block_moves[block];
  moves.insert(moves.end(), delta.moves.begin(), delta.moves.end());
  ThreadScratch& s = scratch_[0];
  for (const GridBlockDelta::Move& mv : delta.moves) {
    --s.ck_delta[mv.from];
    ++s.ck_delta[mv.to];
  }
  if (has_proposals) {
    const TopicId* next = delta.proposals.data();
    for (const BlockSegment& seg : ix.segments) {
      const TokenPositions positions = Positions(ix, seg, word_axis);
      for (uint32_t i = 0; i < positions.size; ++i, next += m) {
        std::copy(next, next + m, &proposals_[positions[i] * m]);
      }
    }
  }
  ran = 1;
  return true;
}

}  // namespace warplda
