#include "core/warp_lda.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/checkpoint.h"
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

  uint32_t longest = 0;
  for (WordId w = 0; w < corpus.num_words(); ++w) {
    longest = std::max(longest, matrix_.col_size(w));
  }
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    longest = std::max(longest, matrix_.row(d).size());
  }
  dense_size_ = DenseCountsFit(longest) ? k : 0;
  scratch_.assign(1, ThreadScratch());
  scratch_[0].ck_delta.assign(k, 0);
  phase_epoch_ = 0;
  grid_ = GridState();
  reader_index_ = ReaderIndex();

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
  std::shared_ptr<const TopicModel> model = ExportSharedModel();
  if (changed_words != nullptr) {
    if (last_export_ == nullptr) {
      changed_words->resize(model->num_words());
      std::iota(changed_words->begin(), changed_words->end(), 0);
    } else {
      *changed_words = model->ChangedWords(*last_export_);
    }
  }
  last_export_ = model;
  return model;
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

template <typename Topics>
void WarpLdaSampler::BuildCounts(HashCount& counts, const Topics& z) const {
  const uint32_t len = static_cast<uint32_t>(z.size());
  counts.Init(std::min(config_.num_topics, 2 * len));
  for (uint32_t i = 0; i < len; ++i) counts.Inc(z[i]);
  Trace(reinterpret_cast<const void*>(counts.slots().data()),
        counts.capacity() * static_cast<uint32_t>(sizeof(HashCount::Entry)),
        /*random=*/true, /*write=*/true);
}

template <typename Topics>
void WarpLdaSampler::BuildCounts(int32_t* dense, const Topics& z) const {
  const uint32_t len = static_cast<uint32_t>(z.size());
  for (uint32_t i = 0; i < len; ++i) ++dense[z[i]];
  Trace(dense, dense_size_ * static_cast<uint32_t>(sizeof(int32_t)),
        /*random=*/true, /*write=*/true);
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
  // The current topic's two factors, read once and carried across moves:
  // the delayed snapshots do not change within a chain.
  double cur_count =
      counts.Get(current) + (prior_vec ? (*prior_vec)[current] : prior);
  double cur_ck = ck_fixed_[current] + beta_bar_;
  for (uint32_t j = 0; j < m; ++j) {
    TopicId t = props[j];
    if (t == current) continue;
    ++s.obs_proposals;
    Trace(reinterpret_cast<const void*>(counts.SlotAddr(t)),
          sizeof(typename Counts::Entry), /*random=*/true, /*write=*/false);
    const double t_count =
        counts.Get(t) + (prior_vec ? (*prior_vec)[t] : prior);
    const double t_ck = ck_fixed_[t] + beta_bar_;
    // Eq. 7: delayed c_w/c_d and c_k snapshots on both sides.
    double accept = t_count * cur_ck / (cur_count * t_ck);
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
      cur_count = t_count;
      cur_ck = t_ck;
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

void WarpLdaSampler::BuildAliasInto(ThreadScratch& scratch,
                                    const HashCount& counts) {
  // Alg. 2 builds the alias table over the post-acceptance C_wk: q_word ∝
  // C_wk + β as a mixture of this count-weighted table and the uniform β
  // branch. The bin layout decides which topic each alias draw returns, so
  // it is part of the sample: entries are sorted by topic, making the
  // layout a function of the count values alone, not of the slot order
  // the hash table's probing left them in (GoldenTrajectories pins it).
  ++scratch.obs_alias_builds;
  scratch.alias_entries.clear();
  counts.ForEachNonZero([&](uint32_t k, int32_t c) {
    scratch.alias_entries.emplace_back(k, static_cast<double>(c));
  });
  std::sort(scratch.alias_entries.begin(), scratch.alias_entries.end());
  scratch.alias.BuildSparse(scratch.alias_entries, scratch.alias_ws);
}

void WarpLdaSampler::BuildAliasFromDense(ThreadScratch& scratch) {
  // BuildAliasInto's entries, already in topic order.
  ++scratch.obs_alias_builds;
  scratch.alias_entries.clear();
  int32_t* counts = scratch.dense.data();
  for (uint32_t k = 0; k < dense_size_; ++k) {
    if (counts[k] != 0) {
      scratch.alias_entries.emplace_back(k, static_cast<double>(counts[k]));
      counts[k] = 0;
    }
  }
  scratch.alias.BuildSparse(scratch.alias_entries, scratch.alias_ws);
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
    DrawDocProposals(stream_base, ItemPositions(d, /*word_axis=*/false),
                     matrix_.row(d));
  }
}

void WarpLdaSampler::Iterate() { RunSweep(SweepPlan::Trivial()); }

// --------------------------------------------------------------------------
// Grid execution. A sweep is two spans, each a pass over whole items cut
// into the plan's D·W blocks: [word-accept, word-propose] over contiguous
// column ranges, then [doc-accept, doc-propose] over contiguous row ranges
// (BuildGridIndices). A block owns every token of its items, and no other
// block reads them in that span, so it counts each item on the fly, runs
// the item's accept chains against the delayed snapshots, commits the
// accepted z in place and draws the item's proposals from the committed
// values — §4.4's pass over one column or row. Count updates go to the
// worker's ck-delta partition, folded at the EndStage barrier, and every
// token draws from its own RNG stream, so any plan — the 1×1 plan that
// Iterate() runs included — samples identically on any number of workers:
// a block body reads only its own items plus shared *immutable* span state
// (the c_k snapshot), and writes only its own items' z and proposal slots
// plus scratch_[worker] (ParallelExecutor relies on exactly this).
//
// Contiguous ranges keep each block's footprint compact: a word block
// streams one run of the CSC arrays, and a doc block's rows read one
// contiguous sub-run of each column they touch (columns are sorted by row
// id). The plan's item maps do not steer the ranges; only its block counts
// do.

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

void WarpLdaSampler::BeginSweep(const SweepPlan& plan,
                                const TaskRunner& /*run*/) {
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
  grid_.stage = SweepStage::kWordAccept;
  grid_.open = true;
  EnterSpan();
}

namespace {

// Cuts items [0, n) into `parts` contiguous ranges of about equal token
// count, as PartitionStrategy::kDynamic does: range t starts at the first
// item whose preceding tokens reach total·t/parts. `tokens_before(i)` is
// the number of tokens in items [0, i), for i in [0, n].
template <typename TokensBefore>
std::vector<uint32_t> BalancedBounds(uint32_t n, uint32_t parts,
                                     const TokensBefore& tokens_before) {
  std::vector<uint32_t> bounds(parts + 1, n);
  const uint64_t total = tokens_before(n);
  uint32_t lo = 0;
  for (uint32_t t = 0; t < parts; ++t) {
    const uint64_t target = total * t / parts;
    uint32_t hi = n;
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (tokens_before(mid) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    bounds[t] = lo;
  }
  return bounds;
}

}  // namespace

void WarpLdaSampler::BuildGridIndices(const SweepPlan& plan) {
  grid_.plan = plan;
  const uint32_t parts = plan.num_doc_blocks * plan.num_word_blocks;
  grid_.col_bounds =
      BalancedBounds(corpus_->num_words(), parts,
                     [&](uint32_t w) { return matrix_.col_offset(w); });
  grid_.row_bounds =
      BalancedBounds(corpus_->num_docs(), parts,
                     [&](uint32_t d) { return matrix_.row_offset(d); });
}

WarpLdaSampler::TokenPositions WarpLdaSampler::ItemPositions(
    uint32_t item, bool word_axis) const {
  if (word_axis) {
    return {nullptr, matrix_.col_offset(item), matrix_.col_size(item)};
  }
  const std::span<const uint64_t> row = matrix_.row_positions(item);
  return {row.data(), 0, static_cast<uint32_t>(row.size())};
}

std::pair<uint32_t, uint32_t> WarpLdaSampler::BlockItems(
    size_t block, bool word_axis) const {
  const std::vector<uint32_t>& bounds =
      word_axis ? grid_.col_bounds : grid_.row_bounds;
  return {bounds[block], bounds[block + 1]};
}

void WarpLdaSampler::EnterSpan() {
  // A span's accept stage reads the c_k snapshot of its pass boundary.
  ck_fixed_ = ck_live_;
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
  // Allocated on the worker's first block, as its HashCount's slots are.
  // Allocated in Init, the aligned block fragmented the heap for the next
  // sampler a process builds (+3 MiB peak RSS on warpbench k10k-t4).
  if (scratch.dense.size() != dense_size_) {
    scratch.dense.assign(dense_size_, 0);
  }
  if (grid_.stage == SweepStage::kWordAccept) {
    RunWordPart(block, scratch, committed);
  } else {
    RunDocPart(block, scratch, committed);
  }
}

template <typename Counts>
void WarpLdaSampler::AcceptItem(ThreadScratch& s, const Counts& counts,
                                const TokenPositions& positions,
                                const std::vector<double>* prior_vec,
                                double prior, uint64_t stream_base,
                                uint32_t item) {
  const uint32_t m = std::max(1u, config_.mh_steps);
  s.item_moves.clear();
  for (uint32_t i = 0; i < positions.size; ++i) {
    const uint64_t pos = positions[i];
    const TopicId before = matrix_.entry_data(pos);
    const TopicId after =
        AcceptChain(s, counts, before, &proposals_[pos * m], m, prior_vec,
                    prior, stream_base, pos);
    if (after != before) s.item_moves.push_back({pos, item, before, after});
  }
}

void WarpLdaSampler::RunWordPart(size_t block, ThreadScratch& s,
                                 std::vector<StagedMove>* committed) {
  // One scope per column, as §4.4 has it: count it on the fly, accept,
  // commit the moves to z in place while patching the count snapshot with
  // them, then build the column's alias table and draw. The counts live in
  // the worker's dense array or its HashCount, whichever DenseCountsFit()
  // picks; both paths build the same alias table.
  const uint32_t k_topics = config_.num_topics;
  const double beta = config_.beta;
  const auto [lo, hi] = BlockItems(block, /*word_axis=*/true);
  for (WordId w = lo; w < hi; ++w) {
    const std::span<TopicId> z = matrix_.col_data(w);
    if (z.empty()) continue;
    const TokenPositions positions = ItemPositions(w, /*word_axis=*/true);
    if (DenseCountsFit(static_cast<uint32_t>(z.size()))) {
      int32_t* counts = s.dense.data();
      BuildCounts(counts, z);
      AcceptItem(s, DenseCounts{counts}, positions, nullptr, beta,
                 grid_.base_word, w);
      for (const StagedMove& mv : s.item_moves) {
        z[mv.pos - positions.first] = mv.to;
        --counts[mv.from];
        ++counts[mv.to];
      }
      BuildAliasFromDense(s);
    } else {
      BuildCounts(s.counts, z);
      AcceptItem(s, s.counts, positions, nullptr, beta, grid_.base_word, w);
      for (const StagedMove& mv : s.item_moves) {
        z[mv.pos - positions.first] = mv.to;
        s.counts.Dec(mv.from);
        s.counts.Inc(mv.to);
      }
      BuildAliasInto(s, s.counts);
    }
    if (committed != nullptr) {
      committed->insert(committed->end(), s.item_moves.begin(),
                        s.item_moves.end());
    }
    const double lw = static_cast<double>(z.size());
    DrawWordProposals(positions, s.alias, lw / (lw + beta * k_topics));
    TraceScopeEnd();
  }
}

void WarpLdaSampler::RunDocPart(size_t block, ThreadScratch& s,
                                std::vector<StagedMove>* committed) {
  // RunWordPart's scheme per row: count on the fly, accept, commit in
  // place, then position the row's proposals into its committed topics.
  const uint32_t m = std::max(1u, config_.mh_steps);
  const std::vector<double>* alpha_vec =
      config_.alpha_vector.empty() ? nullptr : &config_.alpha_vector;
  const auto [lo, hi] = BlockItems(block, /*word_axis=*/false);
  for (DocId d = lo; d < hi; ++d) {
    // A row's z entries and proposal slots are scattered over the CSC
    // arrays; start fetching the next row's while this one runs.
    if (d + 1 < hi) {
      for (uint64_t pos : matrix_.row_positions(d + 1)) {
        __builtin_prefetch(&matrix_.entry_data(pos));
        __builtin_prefetch(&proposals_[pos * m]);
      }
    }
    const SparseMatrix<TopicId>::RowView row = matrix_.row(d);
    if (row.size() == 0) continue;
    const TokenPositions positions = ItemPositions(d, /*word_axis=*/false);
    if (DenseCountsFit(row.size())) {
      int32_t* counts = s.dense.data();
      BuildCounts(counts, row);
      AcceptItem(s, DenseCounts{counts}, positions, alpha_vec, config_.alpha,
                 grid_.base_doc, d);
      // Zero the array through the topics it counted (z is not committed
      // yet), in O(L) rather than O(K).
      for (uint32_t i = 0; i < row.size(); ++i) counts[row[i]] = 0;
    } else {
      BuildCounts(s.counts, row);
      AcceptItem(s, s.counts, positions, alpha_vec, config_.alpha,
                 grid_.base_doc, d);
    }
    for (const StagedMove& mv : s.item_moves) {
      matrix_.entry_data(mv.pos) = mv.to;
    }
    if (committed != nullptr) {
      committed->insert(committed->end(), s.item_moves.begin(),
                        s.item_moves.end());
    }
    DrawDocProposals(grid_.base_doc, positions, row);
    TraceScopeEnd();
  }
}

void WarpLdaSampler::ApplyStagedMoves(const TaskRunner& run) {
  // Local blocks committed their moves in place; only injected ones wait
  // here. One task per word block commits its blocks' moves — blocks own
  // disjoint tokens, so no two tasks write one position — and one task per
  // topic range folds the per-worker ck-delta partitions, the
  // once-per-barrier reduction that replaces a shared (contended) delta
  // vector.
  const uint32_t num_wb = grid_.plan.num_word_blocks;
  const uint32_t k_topics = config_.num_topics;
  const uint32_t fold_tasks = (k_topics + kFoldTopics - 1) / kFoldTopics;
  run(num_wb + fold_tasks, [&](uint32_t, uint32_t t) {
    if (t < num_wb) {
      ApplyMovesRange(t);
    } else {
      const uint32_t lo = (t - num_wb) * kFoldTopics;
      FoldDeltaRange(lo, std::min(k_topics, lo + kFoldTopics));
    }
  });
}

void WarpLdaSampler::ApplyMovesRange(uint32_t word_block) {
  const uint32_t num_wb = grid_.plan.num_word_blocks;
  for (uint32_t db = 0; db < grid_.plan.num_doc_blocks; ++db) {
    std::vector<StagedMove>& moves =
        grid_.block_moves[static_cast<size_t>(db) * num_wb + word_block];
    for (const StagedMove& mv : moves) matrix_.entry_data(mv.pos) = mv.to;
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
  ApplyStagedMoves(run);
  grid_.stage = grid_.stage == SweepStage::kWordAccept ? SweepStage::kDocAccept
                                                       : SweepStage::kDone;
  std::fill(grid_.block_ran.begin(), grid_.block_ran.end(), 0);
  if (grid_.stage != SweepStage::kDone) EnterSpan();
  FlushScratchMetrics();  // workers are quiescent at the barrier
}

void WarpLdaSampler::AbortSweep() {
  if (!grid_.open) return;
  // Discard the aborted span's injected moves and unfolded deltas; the live
  // state is whatever the last completed barrier applied, plus the items
  // the aborted span's blocks already committed in place. A barrier whose
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
    // Only quiescent points are capturable: at a barrier every injected
    // move is applied and every ck-delta partition is folded (and zeroed),
    // so the live arrays below are the *whole* state. Mid-stage
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
  if (state.next_stage == SweepStage::kWordPropose ||
      state.next_stage == SweepStage::kDocPropose) {
    return fail(std::string("checkpoint stops at the ") +
                ToString(state.next_stage) +
                " barrier; it predates whole-item blocks, whose sweeps stop "
                "only at doc-accept");
  }
  const bool mid_sweep = state.next_stage != SweepStage::kWordAccept;
  if (mid_sweep) {
    std::string plan_error;
    if (!state.plan.Validate(corpus_->num_docs(), corpus_->num_words(),
                             &plan_error)) {
      return fail("checkpoint sweep plan does not fit the corpus: " +
                  plan_error);
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
  // Reopen the sweep at the checkpointed barrier. No span state needs
  // rebuilding: blocks count their items from z as they run, and the
  // checkpoint carries the c_k snapshot the barrier's span reads.
  BuildGridIndices(state.plan);
  const size_t num_blocks = static_cast<size_t>(state.plan.num_doc_blocks) *
                            state.plan.num_word_blocks;
  grid_.block_moves.resize(num_blocks);
  grid_.block_ran.assign(num_blocks, 0);
  grid_.stage = state.next_stage;
  grid_.open = true;
  return true;
}

// --------------------------------------------------------------------------
// Distributed execution: block deltas. Within a span, a block's entire
// externally visible effect is (moves, own tokens' proposal slots) — its z
// writes land on items no other block reads, and every other write lands
// in per-worker scratch. Capturing those two pieces and replaying them in
// a peer process that holds the same pre-span state makes the peer's
// EndStage() bit-identical to having run the block locally: the moves are
// committed at the barrier, c_k moves by the block's net change (the
// intermediates of an MH chain cancel), and proposals scatter into the
// very slots the block would have written. Both are in the block's item
// order and each item's token order, which every process derives
// identically from (plan, corpus).
//
// A reader map cuts the effect by the process that reads each token next.
// That process ran the token's item in the previous span or received the
// token's moves from whoever did, so its z there is current and the
// `from` check below holds on every slice it applies; a process never
// reads z or proposals outside its own items, and ck_net keeps its c_k
// global.

std::pair<uint64_t, uint64_t> WarpLdaSampler::BlockAxisRange(
    size_t block, bool word_axis) const {
  const auto [lo, hi] = BlockItems(block, word_axis);
  return word_axis
             ? std::pair<uint64_t, uint64_t>{matrix_.col_offset(lo),
                                             matrix_.col_offset(hi)}
             : std::pair<uint64_t, uint64_t>{matrix_.row_offset(lo),
                                             matrix_.row_offset(hi)};
}

const WarpLdaSampler::ReaderIndex* WarpLdaSampler::ReaderIndexFor(
    const std::vector<uint32_t>& readers, std::string* error) {
  const size_t num_blocks = grid_.block_ran.size();
  if (!readers.empty() && readers.size() != num_blocks) {
    *error = "reader map has " + std::to_string(readers.size()) +
             " entries for " + std::to_string(num_blocks) + " blocks";
    return nullptr;
  }
  for (uint32_t r : readers) {
    if (r >= kMaxReaders) {
      *error = "reader id " + std::to_string(r) + " out of range";
      return nullptr;
    }
  }
  std::vector<uint32_t> map =
      readers.empty() ? std::vector<uint32_t>(num_blocks, 0) : readers;
  if (reader_index_.readers != map ||
      reader_index_.col_bounds != grid_.col_bounds ||
      reader_index_.row_bounds != grid_.row_bounds) {
    BuildReaderIndex(std::move(map));
  }
  return &reader_index_;
}

void WarpLdaSampler::BuildReaderIndex(std::vector<uint32_t> readers) {
  const uint64_t num_tokens = matrix_.num_entries();
  if (num_tokens > UINT32_MAX) {
    throw std::length_error(
        "WarpLdaSampler: block deltas need fewer than 2^32 tokens");
  }
  ReaderIndex& index = reader_index_;
  index.readers = std::move(readers);
  index.col_bounds = grid_.col_bounds;
  index.row_bounds = grid_.row_bounds;
  index.num_readers =
      *std::max_element(index.readers.begin(), index.readers.end()) + 1;
  const uint32_t num_readers = index.num_readers;
  const size_t num_blocks = index.readers.size();
  // A token's reader in one axis's span is the runner of the block holding
  // it on the other axis. Tag every CSC position with it, then counting-
  // sort the axis's tokens into (block, reader) groups, canonical order
  // kept within each group.
  std::vector<uint32_t> reader_of(num_tokens);
  for (const bool word_axis : {true, false}) {
    for (size_t b = 0; b < num_blocks; ++b) {
      const auto [first, end] = BlockAxisRange(b, !word_axis);
      for (uint64_t a = first; a < end; ++a) {
        reader_of[AxisPosition(a, !word_axis)] = index.readers[b];
      }
    }
    std::vector<uint32_t>& begin = index.begin[word_axis ? 0 : 1];
    std::vector<uint32_t>& tokens = index.tokens[word_axis ? 0 : 1];
    begin.assign(num_blocks * num_readers + 1, 0);
    for (size_t b = 0; b < num_blocks; ++b) {
      const auto [first, end] = BlockAxisRange(b, word_axis);
      for (uint64_t a = first; a < end; ++a) {
        ++begin[b * num_readers + reader_of[AxisPosition(a, word_axis)] + 1];
      }
    }
    for (size_t g = 1; g < begin.size(); ++g) begin[g] += begin[g - 1];
    tokens.resize(num_tokens);
    std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
    for (size_t b = 0; b < num_blocks; ++b) {
      const auto [first, end] = BlockAxisRange(b, word_axis);
      for (uint64_t a = first; a < end; ++a) {
        const uint32_t r = reader_of[AxisPosition(a, word_axis)];
        tokens[cursor[b * num_readers + r]++] = static_cast<uint32_t>(a);
      }
    }
  }
}

bool WarpLdaSampler::RunBlockCaptured(uint32_t doc_block, uint32_t word_block,
                                      uint32_t worker,
                                      const std::vector<uint32_t>& readers,
                                      GridBlockDelta* out) {
  if (!grid_.open || grid_.stage == SweepStage::kDone) {
    throw std::logic_error(
        "WarpLdaSampler: RunBlockCaptured() outside an active stage");
  }
  if (worker >= scratch_.size()) {
    throw std::invalid_argument(
        "WarpLdaSampler: worker id out of range; ReserveWorkers() first");
  }
  std::string error;
  const ReaderIndex* index = ReaderIndexFor(readers, &error);
  if (index == nullptr) {
    throw std::invalid_argument("WarpLdaSampler: " + error);
  }
  const SweepStage begin = grid_.stage;
  const size_t block =
      static_cast<size_t>(doc_block) * grid_.plan.num_word_blocks + word_block;
  ThreadScratch& s = scratch_[worker];
  s.block_moves.clear();
  RunBlockInto(doc_block, word_block, worker, &s.block_moves);
  out->stage = begin;
  out->doc_block = doc_block;
  out->word_block = word_block;

  // The block's net c_k change, ascending by topic.
  const uint32_t k_topics = config_.num_topics;
  s.ck_tally.resize(k_topics, 0);
  for (const StagedMove& mv : s.block_moves) {
    --s.ck_tally[mv.from];
    ++s.ck_tally[mv.to];
  }
  out->ck_net.clear();
  for (uint32_t k = 0; k < k_topics; ++k) {
    if (s.ck_tally[k] != 0) {
      out->ck_net.push_back({k, s.ck_tally[k]});
      s.ck_tally[k] = 0;
    }
  }

  // Every span draws proposals (word ones in word stages, doc ones in doc
  // stages). One walk over the block's tokens in canonical order routes
  // each token's proposals, and its move if it moved, to its reader.
  const bool word_axis = begin < SweepStage::kDocAccept;
  const uint32_t axis = word_axis ? 0 : 1;
  const uint32_t num_readers = index->num_readers;
  const uint32_t m = std::max(1u, config_.mh_steps);
  const auto [first, end] = BlockAxisRange(block, word_axis);
  s.reader_tag.resize(end - first);
  out->slices.resize(num_readers);
  std::vector<TopicId*> fill(num_readers);  // next proposal slot per slice
  for (uint32_t r = 0; r < num_readers; ++r) {
    const size_t g = block * num_readers + r;
    GridBlockDelta::Slice& slice = out->slices[r];
    slice.reader = r;
    slice.moves.clear();
    slice.proposals.resize(
        static_cast<size_t>(index->begin[axis][g + 1] - index->begin[axis][g]) *
        m);
    fill[r] = slice.proposals.data();
    for (uint32_t i = index->begin[axis][g]; i < index->begin[axis][g + 1];
         ++i) {
      s.reader_tag[index->tokens[axis][i] - first] = r;
    }
  }
  size_t next = 0;
  for (uint64_t a = first; a < end; ++a) {
    const uint32_t r = s.reader_tag[a - first];
    const uint64_t pos = AxisPosition(a, word_axis);
    const TopicId* slot = &proposals_[pos * m];
    TopicId*& to = fill[r];
    for (uint32_t j = 0; j < m; ++j) *to++ = slot[j];  // no memmove per token
    if (next < s.block_moves.size() && s.block_moves[next].pos == pos) {
      out->slices[r].moves.push_back(s.block_moves[next++]);
    }
  }
  return true;
}

bool WarpLdaSampler::ApplyBlockDelta(const GridBlockDelta& delta,
                                     const std::vector<uint32_t>& readers,
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
  std::string index_error;
  const ReaderIndex* index = ReaderIndexFor(readers, &index_error);
  if (index == nullptr) return fail(index_error);

  // Validate the whole delta before mutating anything, so a malformed frame
  // leaves the sampler untouched.
  const uint32_t k_topics = config_.num_topics;
  const bool word_axis = delta.stage < SweepStage::kDocAccept;
  const uint32_t axis = word_axis ? 0 : 1;
  const uint32_t num_readers = index->num_readers;
  const uint32_t m = std::max(1u, config_.mh_steps);
  int64_t ck_sum = 0;
  for (size_t i = 0; i < delta.ck_net.size(); ++i) {
    const GridBlockDelta::TopicCount& tc = delta.ck_net[i];
    if (tc.topic >= k_topics) return fail("delta ck_net topic out of range");
    if (i > 0 && tc.topic <= delta.ck_net[i - 1].topic) {
      return fail("delta ck_net topics are not ascending");
    }
    ck_sum += tc.count;
  }
  if (ck_sum != 0) return fail("delta ck_net does not sum to 0");
  size_t num_moves = 0;
  for (size_t si = 0; si < delta.slices.size(); ++si) {
    const GridBlockDelta::Slice& slice = delta.slices[si];
    if (slice.reader >= num_readers ||
        (si > 0 && slice.reader <= delta.slices[si - 1].reader)) {
      return fail("delta slice reader " + std::to_string(slice.reader) +
                  " out of range or out of order");
    }
    const size_t g = block * num_readers + slice.reader;
    const uint32_t* tokens = index->tokens[axis].data();
    const uint32_t group_begin = index->begin[axis][g];
    const uint32_t group_end = index->begin[axis][g + 1];
    const uint64_t expected_proposals =
        static_cast<uint64_t>(group_end - group_begin) * m;
    if (slice.proposals.size() != expected_proposals) {
      return fail("delta proposal count " +
                  std::to_string(slice.proposals.size()) + " (expected " +
                  std::to_string(expected_proposals) + ")");
    }
    for (uint32_t p : slice.proposals) {
      if (p >= k_topics) return fail("delta proposal topic out of range");
    }
    // A slice's moves follow its reader's tokens in canonical order, each
    // tagged with its column (word pass) or row (doc pass). The barrier
    // commits each word block's moves in its own task, so a move outside
    // its block could race with another task's writes, and one outside the
    // reader's tokens would land where this process's z may be stale.
    uint32_t cursor = group_begin;
    uint32_t item = BlockItems(block, word_axis).first;
    for (const GridBlockDelta::Move& mv : slice.moves) {
      while (cursor < group_end &&
             AxisPosition(tokens[cursor], word_axis) != mv.pos) {
        ++cursor;
      }
      if (cursor == group_end) {
        return fail("delta moves do not follow the slice's token order");
      }
      // Tokens in canonical order walk the block's items in order.
      while (AxisEnd(item, word_axis) <= tokens[cursor]) ++item;
      if (mv.item != item) {
        return fail("delta move item is not its token's column or row");
      }
      if (mv.from >= k_topics || mv.to >= k_topics) {
        return fail("delta move topic out of range");
      }
      // The reader's z here is current (see above), so `from` must match
      // it — anything else means the peer ran from different state.
      if (matrix_.entry_data(mv.pos) != mv.from) {
        return fail("delta move disagrees with the current assignment");
      }
      ++cursor;
    }
    num_moves += slice.moves.size();
  }
  if (delta.slices.size() == num_readers) {
    // Every slice is here: ck_net must be exactly the moves' net effect.
    std::vector<int64_t> net(k_topics, 0);
    for (const GridBlockDelta::Slice& slice : delta.slices) {
      for (const GridBlockDelta::Move& mv : slice.moves) {
        --net[mv.from];
        ++net[mv.to];
      }
    }
    for (const GridBlockDelta::TopicCount& tc : delta.ck_net) {
      net[tc.topic] -= tc.count;
    }
    for (int64_t d : net) {
      if (d != 0) return fail("delta ck_net disagrees with its moves");
    }
  }

  // Injected moves land in the block's own list and ck_net in worker 0's
  // ck-delta partition — the same commit and commutative fold EndStage()
  // gives local work (scratch_[0] always exists: Init sizes the pool to at
  // least one).
  std::vector<StagedMove>& moves = grid_.block_moves[block];
  moves.reserve(moves.size() + num_moves);
  ThreadScratch& s = scratch_[0];
  for (const GridBlockDelta::TopicCount& tc : delta.ck_net) {
    s.ck_delta[tc.topic] += tc.count;
  }
  for (const GridBlockDelta::Slice& slice : delta.slices) {
    moves.insert(moves.end(), slice.moves.begin(), slice.moves.end());
    const size_t g = block * num_readers + slice.reader;
    const TopicId* next = slice.proposals.data();
    for (uint32_t i = index->begin[axis][g]; i < index->begin[axis][g + 1];
         ++i, next += m) {
      TopicId* slot = &proposals_[AxisPosition(index->tokens[axis][i],
                                               word_axis) * m];
      for (uint32_t j = 0; j < m; ++j) slot[j] = next[j];
    }
  }
  ran = 1;
  return true;
}

}  // namespace warplda
