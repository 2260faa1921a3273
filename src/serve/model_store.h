#ifndef WARPLDA_SERVE_MODEL_STORE_H_
#define WARPLDA_SERVE_MODEL_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/inference.h"
#include "corpus/corpus.h"
#include "eval/topic_model.h"
#include "obs/metrics.h"
#include "util/alias_table.h"

namespace warplda::serve {

/// Memory layout of a ModelSnapshot's φ̂ / q_word state.
enum class SnapshotLayout {
  /// Tiered sparse (default): one shared per-topic β-floor row — O(K) —
  /// plus per-word corrections in a flat CSR-style arena, O(total nnz).
  /// Snapshot memory is O(K + nnz) instead of O(V·K), and an incremental
  /// publish (PublishDelta) can share unchanged words' spans with the
  /// previous snapshot.
  kSparseTiered,
  /// Dense V×K φ̂ (the original eager-prebuild layout). Kept as the
  /// bit-identity reference for the sparse path and for tiny-vocabulary
  /// models where arena bookkeeping outweighs the dense row cost.
  kDense,
};

/// Immutable, fully prebuilt serving view of a TopicModel.
///
/// Everything the inference hot path reads — φ̂, the per-word proposal alias
/// tables, and the per-topic denominators C_k+β̄ — is built eagerly at
/// construction (publish) time, so the first request against a fresh
/// snapshot pays no lazy-materialization spike and all state is read-only
/// afterwards, shareable across any number of worker threads without locks.
///
/// Two layouts produce bit-identical reads (asserted by
/// serve_snapshot_test):
///
///  * kSparseTiered — φ̂_wk is resolved as a two-tier lookup: a shared
///    per-topic floor β/(C_k+β̄) (all V words share these K doubles) plus a
///    per-word sparse correction span holding (topic, C_wk+β) for the
///    word's nnz topics only. Spans for all words live back to back in one
///    flat arena (SoA: a topic-id array and a parallel value array), so
///    there is no per-word vector header or allocator fragmentation and a
///    row's correction list occupies consecutive cache lines. Phi/QWord
///    binary-search the span (len ≤ nnz(w), typically a handful of
///    entries); the word-proposal alias branch — the common case of the
///    serving hot path — samples a prebuilt table and never touches the
///    floor at all.
///  * kDense — the flat V×K φ̂ arena (DensePhiTable), O(1) array reads.
///
/// Construction cost is O(K + nnz) for the sparse layout (O(V·K) dense);
/// the delta constructor drops that to O(K + V + Δnnz) by sharing unchanged
/// words' spans and alias tables with the previous snapshot via the arena
/// shared_ptrs.
class ModelSnapshot {
 public:
  /// Builds the snapshot from `model` (kept alive via the shared_ptr).
  /// Prefer ModelStore::Publish, which assigns the version automatically
  /// at swap time.
  explicit ModelSnapshot(std::shared_ptr<const TopicModel> model,
                         uint64_t version = 0,
                         SnapshotLayout layout = SnapshotLayout::kSparseTiered);

  /// Incremental (delta) build: words not listed in `changed_words` reuse
  /// `base`'s correction spans, alias tables, and count-branch
  /// probabilities — shared, not copied, via the arena shared_ptrs — and
  /// only the listed rows are rebuilt from `model`, into one fresh arena
  /// appended to the chain. The per-topic tier (floor, denominators) is
  /// always rebuilt: it is O(K). `base` must use the sparse layout and
  /// agree with `model` on num_words/num_topics/β; the caller
  /// (ModelStore::PublishDelta) enforces this and guarantees that every
  /// word outside `changed_words` has an identical sparse row in `model`
  /// and in base.model(). Out-of-range ids in `changed_words` are ignored;
  /// duplicates are fine.
  ModelSnapshot(std::shared_ptr<const TopicModel> model,
                const ModelSnapshot& base,
                std::span<const WordId> changed_words, uint64_t version = 0);

  const TopicModel& model() const { return *model_; }
  const std::shared_ptr<const TopicModel>& model_ptr() const { return model_; }

  /// Monotonic publish counter (1 = first model published to the store).
  uint64_t version() const { return version_; }

  SnapshotLayout layout() const { return layout_; }

  uint32_t num_topics() const { return num_topics_; }
  WordId num_words() const { return num_words_; }
  double alpha() const { return model_->alpha(); }
  double beta() const { return model_->beta(); }

  /// φ̂_wk. Dense: one array read. Sparse: binary search of word w's
  /// correction span (hit → (C_wk+β)/(C_k+β̄), miss → the shared β-floor).
  /// Bit-identical across layouts: both evaluate the same IEEE expressions
  /// on the same operands.
  double Phi(WordId w, TopicId k) const {
    if (layout_ == SnapshotLayout::kDense) return dense_.row(w)[k];
    const Span& span = spans_[w];
    const uint32_t idx = FindTopic(span, k);
    if (idx != kNotFound) return span.values[idx] / topic_denom_[k];
    return floor_[k];
  }

  /// Word-proposal density q_word(k) ∝ C_wk + β, recovered from φ̂ as
  /// φ̂_wk·(C_k+β̄) — no sparse-row scan over the model.
  double QWord(WordId w, TopicId k) const {
    return Phi(w, k) * topic_denom_[k];
  }

  /// Prebuilt alias table over the count mass of q_word for word w. The
  /// serving hot path's common case: sampling it never touches φ̂ at all.
  const AliasTable& word_alias(WordId w) const { return *word_alias_ptr_[w]; }

  /// Probability that a word proposal comes from the count mass (alias
  /// branch) rather than the uniform β branch.
  double word_count_prob(WordId w) const { return word_count_prob_[w]; }

  /// Number of correction arenas this snapshot references: 1 after a full
  /// build, +1 per delta build on top. ModelStore compacts (full rebuild)
  /// when the chain exceeds its max_arena_chain option.
  size_t arena_chain() const { return arenas_.size(); }

  /// Approximate heap footprint of the serving state, in bytes: φ̂ storage
  /// (arena or dense), span/alias/probability tables, and alias bins.
  /// Arenas shared with other snapshots are counted in full here — this is
  /// "bytes kept alive by holding this snapshot", the number that matters
  /// for the two-snapshots-during-hot-swap window. Excludes the TopicModel.
  size_t ApproxBytes() const;

 private:
  friend class ModelStore;  // stamps version_ pre-swap, before any reader

  /// One publish's freshly built correction rows, immutable once the
  /// snapshot constructor returns. Snapshots reference spans by raw pointer
  /// and keep the owning arena alive through arenas_; a delta snapshot
  /// therefore shares its base's rows without copying a byte of them.
  struct CorrectionArena {
    std::vector<TopicId> topics;  // concatenated per-word ascending topics
    std::vector<double> values;   // parallel to topics: C_wk + β
    std::vector<AliasTable> alias;  // one per word (re)built in this arena
    size_t MemoryBytes() const;
  };

  /// Word w's correction run inside some arena (SoA view).
  struct Span {
    const TopicId* topics = nullptr;
    const double* values = nullptr;
    uint32_t len = 0;
  };

  static constexpr uint32_t kNotFound = ~0u;

  /// Index of topic k in the span's ascending topic array, or kNotFound.
  /// Linear scan for short spans (one or two cache lines), binary search
  /// beyond — correction rows of trained models are typically tiny.
  static uint32_t FindTopic(const Span& span, TopicId k) {
    if (span.len <= 16) {
      for (uint32_t i = 0; i < span.len && span.topics[i] <= k; ++i) {
        if (span.topics[i] == k) return i;
      }
      return kNotFound;
    }
    uint32_t lo = 0;
    uint32_t hi = span.len;
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (span.topics[mid] < k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < span.len && span.topics[lo] == k ? lo : kNotFound;
  }

  /// Rebuilds the O(K) per-topic tier: C_k+β̄ (both layouts) and the shared
  /// β-floor row (sparse layout).
  void BuildTopicTier();
  /// Appends the listed words' correction rows + alias tables to a fresh
  /// arena and points spans_/word_alias_ptr_/word_count_prob_ at it.
  void BuildArenaRows(std::span<const WordId> words);

  std::shared_ptr<const TopicModel> model_;
  uint64_t version_ = 0;
  SnapshotLayout layout_ = SnapshotLayout::kSparseTiered;
  uint32_t num_topics_ = 0;
  WordId num_words_ = 0;

  std::vector<double> topic_denom_;  // C_k + β̄ per topic (both layouts)

  // Sparse tier state.
  std::vector<double> floor_;  // shared β-floor row: β/(C_k+β̄) per topic
  std::vector<Span> spans_;    // per word: correction run in some arena
  std::vector<std::shared_ptr<const CorrectionArena>> arenas_;

  // Per-word proposal state, valid for both layouts (dense points into
  // dense_'s alias storage).
  std::vector<const AliasTable*> word_alias_ptr_;
  std::vector<double> word_count_prob_;

  DensePhiTable dense_;  // kDense only
};

/// Durable-checkpoint retention policy (ModelStore::CheckpointTo).
struct CheckpointOptions {
  /// When > 0, CheckpointTo prunes superseded chain files after each
  /// successful write: files older than the active chain (the newest base
  /// plus its deltas) are deleted oldest-first until at most this many
  /// model-*.base/.delta files remain in the directory. The active chain is
  /// never pruned, even when it alone exceeds the cap — restorability wins
  /// over the byte budget. 0 (default) keeps every file forever, the
  /// pre-retention behavior.
  uint32_t max_chain_len = 0;
};

/// Tuning knobs for ModelStore.
struct ModelStoreOptions {
  SnapshotLayout layout = SnapshotLayout::kSparseTiered;
  /// Every PublishDelta appends one arena to the snapshot's chain while the
  /// superseded rows in older arenas stay alive (they are shared storage).
  /// Once the chain reaches this length, the next PublishDelta compacts by
  /// doing a full rebuild into a single arena, bounding the shared_ptr
  /// fan-out and — together with max_delta_fraction, which caps how much
  /// superseded data any one delta can strand — the garbage fraction.
  uint32_t max_arena_chain = 16;
  /// A delta listing more than this fraction of the vocabulary is not
  /// meaningfully cheaper than a full rebuild, but would strand a
  /// near-model-sized generation of superseded rows in the chain; such
  /// publishes fall back to a full (compacting) Publish instead. 1.0
  /// disables the fallback.
  double max_delta_fraction = 0.25;
  /// On-disk retention for CheckpointTo's chain files.
  CheckpointOptions checkpoint;
};

/// Publishes immutable model snapshots to concurrent readers RCU-style.
///
/// Publish() builds a ModelSnapshot (paying the eager prebuild cost on the
/// publisher's thread, outside any lock) and swaps it in atomically;
/// Current() hands out a shared_ptr copy. Readers holding the previous
/// snapshot keep it alive through their shared_ptr — a hot swap never
/// invalidates an in-flight request, and the old snapshot is freed when the
/// last reader drops it.
///
/// PublishDelta() is the steady-state republish path: given the new model
/// and the set of words whose rows changed since the previous publish, it
/// rebuilds only those rows — everything else is shared with the previous
/// snapshot — so its cost is O(Δnnz + K + V·(pointer copy)) instead of the
/// full O(nnz + K) rebuild, and the transient two-snapshots-resident window
/// of a hot swap costs Δ, not 2× the model. Trainers obtain the changed set
/// from WarpLdaSampler::ExportSharedModel(&changed).
///
/// The swap itself is a shared_ptr exchange under a micro-lock rather than
/// std::atomic<shared_ptr> (whose libstdc++ lock-bit implementation is
/// opaque to ThreadSanitizer). Readers touch the lock once per micro-batch,
/// never per request, so it is invisible in serving profiles.
///
/// This is the bridge between training and serving: a WarpLdaSampler
/// running on another thread can ExportSharedModel() between sweeps and
/// Publish()/PublishDelta() mid-training while an InferenceServer keeps
/// answering from the store.
class ModelStore {
 public:
  ModelStore() : ModelStore(ModelStoreOptions{}) {}
  explicit ModelStore(const ModelStoreOptions& options);
  ModelStore(const ModelStore&) = delete;
  ModelStore& operator=(const ModelStore&) = delete;

  /// Builds a full snapshot of `model` (outside any lock) and atomically
  /// makes it current. Returns the published snapshot. Thread-safe against
  /// readers and concurrent publishers: versions are assigned at swap time,
  /// so the last swap to land carries the highest version and
  /// version()/Current() always agree (version() > 0 implies
  /// Current() != nullptr).
  std::shared_ptr<const ModelSnapshot> Publish(
      std::shared_ptr<const TopicModel> model);

  /// Convenience overload that takes ownership of a model by value.
  std::shared_ptr<const ModelSnapshot> Publish(TopicModel model) {
    return Publish(std::make_shared<const TopicModel>(std::move(model)));
  }

  /// Incremental publish: like Publish(model), but rebuilds only
  /// `changed_words`, sharing every other word's serving state with the
  /// current snapshot. The caller guarantees that words outside
  /// `changed_words` have identical sparse rows in `model` and in the
  /// currently published model — ExportSharedModel(&changed) on the
  /// trainers produces exactly this pair.
  ///
  /// Falls back to a full Publish (same return contract) whenever a delta
  /// is not applicable: no current snapshot, dense layout, model shape or β
  /// mismatch, arena chain at max_arena_chain (compaction), an oversized
  /// delta (more than max_delta_fraction of the vocabulary), or a
  /// concurrent publisher swapped the base out mid-build. Intended for a
  /// single publisher; racing delta publishers are safe but degrade to
  /// full rebuilds.
  std::shared_ptr<const ModelSnapshot> PublishDelta(
      std::shared_ptr<const TopicModel> model,
      std::span<const WordId> changed_words);

  /// Delta-aware durability (core/checkpoint.h frame format, atomic
  /// temp+fsync+rename writes). Persists the currently published model into
  /// `dir`: the first call (per store, per directory) writes the full model
  /// as `model-<version>.base`; each later call writes only the rows that
  /// changed since the previous checkpoint as `model-<version>.delta`
  /// chained onto it — the on-disk mirror of PublishDelta's arena sharing,
  /// so steady-state checkpoints cost O(Δnnz + K) bytes, not O(nnz). The
  /// same compaction policy as the in-memory chain applies: a fresh base is
  /// written when the chain reaches max_arena_chain, when the delta would
  /// exceed max_delta_fraction of the vocabulary, or when the model shape
  /// changed. Calling again at an unchanged version is a no-op. Returns
  /// false and fills *error when nothing is published or a write fails (the
  /// previous checkpoint files stay intact).
  bool CheckpointTo(const std::string& dir, std::string* error);

  /// Restores the newest checkpointed model from `dir`: loads the highest-
  /// version base file, replays every subsequent delta in version order
  /// (validating chain continuity via each delta's recorded predecessor),
  /// rebuilds the live snapshot, and publishes it with the checkpointed
  /// version — store.version() continues where the checkpointing process
  /// left off. Also primes the delta-checkpoint state, so a restored
  /// trainer's next CheckpointTo(dir) extends the existing chain. Fails
  /// (false + *error) on a missing/corrupt/broken chain or when this store
  /// has already published at or past the checkpointed version; the store
  /// is left unchanged on failure.
  bool RestoreFrom(const std::string& dir, std::string* error);

  /// The latest published snapshot, or nullptr before the first Publish().
  std::shared_ptr<const ModelSnapshot> Current() const {
    std::lock_guard<std::mutex> lock(swap_mutex_);
    return current_;
  }

  /// Number of models published so far (0 before the first Publish()).
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  const ModelStoreOptions& options() const { return options_; }

 private:
  /// Stamps the version and swaps `snapshot` in. If `expected_base` is
  /// non-null the swap only happens while it is still current; returns
  /// false otherwise (the delta was built against a superseded base).
  bool Swap(const std::shared_ptr<ModelSnapshot>& snapshot,
            const ModelSnapshot* expected_base);

  ModelStoreOptions options_;
  std::atomic<uint64_t> version_{0};
  mutable std::mutex swap_mutex_;
  std::shared_ptr<const ModelSnapshot> current_;

  /// Delta-checkpoint bookkeeping (guarded by ckpt_mutex_; lock order is
  /// ckpt_mutex_ → swap_mutex_ — CheckpointTo reads Current() while holding
  /// ckpt_mutex_, and nothing acquires them in the reverse order): the last
  /// model written to ckpt_dir_, its version, and the current on-disk chain
  /// length (1 = base only).
  mutable std::mutex ckpt_mutex_;
  std::string ckpt_dir_;
  std::shared_ptr<const TopicModel> ckpt_model_;
  uint64_t ckpt_version_ = 0;
  uint32_t ckpt_chain_ = 0;

  /// Deletes superseded chain files in ckpt_dir_ per options_.checkpoint and
  /// refreshes the chain gauges. Called under ckpt_mutex_ after a successful
  /// write or restore; prune failures are ignored (retention is best-effort,
  /// the chain itself is already durable).
  void PruneChainLocked();

  /// Serving-side instruments, registered for the store's lifetime (names
  /// store_*, auto-suffixed when several stores coexist). Recorded
  /// unconditionally, like the InferenceServer's — publish latency and chain
  /// depth are serving health signals, not training hot-path cost.
  obs::Histogram publish_us_;
  obs::Histogram publish_delta_us_;
  obs::Gauge arena_chain_;       ///< arena chain length of the newest publish
  obs::Gauge ckpt_chain_bytes_;  ///< bytes of model-* files in ckpt_dir_
  obs::Gauge ckpt_chain_files_;  ///< count of model-* files in ckpt_dir_
  obs::MetricsRegistry::Registration publish_reg_;
  obs::MetricsRegistry::Registration publish_delta_reg_;
  obs::MetricsRegistry::Registration arena_chain_reg_;
  obs::MetricsRegistry::Registration ckpt_bytes_reg_;
  obs::MetricsRegistry::Registration ckpt_files_reg_;
};

}  // namespace warplda::serve

#endif  // WARPLDA_SERVE_MODEL_STORE_H_
