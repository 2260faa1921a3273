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
  /// Snapshot memory is O(K + nnz) instead of O(V·K).
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
/// Construction cost is O(K + nnz) for the sparse layout (O(V·K) dense).
/// Spans and alias pointers point into the snapshot's own arena, so a
/// snapshot is neither copyable nor movable; share it through a shared_ptr.
class ModelSnapshot {
 public:
  /// Builds the snapshot from `model` (kept alive via the shared_ptr).
  /// Prefer ModelStore::Publish, which assigns the version automatically
  /// at swap time.
  explicit ModelSnapshot(std::shared_ptr<const TopicModel> model,
                         uint64_t version = 0,
                         SnapshotLayout layout = SnapshotLayout::kSparseTiered);
  ModelSnapshot(const ModelSnapshot&) = delete;
  ModelSnapshot& operator=(const ModelSnapshot&) = delete;

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

  /// Always 1: every snapshot owns exactly one correction arena. Kept only
  /// because bench/warpbench/serving.cc derives store.full_share from it;
  /// delete it when that benchmark is next redefined.
  size_t arena_chain() const { return 1; }

  /// Approximate heap footprint of the serving state, in bytes: φ̂ storage
  /// (arena or dense), span/alias/probability tables, and alias bins —
  /// "bytes kept alive by holding this snapshot", the number that matters
  /// for the two-snapshots-during-hot-swap window. Excludes the TopicModel.
  size_t ApproxBytes() const;

 private:
  friend class ModelStore;  // stamps version_ pre-swap, before any reader

  /// Every word's correction rows, back to back, immutable once the
  /// snapshot constructor returns. spans_ and word_alias_ptr_ point into it.
  struct CorrectionArena {
    std::vector<TopicId> topics;  // concatenated per-word ascending topics
    std::vector<double> values;   // parallel to topics: C_wk + β
    std::vector<AliasTable> alias;  // one per word
    size_t HeapBytes() const;
  };

  /// Word w's correction run inside the arena (SoA view).
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
  /// Fills the arena with every word's correction row + alias table and
  /// points spans_/word_alias_ptr_/word_count_prob_ at it.
  void BuildArenaRows();

  std::shared_ptr<const TopicModel> model_;
  uint64_t version_ = 0;
  SnapshotLayout layout_ = SnapshotLayout::kSparseTiered;
  uint32_t num_topics_ = 0;
  WordId num_words_ = 0;

  std::vector<double> topic_denom_;  // C_k + β̄ per topic (both layouts)

  // Sparse tier state.
  std::vector<double> floor_;  // shared β-floor row: β/(C_k+β̄) per topic
  std::vector<Span> spans_;    // per word: correction run in arena_
  CorrectionArena arena_;

  // Per-word proposal state, valid for both layouts (dense points into
  // dense_'s alias storage).
  std::vector<const AliasTable*> word_alias_ptr_;
  std::vector<double> word_count_prob_;

  DensePhiTable dense_;  // kDense only
};

/// Tuning knobs for ModelStore.
struct ModelStoreOptions {
  SnapshotLayout layout = SnapshotLayout::kSparseTiered;
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
/// The swap itself is a shared_ptr exchange under a micro-lock rather than
/// std::atomic<shared_ptr> (whose libstdc++ lock-bit implementation is
/// opaque to ThreadSanitizer). Readers touch the lock once per micro-batch,
/// never per request, so it is invisible in serving profiles.
///
/// This is the bridge between training and serving: a WarpLdaSampler
/// running on another thread can ExportSharedModel() between sweeps and
/// Publish() mid-training while an InferenceServer keeps answering from the
/// store.
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

  /// Same as Publish(model); `changed_words` is ignored. Kept only because
  /// bench/warpbench/serving.cc calls it; delete it when that benchmark is
  /// next redefined.
  std::shared_ptr<const ModelSnapshot> PublishDelta(
      std::shared_ptr<const TopicModel> model,
      std::span<const WordId> /*changed_words*/) {
    return Publish(std::move(model));
  }

  /// Durability (util/checkpoint_io.h frame format, atomic
  /// temp+fsync+rename write): persists the currently published model,
  /// whole, as `dir/model.ckpt`, replacing the previous file. A call at a
  /// version no newer than the one this store last wrote to `dir` is a
  /// no-op, so a stale call can never overwrite a newer file. Returns false
  /// and fills *error when nothing is published or the write fails (the
  /// previous file stays intact).
  bool CheckpointTo(const std::string& dir, std::string* error);

  /// Restores the model in `dir/model.ckpt`, rebuilds the live snapshot,
  /// and publishes it with the checkpointed version — store.version()
  /// continues where the checkpointing process left off. Fails (false +
  /// *error) on a missing or corrupt file or when this store has already
  /// published at or past the checkpointed version; the store is left
  /// unchanged on failure.
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

 private:
  ModelStoreOptions options_;
  std::atomic<uint64_t> version_{0};
  mutable std::mutex swap_mutex_;
  std::shared_ptr<const ModelSnapshot> current_;

  /// Checkpoint bookkeeping (guarded by ckpt_mutex_; lock order is
  /// ckpt_mutex_ → swap_mutex_ — CheckpointTo reads Current() while holding
  /// ckpt_mutex_, and nothing acquires them in the reverse order): the
  /// directory last written to or restored from, and the version there.
  mutable std::mutex ckpt_mutex_;
  std::string ckpt_dir_;
  uint64_t ckpt_version_ = 0;

  /// Publish latency, registered for the store's lifetime as
  /// store_publish_us (auto-suffixed when several stores coexist). Recorded
  /// unconditionally, like the InferenceServer's instruments — it is a
  /// serving health signal, not training hot-path cost.
  obs::Histogram publish_us_;
  obs::MetricsRegistry::Registration publish_reg_;
};

}  // namespace warplda::serve

#endif  // WARPLDA_SERVE_MODEL_STORE_H_
