#ifndef WARPLDA_EVAL_TOPIC_MODEL_H_
#define WARPLDA_EVAL_TOPIC_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "corpus/vocabulary.h"

namespace warplda {

/// A trained LDA model: the word-topic counts C_w (sparse rows), global topic
/// counts c_k, and the priors. Built from a corpus plus a topic-assignment
/// vector; consumed by perplexity evaluation, unseen-document inference, and
/// model serialization.
class TopicModel {
 public:
  TopicModel() = default;

  /// Aggregates counts from document-major assignments.
  TopicModel(const Corpus& corpus, const std::vector<TopicId>& assignments,
             uint32_t num_topics, double alpha, double beta);

  /// Assembles a model directly from its components — the checkpoint-restore
  /// path (serve::ModelStore::RestoreFrom replays delta rows onto a base)
  /// and tests. `rows` must hold per-word (topic, count > 0) pairs in
  /// ascending topic order (the class invariant the sparse serving snapshot
  /// binary-searches on) and `ck` the K global topic counts.
  TopicModel(uint32_t num_topics, double alpha, double beta,
             std::vector<std::vector<std::pair<TopicId, int32_t>>> rows,
             std::vector<int64_t> ck)
      : num_topics_(num_topics),
        alpha_(alpha),
        beta_(beta),
        rows_(std::move(rows)),
        ck_(std::move(ck)) {}

  uint32_t num_topics() const { return num_topics_; }
  WordId num_words() const { return static_cast<WordId>(rows_.size()); }
  double alpha() const { return alpha_; }
  double beta() const { return beta_; }

  /// Sparse word-topic counts for word w: (topic, count) pairs, count > 0.
  const std::vector<std::pair<TopicId, int32_t>>& word_topics(WordId w) const {
    return rows_[w];
  }

  /// Global topic counts c_k.
  const std::vector<int64_t>& topic_counts() const { return ck_; }

  /// Smoothed topic-word probability φ̂_wk = (C_wk + β)/(C_k + β̄), Eq. (4).
  double Phi(WordId w, TopicId k) const;

  /// Words whose sparse rows differ from `base`'s — the changed-word set an
  /// incremental publish (serve::ModelStore::PublishDelta) must rebuild.
  /// Words with id >= base.num_words() count as changed; words that exist
  /// only in `base` are not reported (the publish layer falls back to a full
  /// rebuild on vocabulary shrinkage). Sorted ascending; O(total nnz).
  std::vector<WordId> ChangedWords(const TopicModel& base) const;

  /// Top `n` words of topic k by count (ties broken by word id).
  std::vector<std::pair<WordId, int32_t>> TopWords(TopicId k, uint32_t n) const;

  /// Formats topic k's top words using `vocab` (for examples/demos).
  std::string DescribeTopic(TopicId k, const Vocabulary& vocab,
                            uint32_t n) const;

  /// Binary serialization. Returns false and fills *error on failure.
  bool Save(const std::string& path, std::string* error) const;
  bool Load(const std::string& path, std::string* error);

  /// Structural equality (used by serialization round-trip tests).
  bool operator==(const TopicModel& other) const;

 private:
  uint32_t num_topics_ = 0;
  double alpha_ = 0.0;
  double beta_ = 0.0;
  std::vector<std::vector<std::pair<TopicId, int32_t>>> rows_;  // per word
  std::vector<int64_t> ck_;
};

}  // namespace warplda

#endif  // WARPLDA_EVAL_TOPIC_MODEL_H_
