#ifndef WARPLDA_BASELINES_FPLUS_LDA_H_
#define WARPLDA_BASELINES_FPLUS_LDA_H_

#include <string>
#include <vector>

#include "baselines/sampler.h"
#include "util/ftree.h"
#include "util/hash_count.h"

namespace warplda {

/// F+LDA (Yu, Hsieh, Yun, Vishwanathan & Dhillon, WWW 2015): exact CGS with
/// AliasLDA's factorization but visiting tokens word-by-word,
///
///   p(z=k) ∝ C_dk·(C_wk+β)/(C_k+β̄)  +  α·(C_wk+β)/(C_k+β̄),
///
/// where the second (dense) term is shared by every token of the current
/// word and kept in an F+ tree: O(K) build per word, O(log K) update per
/// token, O(log K) exact sampling — no staleness, no MH step.
///
/// Because the visiting order is word-major, the document counts C_d are the
/// randomly accessed structure (size O(DK)); this is exactly the access
/// pattern Table 2 attributes to F+LDA.
class FPlusLdaSampler : public Sampler {
 public:
  void Init(const Corpus& corpus, const LdaConfig& config) override;
  void Iterate() override;
  std::vector<TopicId> Assignments() const override { return z_; }
  void SetPriors(double alpha, double beta) override;
  std::string name() const override { return "F+LDA"; }

 private:
  /// Refreshes the F+ tree leaf for topic k from current cw_row_/ck_.
  void RefreshLeaf(TopicId k);

  const Corpus* corpus_ = nullptr;
  LdaConfig config_;
  Rng rng_;
  double beta_bar_ = 0.0;

  std::vector<TopicId> z_;        // document-major (indexed via word_tokens)
  std::vector<DocId> token_doc_;  // document id per document-major position
  std::vector<HashCount> cd_;     // per-document sparse counts (persistent)
  std::vector<int64_t> ck_;       // K
  std::vector<uint32_t> cw_row_;  // K, current word's counts
  FTree dense_tree_;              // over α(C_wk+β)/(C_k+β̄)
};

}  // namespace warplda

#endif  // WARPLDA_BASELINES_FPLUS_LDA_H_
