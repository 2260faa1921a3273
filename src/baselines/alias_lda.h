#ifndef WARPLDA_BASELINES_ALIAS_LDA_H_
#define WARPLDA_BASELINES_ALIAS_LDA_H_

#include <string>
#include <vector>

#include "baselines/sampler.h"
#include "util/alias_table.h"
#include "util/hash_count.h"

namespace warplda {

/// AliasLDA (Li, Ahmed, Ravi & Smola, KDD 2014): CGS with the factorization
///
///   p(z=k) ∝ C_dk·(C_wk+β)/(C_k+β̄)  +  α·(C_wk+β)/(C_k+β̄)
///            `sparse doc term, fresh`   `dense term, stale alias table`
///
/// The sparse term is enumerated exactly over the non-zero entries of c_d
/// (amortized O(K_d)); the dense term is drawn in O(1) from per-word alias
/// tables built from stale counts, and a Metropolis-Hastings step corrects
/// the staleness. Tokens are visited document-by-document, counts update
/// instantly. The dense term itself decomposes into a per-word sparse alias
/// over α·C̃_wk/(C̃_k+β̄) plus one shared alias over αβ/(C̃_k+β̄).
class AliasLdaSampler : public Sampler {
 public:
  void Init(const Corpus& corpus, const LdaConfig& config) override;
  void Iterate() override;
  std::vector<TopicId> Assignments() const override { return z_; }
  void SetPriors(double alpha, double beta) override;
  std::string name() const override { return "AliasLDA"; }

 private:
  /// Rebuilds the stale proposal structures from the current counts.
  void RebuildStaleTables();

  /// Stale dense-term value ã_w(k) = α(C̃_wk+β)/(C̃_k+β̄).
  double StaleDense(WordId w, TopicId k) const;

  /// Fresh sparse doc-term value C_dk(C_wk+β)/(C_k+β̄).
  double FreshDocTerm(WordId w, TopicId k) const;

  const Corpus* corpus_ = nullptr;
  LdaConfig config_;
  Rng rng_;
  double beta_bar_ = 0.0;

  std::vector<TopicId> z_;     // document-major
  std::vector<HashCount> cw_;  // per-word sparse counts (fresh)
  std::vector<int64_t> ck_;    // K (fresh)
  HashCount cd_;               // current document

  // Stale proposal state, rebuilt once per iteration.
  struct WordProposal {
    AliasTable sparse_alias;  // over α·C̃_wk/(C̃_k+β̄), outcomes = topics
    std::vector<std::pair<TopicId, int32_t>> stale_row;  // sorted by topic
    double sparse_weight = 0.0;  // Σ_k α·C̃_wk/(C̃_k+β̄)
  };
  std::vector<WordProposal> word_proposals_;
  AliasTable smoothing_alias_;     // over αβ/(C̃_k+β̄)
  double smoothing_weight_ = 0.0;  // Σ_k αβ/(C̃_k+β̄)
  std::vector<int64_t> stale_ck_;
};

}  // namespace warplda

#endif  // WARPLDA_BASELINES_ALIAS_LDA_H_
