#ifndef WARPLDA_BASELINES_LIGHT_LDA_H_
#define WARPLDA_BASELINES_LIGHT_LDA_H_

#include <string>
#include <vector>

#include "baselines/sampler.h"
#include "util/alias_table.h"
#include "util/hash_count.h"

namespace warplda {

/// Ablation switches reproducing Fig 7's bridge from LightLDA to WarpLDA.
struct LightLdaOptions {
  /// +DW: acceptance rates use the iteration-start snapshot of C_w and c_k
  /// instead of instantly updated counts.
  bool delay_word_counts = false;
  /// +DD: the document counts C_d (and the doc-proposal distribution) come
  /// from the iteration-start snapshot of Z.
  bool delay_doc_counts = false;
  /// +SP: use WarpLDA's simple word proposal q_word ∝ C_wk + β instead of
  /// LightLDA's q_word ∝ (C_wk+β)/(C_k+β̄).
  bool simple_word_proposal = false;
};

/// LightLDA (Yuan et al., WWW 2015): O(1) Metropolis-Hastings sampling with
/// cycled doc/word proposals (Eq. 6-7 shapes, with CGS's instant updates).
///
/// Per token, performs `mh_steps` cycles; each cycle takes one step with the
/// doc proposal q_doc ∝ C_dk+α (random positioning into z_d, or the α prior)
/// and one step with the word proposal q_word ∝ (C̃_wk+β)/(C̃_k+β̄) drawn
/// from alias tables built once per iteration from stale counts. Acceptance
/// rates use fresh counts with the ¬dn exclusion (unless ablated).
///
/// Tokens are visited document-by-document; the randomly accessed structure
/// is the word-topic table (size O(KV)) — Table 2's LightLDA row.
class LightLdaSampler : public Sampler {
 public:
  explicit LightLdaSampler(const LightLdaOptions& options = {})
      : options_(options) {}

  void Init(const Corpus& corpus, const LdaConfig& config) override;
  void Iterate() override;
  std::vector<TopicId> Assignments() const override { return z_; }
  void SetPriors(double alpha, double beta) override;
  std::string name() const override;

  const LightLdaOptions& options() const { return options_; }

 private:
  /// Rebuilds per-word alias tables and snapshots from current counts.
  void RebuildProposalTables();

  /// Stale word-proposal density q̃_w(k) (unnormalized, matches the alias
  /// tables the proposals are drawn from).
  double StaleWordQ(WordId w, TopicId k) const;

  LightLdaOptions options_;
  const Corpus* corpus_ = nullptr;
  LdaConfig config_;
  Rng rng_;
  double alpha_bar_ = 0.0;
  double beta_bar_ = 0.0;

  std::vector<TopicId> z_;           // document-major, live
  std::vector<TopicId> z_snapshot_;  // iteration-start copy (+DD only)
  std::vector<HashCount> cw_;        // fresh per-word counts
  std::vector<int64_t> ck_;          // fresh global counts
  HashCount cd_;                     // current document (fresh or snapshot)

  // Stale proposal state, rebuilt once per iteration.
  struct WordProposal {
    AliasTable sparse_alias;  // outcomes are topics
    std::vector<std::pair<TopicId, int32_t>> stale_row;  // sorted by topic
    double sparse_weight = 0.0;
  };
  std::vector<WordProposal> word_proposals_;
  AliasTable smoothing_alias_;
  double smoothing_weight_ = 0.0;
  std::vector<int64_t> stale_ck_;
};

}  // namespace warplda

#endif  // WARPLDA_BASELINES_LIGHT_LDA_H_
