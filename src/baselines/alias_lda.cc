#include "baselines/alias_lda.h"

#include <algorithm>

namespace warplda {

void AliasLdaSampler::Init(const Corpus& corpus, const LdaConfig& config) {
  corpus_ = &corpus;
  config_ = config;
  rng_.Seed(config.seed);
  beta_bar_ = config.beta * corpus.num_words();

  const uint32_t k = config_.num_topics;
  z_.resize(corpus.num_tokens());
  ck_.assign(k, 0);
  cw_.assign(corpus.num_words(), HashCount());
  for (WordId w = 0; w < corpus.num_words(); ++w) {
    cw_[w].Init(std::min<uint32_t>(k, 2 * std::max<uint32_t>(
                                           1, corpus.word_frequency(w))));
  }
  for (TokenIdx t = 0; t < corpus.num_tokens(); ++t) {
    TopicId topic = rng_.NextInt(k);
    z_[t] = topic;
    cw_[corpus.token_word(t)].Inc(topic);
    ++ck_[topic];
  }
  word_proposals_.assign(corpus.num_words(), WordProposal());
  RebuildStaleTables();
}

void AliasLdaSampler::SetPriors(double alpha, double beta) {
  config_.alpha = alpha;
  config_.beta = beta;
  beta_bar_ = beta * corpus_->num_words();
  RebuildStaleTables();
}

void AliasLdaSampler::RebuildStaleTables() {
  const uint32_t k_topics = config_.num_topics;
  const double alpha = config_.alpha;
  const double beta = config_.beta;

  stale_ck_.assign(ck_.begin(), ck_.end());

  std::vector<double> smoothing(k_topics);
  smoothing_weight_ = 0.0;
  for (uint32_t k = 0; k < k_topics; ++k) {
    smoothing[k] = alpha * beta / (stale_ck_[k] + beta_bar_);
    smoothing_weight_ += smoothing[k];
  }
  smoothing_alias_.Build(smoothing);

  std::vector<std::pair<uint32_t, double>> entries;
  for (WordId w = 0; w < corpus_->num_words(); ++w) {
    WordProposal& wp = word_proposals_[w];
    wp.stale_row.clear();
    entries.clear();
    wp.sparse_weight = 0.0;
    cw_[w].ForEachNonZero([&](uint32_t k, int32_t c) {
      double weight = alpha * c / (stale_ck_[k] + beta_bar_);
      entries.emplace_back(k, weight);
      wp.stale_row.emplace_back(k, c);
      wp.sparse_weight += weight;
    });
    std::sort(wp.stale_row.begin(), wp.stale_row.end());
    wp.sparse_alias.BuildSparse(entries);
  }
}

double AliasLdaSampler::StaleDense(WordId w, TopicId k) const {
  const auto& row = word_proposals_[w].stale_row;
  auto it = std::lower_bound(row.begin(), row.end(),
                             std::make_pair(k, INT32_MIN));
  int32_t c = (it != row.end() && it->first == k) ? it->second : 0;
  return config_.alpha * (c + config_.beta) / (stale_ck_[k] + beta_bar_);
}

double AliasLdaSampler::FreshDocTerm(WordId w, TopicId k) const {
  int32_t cdk = cd_.Get(k);
  if (cdk == 0) return 0.0;
  return cdk * (cw_[w].Get(k) + config_.beta) / (ck_[k] + beta_bar_);
}

void AliasLdaSampler::Iterate() {
  const uint32_t k_topics = config_.num_topics;
  const double beta = config_.beta;

  RebuildStaleTables();

  for (DocId d = 0; d < corpus_->num_docs(); ++d) {
    auto words = corpus_->doc_tokens(d);
    if (words.empty()) continue;
    TokenIdx base = corpus_->doc_offset(d);

    cd_.Init(std::min<uint32_t>(k_topics,
                                2 * static_cast<uint32_t>(words.size())));
    for (size_t n = 0; n < words.size(); ++n) cd_.Inc(z_[base + n]);

    for (size_t n = 0; n < words.size(); ++n) {
      const WordId w = words[n];
      TopicId current = z_[base + n];

      // ¬dn exclusion.
      cd_.Dec(current);
      cw_[w].Dec(current);
      --ck_[current];
      Trace(reinterpret_cast<const void*>(cw_[w].SlotAddr(current)),
            sizeof(HashCount::Entry), /*random=*/true, /*write=*/true);

      const WordProposal& wp = word_proposals_[w];
      const double dense_weight = wp.sparse_weight + smoothing_weight_;

      for (uint32_t step = 0; step < std::max(1u, config_.mh_steps); ++step) {
        // Fresh sparse doc bucket: Σ_{k∈c_d} C_dk(C_wk+β)/(C_k+β̄).
        double doc_weight = 0.0;
        cd_.ForEachNonZero([&](uint32_t k, int32_t c) {
          doc_weight += c * (cw_[w].Get(k) + beta) / (ck_[k] + beta_bar_);
        });
        Trace(reinterpret_cast<const void*>(cw_[w].slots().data()),
              cw_[w].capacity() *
                  static_cast<uint32_t>(sizeof(HashCount::Entry)),
              /*random=*/true, /*write=*/false);

        // Draw the proposal from [fresh doc term | stale dense term].
        TopicId proposal;
        double u = rng_.NextDouble() * (doc_weight + dense_weight);
        if (u < doc_weight && doc_weight > 0.0) {
          double acc = 0.0;
          uint32_t found = k_topics;
          for (const auto& slot : cd_.slots()) {
            if (slot.key == HashCount::kEmptyKey || slot.value == 0) continue;
            acc += slot.value * (cw_[w].Get(slot.key) + beta) /
                   (ck_[slot.key] + beta_bar_);
            if (acc >= u) {
              found = slot.key;
              break;
            }
          }
          proposal = found < k_topics ? found : current;
        } else if (wp.sparse_weight > 0.0 &&
                   rng_.NextDouble() * dense_weight < wp.sparse_weight) {
          proposal = wp.sparse_alias.Sample(rng_);
        } else {
          proposal = smoothing_alias_.Sample(rng_);
        }

        // MH correction for the stale dense term.
        auto p_fresh = [&](TopicId k) {
          return (cd_.Get(k) + config_.alpha) * (cw_[w].Get(k) + beta) /
                 (ck_[k] + beta_bar_);
        };
        auto q_mix = [&](TopicId k) {
          return FreshDocTerm(w, k) + StaleDense(w, k);
        };
        double accept =
            (p_fresh(proposal) * q_mix(current)) /
            (p_fresh(current) * q_mix(proposal));
        if (accept >= 1.0 || rng_.NextBernoulli(accept)) current = proposal;
      }

      z_[base + n] = current;
      cd_.Inc(current);
      cw_[w].Inc(current);
      ++ck_[current];
      Trace(reinterpret_cast<const void*>(cw_[w].SlotAddr(current)),
            sizeof(HashCount::Entry), /*random=*/true, /*write=*/true);
    }
    TraceScopeEnd();
  }
}

}  // namespace warplda
