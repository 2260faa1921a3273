#include "baselines/cgs.h"

#include <algorithm>

namespace warplda {

void CgsSampler::Init(const Corpus& corpus, const LdaConfig& config) {
  corpus_ = &corpus;
  config_ = config;
  rng_.Seed(config.seed);

  const uint32_t k = config_.num_topics;
  z_.resize(corpus.num_tokens());
  cw_.assign(static_cast<size_t>(corpus.num_words()) * k, 0);
  ck_.assign(k, 0);
  cd_row_.assign(k, 0);
  dist_.assign(k, 0.0);

  for (TokenIdx t = 0; t < corpus.num_tokens(); ++t) {
    TopicId topic = rng_.NextInt(k);
    z_[t] = topic;
    ++cw_[static_cast<size_t>(corpus.token_word(t)) * k + topic];
    ++ck_[topic];
  }
}

void CgsSampler::SetPriors(double alpha, double beta) {
  config_.alpha = alpha;
  config_.beta = beta;
}

void CgsSampler::Iterate() {
  const uint32_t k_topics = config_.num_topics;
  const double alpha = config_.alpha;
  const double beta = config_.beta;
  const double beta_bar = beta * corpus_->num_words();

  for (DocId d = 0; d < corpus_->num_docs(); ++d) {
    auto words = corpus_->doc_tokens(d);
    TokenIdx base = corpus_->doc_offset(d);

    // C_d row is only needed while this document is processed; rebuild it
    // from z_d (document-major visiting makes this sequential).
    std::fill(cd_row_.begin(), cd_row_.end(), 0);
    for (size_t n = 0; n < words.size(); ++n) ++cd_row_[z_[base + n]];

    for (size_t n = 0; n < words.size(); ++n) {
      const WordId w = words[n];
      const TopicId old = z_[base + n];
      uint32_t* cw_row = &cw_[static_cast<size_t>(w) * k_topics];

      // Remove the token (the ¬dn exclusion in Eq. (1)).
      --cd_row_[old];
      --cw_row[old];
      --ck_[old];
      Trace(&cw_row[old], sizeof(uint32_t), /*random=*/true, /*write=*/true);

      // Full conditional, Eq. (1): enumerate all K topics.
      double total = 0.0;
      if (config_.alpha_vector.empty()) {
        for (uint32_t k = 0; k < k_topics; ++k) {
          dist_[k] = (cd_row_[k] + alpha) * (cw_row[k] + beta) /
                     (ck_[k] + beta_bar);
          total += dist_[k];
        }
      } else {
        for (uint32_t k = 0; k < k_topics; ++k) {
          dist_[k] = (cd_row_[k] + config_.alpha_vector[k]) *
                     (cw_row[k] + beta) / (ck_[k] + beta_bar);
          total += dist_[k];
        }
      }
      Trace(cw_row, k_topics * sizeof(uint32_t), /*random=*/true,
            /*write=*/false);

      double target = rng_.NextDouble() * total;
      uint32_t sampled = 0;
      double acc = dist_[0];
      while (acc < target && sampled + 1 < k_topics) acc += dist_[++sampled];

      z_[base + n] = sampled;
      ++cd_row_[sampled];
      ++cw_row[sampled];
      ++ck_[sampled];
      Trace(&cw_row[sampled], sizeof(uint32_t), /*random=*/true,
            /*write=*/true);
    }
    TraceScopeEnd();
  }
}

}  // namespace warplda
