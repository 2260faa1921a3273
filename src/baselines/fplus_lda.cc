#include "baselines/fplus_lda.h"

#include <algorithm>

namespace warplda {

void FPlusLdaSampler::Init(const Corpus& corpus, const LdaConfig& config) {
  corpus_ = &corpus;
  config_ = config;
  rng_.Seed(config.seed);
  beta_bar_ = config.beta * corpus.num_words();

  const uint32_t k = config_.num_topics;
  z_.resize(corpus.num_tokens());
  ck_.assign(k, 0);
  cw_row_.assign(k, 0);
  dense_tree_.Reset(k);

  token_doc_.resize(corpus.num_tokens());
  cd_.assign(corpus.num_docs(), HashCount());
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    uint32_t len = corpus.doc_length(d);
    cd_[d].Init(std::min<uint32_t>(k, 2 * std::max<uint32_t>(1, len)));
    TokenIdx base = corpus.doc_offset(d);
    for (uint32_t n = 0; n < len; ++n) token_doc_[base + n] = d;
  }

  for (TokenIdx t = 0; t < corpus.num_tokens(); ++t) {
    TopicId topic = rng_.NextInt(k);
    z_[t] = topic;
    cd_[token_doc_[t]].Inc(topic);
    ++ck_[topic];
  }
}

void FPlusLdaSampler::SetPriors(double alpha, double beta) {
  config_.alpha = alpha;
  config_.beta = beta;
  beta_bar_ = beta * corpus_->num_words();
}

void FPlusLdaSampler::RefreshLeaf(TopicId k) {
  dense_tree_.Update(
      k, config_.alpha * (cw_row_[k] + config_.beta) / (ck_[k] + beta_bar_));
}

void FPlusLdaSampler::Iterate() {
  const uint32_t k_topics = config_.num_topics;
  const double beta = config_.beta;

  for (WordId w = 0; w < corpus_->num_words(); ++w) {
    auto occurrences = corpus_->word_tokens(w);
    if (occurrences.empty()) continue;

    // Build this word's dense counts and the F+ tree over the shared term.
    std::fill(cw_row_.begin(), cw_row_.end(), 0);
    for (TokenIdx t : occurrences) ++cw_row_[z_[t]];
    std::vector<double> leaves(k_topics);
    for (uint32_t k = 0; k < k_topics; ++k) {
      leaves[k] = config_.alpha * (cw_row_[k] + beta) / (ck_[k] + beta_bar_);
    }
    dense_tree_.Build(leaves);

    for (TokenIdx t : occurrences) {
      const DocId d = token_doc_[t];
      const TopicId old = z_[t];
      HashCount& cd = cd_[d];

      // ¬dn exclusion with instant updates; the tree leaf for `old` changes
      // because both C_wk and C_k changed.
      cd.Dec(old);
      --cw_row_[old];
      --ck_[old];
      RefreshLeaf(old);
      Trace(reinterpret_cast<const void*>(cd.SlotAddr(old)),
            sizeof(HashCount::Entry), /*random=*/true, /*write=*/true);

      // Sparse doc bucket: Σ_{k∈c_d} C_dk(C_wk+β)/(C_k+β̄).
      double doc_weight = 0.0;
      cd.ForEachNonZero([&](uint32_t k, int32_t c) {
        doc_weight += c * (cw_row_[k] + beta) / (ck_[k] + beta_bar_);
      });
      Trace(reinterpret_cast<const void*>(cd.slots().data()),
            cd.capacity() * static_cast<uint32_t>(sizeof(HashCount::Entry)),
            /*random=*/true, /*write=*/false);

      TopicId sampled;
      double u = rng_.NextDouble() * (doc_weight + dense_tree_.Total());
      if (u < doc_weight) {
        double acc = 0.0;
        uint32_t found = k_topics;
        for (const auto& slot : cd.slots()) {
          if (slot.key == HashCount::kEmptyKey || slot.value == 0) continue;
          acc += slot.value * (cw_row_[slot.key] + beta) /
                 (ck_[slot.key] + beta_bar_);
          if (acc >= u) {
            found = slot.key;
            break;
          }
        }
        sampled = found < k_topics ? found : old;
      } else {
        sampled = dense_tree_.Sample(rng_);
      }

      z_[t] = sampled;
      cd.Inc(sampled);
      ++cw_row_[sampled];
      ++ck_[sampled];
      RefreshLeaf(sampled);
      Trace(reinterpret_cast<const void*>(cd.SlotAddr(sampled)),
            sizeof(HashCount::Entry), /*random=*/true, /*write=*/true);
    }
    TraceScopeEnd();
  }
}

}  // namespace warplda
