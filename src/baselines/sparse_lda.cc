#include "baselines/sparse_lda.h"

#include <algorithm>

namespace warplda {

void SparseLdaSampler::Init(const Corpus& corpus, const LdaConfig& config) {
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
  RebuildSmoothing();
}

void SparseLdaSampler::SetPriors(double alpha, double beta) {
  config_.alpha = alpha;
  config_.beta = beta;
  beta_bar_ = beta * corpus_->num_words();
  RebuildSmoothing();
}

void SparseLdaSampler::RebuildSmoothing() {
  s_bucket_ = 0.0;
  for (uint32_t k = 0; k < config_.num_topics; ++k) {
    s_bucket_ += config_.alpha * config_.beta / (ck_[k] + beta_bar_);
  }
}

void SparseLdaSampler::ApplyToken(TopicId k, WordId w, int32_t delta) {
  const double alpha = config_.alpha;
  const double beta = config_.beta;

  // Document count first (r depends on cd with the *current* denominator).
  double denom_old = ck_[k] + beta_bar_;
  r_bucket_ += beta * delta / denom_old;
  cd_.Add(k, delta);

  // Global count: both s and r terms for topic k change denominator.
  ck_[k] += delta;
  double denom_new = ck_[k] + beta_bar_;
  s_bucket_ += alpha * beta * (1.0 / denom_new - 1.0 / denom_old);
  r_bucket_ += beta * cd_.Get(k) * (1.0 / denom_new - 1.0 / denom_old);

  cw_[w].Add(k, delta);
  Trace(reinterpret_cast<const void*>(cw_[w].SlotAddr(k)),
        sizeof(HashCount::Entry), /*random=*/true, /*write=*/true);
}

void SparseLdaSampler::Iterate() {
  const uint32_t k_topics = config_.num_topics;
  const double alpha = config_.alpha;
  const double beta = config_.beta;

  RebuildSmoothing();  // kill accumulated floating-point drift

  for (DocId d = 0; d < corpus_->num_docs(); ++d) {
    auto words = corpus_->doc_tokens(d);
    if (words.empty()) continue;
    TokenIdx base = corpus_->doc_offset(d);

    // Build c_d and the document bucket r for this document.
    cd_.Init(std::min<uint32_t>(k_topics,
                                2 * static_cast<uint32_t>(words.size())));
    r_bucket_ = 0.0;
    for (size_t n = 0; n < words.size(); ++n) {
      TopicId k = z_[base + n];
      cd_.Inc(k);
      Trace(reinterpret_cast<const void*>(cd_.SlotAddr(k)),
            sizeof(HashCount::Entry), /*random=*/true, /*write=*/true);
    }
    cd_.ForEachNonZero([&](uint32_t k, int32_t c) {
      r_bucket_ += beta * c / (ck_[k] + beta_bar_);
    });

    for (size_t n = 0; n < words.size(); ++n) {
      const WordId w = words[n];
      const TopicId old = z_[base + n];
      ApplyToken(old, w, -1);

      // Word bucket q = Σ_{k: C_wk>0} C_wk (C_dk+α)/(C_k+β̄).
      double q_bucket = 0.0;
      const HashCount& cw = cw_[w];
      cw.ForEachNonZero([&](uint32_t k, int32_t c) {
        q_bucket += c * (cd_.Get(k) + alpha) / (ck_[k] + beta_bar_);
      });
      Trace(reinterpret_cast<const void*>(cw.slots().data()),
            cw.capacity() * static_cast<uint32_t>(sizeof(HashCount::Entry)),
            /*random=*/true, /*write=*/false);

      // Pick the bucket, then the topic within it.
      double u = rng_.NextDouble() * (s_bucket_ + r_bucket_ + q_bucket);
      TopicId sampled = k_topics - 1;
      if (u < s_bucket_) {
        // Smoothing bucket: rare (s is tiny), O(K) walk is fine.
        double acc = 0.0;
        for (uint32_t k = 0; k < k_topics; ++k) {
          acc += alpha * beta / (ck_[k] + beta_bar_);
          if (acc >= u) {
            sampled = k;
            break;
          }
        }
      } else if (u < s_bucket_ + r_bucket_) {
        double target = u - s_bucket_;
        double acc = 0.0;
        uint32_t found = k_topics;
        for (const auto& slot : cd_.slots()) {
          if (slot.key == HashCount::kEmptyKey || slot.value == 0) continue;
          acc += beta * slot.value / (ck_[slot.key] + beta_bar_);
          if (acc >= target) {
            found = slot.key;
            break;
          }
        }
        sampled = found < k_topics ? found : sampled;
      } else {
        double target = u - s_bucket_ - r_bucket_;
        double acc = 0.0;
        uint32_t found = k_topics;
        for (const auto& slot : cw.slots()) {
          if (slot.key == HashCount::kEmptyKey || slot.value == 0) continue;
          acc += slot.value * (cd_.Get(slot.key) + alpha) /
                 (ck_[slot.key] + beta_bar_);
          if (acc >= target) {
            found = slot.key;
            break;
          }
        }
        sampled = found < k_topics ? found : sampled;
      }

      z_[base + n] = sampled;
      ApplyToken(sampled, w, +1);
    }
    TraceScopeEnd();
  }
}

}  // namespace warplda
