#include "baselines/light_lda.h"

#include <algorithm>

namespace warplda {

std::string LightLdaSampler::name() const {
  std::string n = "LightLDA";
  if (options_.delay_word_counts) n += "+DW";
  if (options_.delay_doc_counts) n += "+DD";
  if (options_.simple_word_proposal) n += "+SP";
  return n;
}

void LightLdaSampler::Init(const Corpus& corpus, const LdaConfig& config) {
  corpus_ = &corpus;
  config_ = config;
  rng_.Seed(config.seed);
  alpha_bar_ = config.alpha * config.num_topics;
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
  RebuildProposalTables();
}

void LightLdaSampler::SetPriors(double alpha, double beta) {
  config_.alpha = alpha;
  config_.beta = beta;
  alpha_bar_ = alpha * config_.num_topics;
  beta_bar_ = beta * corpus_->num_words();
  RebuildProposalTables();
}

void LightLdaSampler::RebuildProposalTables() {
  const uint32_t k_topics = config_.num_topics;
  const double beta = config_.beta;

  stale_ck_.assign(ck_.begin(), ck_.end());

  // Smoothing branch: β/(C̃_k+β̄) per topic, or a flat β with the simple
  // proposal (then the branch is uniform over topics).
  std::vector<double> smoothing(k_topics);
  smoothing_weight_ = 0.0;
  for (uint32_t k = 0; k < k_topics; ++k) {
    smoothing[k] = options_.simple_word_proposal
                       ? beta
                       : beta / (stale_ck_[k] + beta_bar_);
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
      double weight = options_.simple_word_proposal
                          ? static_cast<double>(c)
                          : c / (stale_ck_[k] + beta_bar_);
      entries.emplace_back(k, weight);
      wp.stale_row.emplace_back(k, c);
      wp.sparse_weight += weight;
    });
    std::sort(wp.stale_row.begin(), wp.stale_row.end());
    wp.sparse_alias.BuildSparse(entries);
  }
}

double LightLdaSampler::StaleWordQ(WordId w, TopicId k) const {
  const auto& row = word_proposals_[w].stale_row;
  auto it = std::lower_bound(row.begin(), row.end(),
                             std::make_pair(k, INT32_MIN));
  int32_t c = (it != row.end() && it->first == k) ? it->second : 0;
  return options_.simple_word_proposal
             ? c + config_.beta
             : (c + config_.beta) / (stale_ck_[k] + beta_bar_);
}

void LightLdaSampler::Iterate() {
  const uint32_t k_topics = config_.num_topics;
  const double alpha = config_.alpha;
  const double beta = config_.beta;
  const bool dw = options_.delay_word_counts;
  const bool dd = options_.delay_doc_counts;

  RebuildProposalTables();
  if (dd) z_snapshot_ = z_;

  for (DocId d = 0; d < corpus_->num_docs(); ++d) {
    auto words = corpus_->doc_tokens(d);
    if (words.empty()) continue;
    const TokenIdx base = corpus_->doc_offset(d);
    const uint32_t len = static_cast<uint32_t>(words.size());

    // Document counts: fresh z (live) or the iteration-start snapshot (+DD).
    const std::vector<TopicId>& z_doc_src = dd ? z_snapshot_ : z_;
    cd_.Init(std::min<uint32_t>(k_topics, 2 * len));
    for (uint32_t n = 0; n < len; ++n) cd_.Inc(z_doc_src[base + n]);

    for (uint32_t n = 0; n < len; ++n) {
      const WordId w = words[n];
      TopicId current = z_[base + n];

      // ¬dn exclusion on the fresh structures (skipped when delayed: the
      // snapshot predates this token's current assignment anyway).
      if (!dd) cd_.Dec(current);
      if (!dw) {
        cw_[w].Dec(current);
        --ck_[current];
        Trace(reinterpret_cast<const void*>(cw_[w].SlotAddr(current)),
              sizeof(HashCount::Entry), /*random=*/true, /*write=*/true);
      }

      // Unnormalized target with the count sources this configuration uses.
      auto p_hat = [&](TopicId k) {
        double cdk = cd_.Get(k);
        double cwk;
        double ckk;
        if (dw) {
          const auto& row = word_proposals_[w].stale_row;
          auto it = std::lower_bound(row.begin(), row.end(),
                                     std::make_pair(k, INT32_MIN));
          cwk = (it != row.end() && it->first == k) ? it->second : 0;
          ckk = static_cast<double>(stale_ck_[k]);
        } else {
          cwk = cw_[w].Get(k);
          ckk = static_cast<double>(ck_[k]);
          Trace(reinterpret_cast<const void*>(cw_[w].SlotAddr(k)),
                sizeof(HashCount::Entry), /*random=*/true, /*write=*/false);
        }
        return (cdk + alpha) * (cwk + beta) / (ckk + beta_bar_);
      };

      // Doc-proposal density as actually sampled: positioning into z_d plus
      // the α branch. The live z array still counts this token once.
      auto q_doc = [&](TopicId k) {
        double cdk = cd_.Get(k);
        if (!dd && k == current) cdk += 1.0;
        return cdk + alpha;
      };

      for (uint32_t step = 0; step < std::max(1u, config_.mh_steps); ++step) {
        // --- Doc-proposal MH step ---
        TopicId t;
        if (rng_.NextDouble() * (len + alpha_bar_) < len) {
          TokenIdx pos = base + rng_.NextInt(len);
          t = z_doc_src[pos];
          // With live counts the positioned entry for this very token holds
          // `original`; mirror what positioning actually returns.
          if (!dd && pos == base + n) t = current;
        } else {
          t = rng_.NextInt(k_topics);
        }
        if (t != current) {
          double accept = (p_hat(t) * q_doc(current)) /
                          (p_hat(current) * q_doc(t));
          if (accept >= 1.0 || rng_.NextBernoulli(accept)) current = t;
        }

        // --- Word-proposal MH step ---
        const WordProposal& wp = word_proposals_[w];
        double total = wp.sparse_weight + smoothing_weight_;
        if (rng_.NextDouble() * total < wp.sparse_weight &&
            !wp.sparse_alias.empty()) {
          t = wp.sparse_alias.Sample(rng_);
        } else {
          t = smoothing_alias_.Sample(rng_);
        }
        Trace(reinterpret_cast<const void*>(wp.stale_row.data()),
              static_cast<uint32_t>(wp.stale_row.size() *
                                    sizeof(std::pair<TopicId, int32_t>)),
              /*random=*/true, /*write=*/false);
        if (t != current) {
          double accept = (p_hat(t) * StaleWordQ(w, current)) /
                          (p_hat(current) * StaleWordQ(w, t));
          if (accept >= 1.0 || rng_.NextBernoulli(accept)) current = t;
        }
      }

      z_[base + n] = current;
      if (!dd) cd_.Inc(current);
      if (!dw) {
        cw_[w].Inc(current);
        ++ck_[current];
        Trace(reinterpret_cast<const void*>(cw_[w].SlotAddr(current)),
              sizeof(HashCount::Entry), /*random=*/true, /*write=*/true);
      }
    }
    TraceScopeEnd();
  }

  // Delayed modes: fold this iteration's reassignments into the fresh
  // structures now so the next iteration's snapshot sees them.
  if (dw) {
    for (auto& row : cw_) row.Clear();
    std::fill(ck_.begin(), ck_.end(), 0);
    for (TokenIdx t = 0; t < corpus_->num_tokens(); ++t) {
      cw_[corpus_->token_word(t)].Inc(z_[t]);
      ++ck_[z_[t]];
    }
  }
}

}  // namespace warplda
