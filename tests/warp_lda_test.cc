#include "core/warp_lda.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "corpus/synthetic.h"
#include "eval/log_likelihood.h"

namespace warplda {
namespace {

Corpus TestCorpus() {
  SyntheticConfig config;
  config.num_docs = 150;
  config.vocab_size = 300;
  config.num_topics = 8;
  config.mean_doc_length = 30;
  config.alpha = 0.08;
  config.seed = 31;
  return GenerateLdaCorpus(config).corpus;
}

TEST(WarpLdaTest, AssignmentsCoverAllTokensWithinRange) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;
  LdaConfig config = LdaConfig::PaperDefaults(16);
  sampler.Init(corpus, config);
  auto z = sampler.Assignments();
  ASSERT_EQ(z.size(), corpus.num_tokens());
  for (TopicId topic : z) EXPECT_LT(topic, config.num_topics);
}

TEST(WarpLdaTest, IterateKeepsAssignmentsInRange) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;
  LdaConfig config = LdaConfig::PaperDefaults(16);
  sampler.Init(corpus, config);
  for (int i = 0; i < 5; ++i) sampler.Iterate();
  for (TopicId topic : sampler.Assignments()) {
    EXPECT_LT(topic, config.num_topics);
  }
}

TEST(WarpLdaTest, LikelihoodImprovesOverTraining) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;
  LdaConfig config = LdaConfig::PaperDefaults(16);
  sampler.Init(corpus, config);
  double initial = JointLogLikelihood(corpus, sampler.Assignments(),
                                      config.num_topics, config.alpha,
                                      config.beta);
  for (int i = 0; i < 30; ++i) sampler.Iterate();
  double trained = JointLogLikelihood(corpus, sampler.Assignments(),
                                      config.num_topics, config.alpha,
                                      config.beta);
  EXPECT_GT(trained, initial + 0.01 * std::abs(initial));
}

TEST(WarpLdaTest, DeterministicForSeedSingleThread) {
  Corpus corpus = TestCorpus();
  LdaConfig config = LdaConfig::PaperDefaults(8);
  config.seed = 555;
  WarpLdaSampler a;
  WarpLdaSampler b;
  a.Init(corpus, config);
  b.Init(corpus, config);
  for (int i = 0; i < 3; ++i) {
    a.Iterate();
    b.Iterate();
  }
  EXPECT_EQ(a.Assignments(), b.Assignments());
}

TEST(WarpLdaTest, DifferentSeedsProduceDifferentChains) {
  Corpus corpus = TestCorpus();
  LdaConfig config = LdaConfig::PaperDefaults(8);
  config.seed = 1;
  WarpLdaSampler a;
  a.Init(corpus, config);
  config.seed = 2;
  WarpLdaSampler b;
  b.Init(corpus, config);
  a.Iterate();
  b.Iterate();
  EXPECT_NE(a.Assignments(), b.Assignments());
}

TEST(WarpLdaTest, UsesMultipleTopicsAfterTraining) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;
  LdaConfig config = LdaConfig::PaperDefaults(16);
  sampler.Init(corpus, config);
  for (int i = 0; i < 10; ++i) sampler.Iterate();
  std::set<TopicId> used;
  for (TopicId topic : sampler.Assignments()) used.insert(topic);
  EXPECT_GT(used.size(), 3u);
}

TEST(WarpLdaTest, MhStepsSweepAllConverge) {
  Corpus corpus = TestCorpus();
  for (uint32_t m : {1u, 2u, 4u}) {
    WarpLdaSampler sampler;
    LdaConfig config = LdaConfig::PaperDefaults(16);
    config.mh_steps = m;
    sampler.Init(corpus, config);
    double initial = JointLogLikelihood(corpus, sampler.Assignments(),
                                        config.num_topics, config.alpha,
                                        config.beta);
    for (int i = 0; i < 20; ++i) sampler.Iterate();
    double trained = JointLogLikelihood(corpus, sampler.Assignments(),
                                        config.num_topics, config.alpha,
                                        config.beta);
    EXPECT_GT(trained, initial) << "M=" << m;
  }
}

TEST(WarpLdaTest, HandlesEmptyDocuments) {
  CorpusBuilder builder;
  builder.AddDocument(std::vector<WordId>{0, 1, 2});
  builder.AddDocument(std::vector<WordId>{});
  builder.AddDocument(std::vector<WordId>{2, 2});
  Corpus corpus = builder.Build();
  WarpLdaSampler sampler;
  sampler.Init(corpus, LdaConfig::PaperDefaults(4));
  for (int i = 0; i < 3; ++i) sampler.Iterate();
  EXPECT_EQ(sampler.Assignments().size(), 5u);
}

// Golden trajectories: FNV-1a hashes of Assignments() after 1, 3 and 10
// Iterate() sweeps, recorded once from the sampler these constants were
// first committed with and never regenerated. Any change to what a sweep
// samples — not just where it runs — breaks them.
uint64_t HashAssignments(const std::vector<TopicId>& z) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (TopicId topic : z) {
    for (int b = 0; b < 4; ++b) {
      h ^= (topic >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// TestCorpus() with an empty document after every fifth one and a
// vocabulary twice as wide as the words in use (odd ids never occur).
Corpus SparseTestCorpus() {
  Corpus base = TestCorpus();
  CorpusBuilder builder;
  builder.set_num_words(2 * base.num_words() + 1);
  for (DocId d = 0; d < base.num_docs(); ++d) {
    std::vector<WordId> words;
    for (WordId w : base.doc_tokens(d)) words.push_back(2 * w);
    builder.AddDocument(words);
    if (d % 5 == 4) builder.AddDocument(std::vector<WordId>{});
  }
  return builder.Build();
}

// Items on both sides of the dense-or-hash count rule (HashCount::
// CapacityFor) in both passes at K=64 and at K=10⁴: 120 short documents
// (mean length 8) interleaved with 24 long ones (mean 2048) over a steep
// Zipf vocabulary. At K=64 the rule's cut is L ≥ 8 (89 dense docs of 144,
// 710 dense words of 1479); at K=10⁴ it is L ≥ 2048 (13 dense docs, 3
// dense words).
Corpus MixedLengthCorpus() {
  SyntheticConfig short_docs;
  short_docs.num_docs = 120;
  short_docs.vocab_size = 1500;
  short_docs.num_topics = 3;
  short_docs.word_zipf_skew = 1.2;
  short_docs.mean_doc_length = 8;
  short_docs.alpha = 0.1;
  short_docs.seed = 41;
  SyntheticConfig long_docs = short_docs;
  long_docs.num_docs = 24;
  long_docs.mean_doc_length = 2048;
  long_docs.seed = 43;
  const Corpus a = GenerateLdaCorpus(short_docs).corpus;
  const Corpus b = GenerateLdaCorpus(long_docs).corpus;
  CorpusBuilder builder;
  builder.set_num_words(short_docs.vocab_size);
  for (DocId d = 0; d < b.num_docs(); ++d) {
    const auto long_doc = b.doc_tokens(d);
    builder.AddDocument(std::vector<WordId>(long_doc.begin(), long_doc.end()));
    for (DocId e = 5 * d; e < 5 * d + 5; ++e) {
      const auto short_doc = a.doc_tokens(e);
      builder.AddDocument(
          std::vector<WordId>(short_doc.begin(), short_doc.end()));
    }
  }
  return builder.Build();
}

struct GoldenCase {
  const char* name;
  uint32_t topics;
  uint32_t mh_steps;
  bool asymmetric;
  bool sparse_corpus;
  bool reassign;  // SetAssignments() between sweeps 2 and 3
  uint64_t after[3];  // hashes after sweeps 1, 3 and 10
  bool mixed_lengths = false;  // MixedLengthCorpus() (overrides sparse_corpus)
};

constexpr GoldenCase kGolden[] = {
    {"k8_m1", 8, 1, false, false, false,
     {0xc6c4564a4a560225ULL, 0x2b248c0a7136f853ULL, 0xb16fab3e129b8f01ULL}},
    {"k8_m2", 8, 2, false, false, false,
     {0x3f2d705a7a52e3a4ULL, 0x744af25846c04d96ULL, 0x784511bfdbc02962ULL}},
    {"k8_m4", 8, 4, false, false, false,
     {0x8191d821f5eff8d5ULL, 0x162ca243bbf2ffe7ULL, 0xb2e6b2b422410f36ULL}},
    {"k1000_m1", 1000, 1, false, false, false,
     {0x86987a82ed653a81ULL, 0x253d5b32403f30a5ULL, 0xfa8bd68aa0f4656fULL}},
    {"k1000_m2", 1000, 2, false, false, false,
     {0xd0b80cca6c1ad88cULL, 0x49ac6f9c1ed0fdc3ULL, 0xd4261d2f0f93d9e6ULL}},
    {"k1000_m4", 1000, 4, false, false, false,
     {0x3ef5461442d338b5ULL, 0xc8c5134f3cafc7a4ULL, 0x8d7a8a131d566f8dULL}},
    {"asymmetric", 16, 2, true, false, false,
     {0xd88ee9f030a3d675ULL, 0x4e8d4e218a2620a4ULL, 0xfc5a0603fe598901ULL}},
    {"empty_docs_unused_words", 8, 2, false, true, false,
     {0x5040c874a2dba781ULL, 0x750a84106d4ec401ULL, 0x5563f42928437f80ULL}},
    {"set_assignments", 16, 2, false, false, true,
     {0x92d62c2bffffb9e3ULL, 0x56b91c75231b6f0fULL, 0xa44040baca07c038ULL}},
    {"mixed_lengths_k64_m2", 64, 2, false, false, false,
     {0xf57ad59b0a37fa55ULL, 0xc9e15a365c261352ULL, 0xb4ae0c4faa482c5dULL},
     true},
    {"mixed_lengths_k10000_m2", 10000, 2, false, false, false,
     {0x1a5c57a095e505a7ULL, 0xeacc1d2f3acce80dULL, 0x4a1bf18e0cb30881ULL},
     true},
};

TEST(WarpLdaTest, GoldenTrajectories) {
  for (const GoldenCase& c : kGolden) {
    const Corpus corpus = c.mixed_lengths   ? MixedLengthCorpus()
                          : c.sparse_corpus ? SparseTestCorpus()
                                            : TestCorpus();
    LdaConfig config = LdaConfig::PaperDefaults(c.topics);
    config.mh_steps = c.mh_steps;
    config.seed = 2024;
    if (c.asymmetric) {
      config.alpha_vector.assign(c.topics, 0.05);
      config.alpha_vector[0] = 1.5;
      config.alpha_vector[5] = 0.5;
    }
    WarpLdaSampler sampler;
    sampler.Init(corpus, config);
    uint64_t got[3] = {0, 0, 0};
    for (int sweep = 1; sweep <= 10; ++sweep) {
      if (c.reassign && sweep == 3) {
        std::vector<TopicId> z = sampler.Assignments();
        for (uint64_t t = 0; t < z.size(); ++t) {
          z[t] = static_cast<TopicId>((z[t] + t) % c.topics);
        }
        sampler.SetAssignments(z);
      }
      sampler.Iterate();
      if (sweep == 1) got[0] = HashAssignments(sampler.Assignments());
      if (sweep == 3) got[1] = HashAssignments(sampler.Assignments());
      if (sweep == 10) got[2] = HashAssignments(sampler.Assignments());
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(got[i], c.after[i])
          << c.name << " after sweep " << (i == 0 ? 1 : i == 1 ? 3 : 10)
          << ": 0x" << std::hex << got[i] << "ULL";
    }
  }
}

TEST(WarpLdaTest, SingleTopicDegenerates) {
  Corpus corpus = TestCorpus();
  WarpLdaSampler sampler;
  LdaConfig config = LdaConfig::PaperDefaults(1);
  sampler.Init(corpus, config);
  sampler.Iterate();
  for (TopicId topic : sampler.Assignments()) EXPECT_EQ(topic, 0u);
}

}  // namespace
}  // namespace warplda
