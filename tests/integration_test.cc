// End-to-end pipeline tests: corpus -> training -> model -> serialization ->
// inference -> held-out evaluation, crossing every library boundary.
#include <gtest/gtest.h>

#include "cachesim/access_stats.h"
#include "cachesim/cache_sim.h"
#include "core/inference.h"
#include "core/trainer.h"
#include "core/warp_lda.h"
#include "baselines/light_lda.h"
#include "corpus/synthetic.h"
#include "corpus/tokenizer.h"
#include "corpus/uci.h"
#include "eval/log_likelihood.h"
#include "eval/perplexity.h"

namespace warplda {
namespace {

TEST(IntegrationTest, TrainSaveLoadInferPipeline) {
  SyntheticConfig config;
  config.num_docs = 200;
  config.vocab_size = 400;
  config.num_topics = 6;
  config.mean_doc_length = 40;
  config.alpha = 0.05;
  config.seed = 13;
  SyntheticCorpus sc = GenerateLdaCorpus(config);

  WarpLdaSampler sampler;
  LdaConfig lda = LdaConfig::PaperDefaults(12);
  TrainOptions options;
  options.iterations = 40;
  options.eval_every = 10;
  TrainResult result = Train(sampler, sc.corpus, lda, options);
  EXPECT_GT(result.history.back().log_likelihood,
            result.history.front().log_likelihood);

  TopicModel model = result.ToModel(sc.corpus, lda);
  std::string path = testing::TempDir() + "/integration_model.bin";
  std::string error;
  ASSERT_TRUE(model.Save(path, &error)) << error;
  TopicModel loaded;
  ASSERT_TRUE(loaded.Load(path, &error)) << error;
  ASSERT_TRUE(model == loaded);

  Inferencer inferencer(loaded);
  auto theta = inferencer.InferTheta(sc.corpus.doc_tokens(0));
  double total = 0.0;
  for (double t : theta) total += t;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(IntegrationTest, WarpLdaRecoversPlantedStructure) {
  // Strongly separated synthetic topics must be recovered: the trained
  // model's perplexity should approach the oracle and beat a random model.
  SyntheticConfig config;
  config.num_docs = 300;
  config.vocab_size = 200;
  config.num_topics = 4;
  config.mean_doc_length = 60;
  config.alpha = 0.03;
  config.word_zipf_skew = 1.3;  // concentrated topics -> separable structure
  config.seed = 17;
  config.num_docs = 360;
  SyntheticCorpus generated = GenerateLdaCorpus(config);
  // Split one generated corpus so train and held-out share the same topics
  // (a re-seeded generator would plant different vocabulary permutations).
  CorpusBuilder train_builder;
  CorpusBuilder heldout_builder;
  train_builder.set_num_words(config.vocab_size);
  heldout_builder.set_num_words(config.vocab_size);
  for (DocId d = 0; d < generated.corpus.num_docs(); ++d) {
    auto words = generated.corpus.doc_tokens(d);
    std::vector<WordId> doc(words.begin(), words.end());
    if (d < 300) {
      train_builder.AddDocument(doc);
    } else {
      heldout_builder.AddDocument(doc);
    }
  }
  struct {
    Corpus corpus;
    std::vector<TopicId> true_topics;
  } train{train_builder.Build(), {}}, heldout{heldout_builder.Build(), {}};
  train.true_topics.assign(generated.true_topics.begin(),
                           generated.true_topics.begin() +
                               train.corpus.num_tokens());

  // PaperDefaults' α=50/K rule targets K in the thousands; at K=4 it would
  // force near-uniform θ and wash out the planted structure.
  LdaConfig lda = LdaConfig::PaperDefaults(4);
  lda.alpha = 0.1;
  WarpLdaSampler sampler;
  TrainOptions options;
  options.iterations = 60;
  options.eval_every = 0;
  TrainResult result = Train(sampler, train.corpus, lda, options);
  TopicModel trained = result.ToModel(train.corpus, lda);

  // Random-assignment model as the straw man.
  Rng rng(3);
  std::vector<TopicId> random_z(train.corpus.num_tokens());
  for (auto& z : random_z) z = rng.NextInt(lda.num_topics);
  TopicModel random_model(train.corpus, random_z, lda.num_topics, lda.alpha,
                          lda.beta);
  // Oracle model from the generator's true topics.
  TopicModel oracle(train.corpus, train.true_topics, config.num_topics,
                    lda.alpha, lda.beta);

  double ppl_trained = HeldOutPerplexity(trained, heldout.corpus);
  double ppl_random = HeldOutPerplexity(random_model, heldout.corpus);
  double ppl_oracle = HeldOutPerplexity(oracle, heldout.corpus);
  EXPECT_LT(ppl_trained, 0.8 * ppl_random);
  EXPECT_LT(ppl_trained, 1.5 * ppl_oracle);
}

TEST(IntegrationTest, TextPipelineToTopics) {
  std::vector<std::string> texts;
  for (int i = 0; i < 30; ++i) {
    texts.push_back("stock market trading price shares profit economy");
    texts.push_back("football match goal player team score league");
  }
  TokenizedCorpus tc = BuildCorpusFromTexts(texts);

  LdaConfig lda = LdaConfig::PaperDefaults(2);
  WarpLdaSampler sampler;
  TrainOptions options;
  options.iterations = 50;
  options.eval_every = 0;
  TrainResult result = Train(sampler, tc.corpus, lda, options);
  TopicModel model = result.ToModel(tc.corpus, lda);

  // The two planted themes should separate: "market" and "football" end up
  // dominated by different topics.
  WordId market = tc.vocabulary.Find("market");
  WordId football = tc.vocabulary.Find("football");
  ASSERT_NE(market, Vocabulary::kNotFound);
  ASSERT_NE(football, Vocabulary::kNotFound);
  auto dominant = [&](WordId w) {
    TopicId best = 0;
    int32_t best_count = -1;
    for (const auto& [k, c] : model.word_topics(w)) {
      if (c > best_count) {
        best_count = c;
        best = k;
      }
    }
    return best;
  };
  EXPECT_NE(dominant(market), dominant(football));
}

TEST(IntegrationTest, UciRoundTripTrainsIdentically) {
  SyntheticConfig config;
  config.num_docs = 80;
  config.vocab_size = 150;
  config.seed = 23;
  Corpus original = GenerateLdaCorpus(config).corpus;
  std::string path = testing::TempDir() + "/integration_docword.txt";
  std::string error;
  ASSERT_TRUE(uci::WriteDocword(original, path, &error)) << error;
  Corpus reloaded;
  ASSERT_TRUE(uci::ReadDocword(path, &reloaded, &error)) << error;

  // Same shape; training runs and converges on the reloaded corpus.
  ASSERT_EQ(reloaded.num_tokens(), original.num_tokens());
  WarpLdaSampler sampler;
  LdaConfig lda = LdaConfig::PaperDefaults(8);
  sampler.Init(reloaded, lda);
  double initial = JointLogLikelihood(reloaded, sampler.Assignments(),
                                      lda.num_topics, lda.alpha, lda.beta);
  for (int i = 0; i < 10; ++i) sampler.Iterate();
  EXPECT_GT(JointLogLikelihood(reloaded, sampler.Assignments(),
                               lda.num_topics, lda.alpha, lda.beta),
            initial);
}

TEST(IntegrationTest, TracedWarpLdaFootprintSmallerThanLightLda) {
  // The core memory-efficiency claim (Table 2 / §3.3) on real executions:
  // WarpLDA's randomly accessed bytes per scope are bounded by O(K) while
  // LightLDA's grow with the number of distinct words (O(KV) structure).
  SyntheticConfig config;
  config.num_docs = 150;
  config.vocab_size = 2000;
  config.mean_doc_length = 80;
  config.seed = 29;
  Corpus corpus = GenerateLdaCorpus(config).corpus;
  LdaConfig lda = LdaConfig::PaperDefaults(64);
  lda.mh_steps = 1;

  AccessStats warp_stats;
  WarpLdaSampler warp;
  warp.Init(corpus, lda);
  warp.set_tracer(&warp_stats);
  warp.Iterate();

  // Trace fidelity: the sweep visits each non-empty word and document as
  // one scope that builds its count table (one traced write) and probes it
  // once per non-self proposal. Access and scope counts are exact.
  EXPECT_EQ(warp_stats.random_accesses(), 23746u);
  EXPECT_EQ(warp_stats.scopes(), 1988u);
  // Bytes per scope count distinct 64-byte lines. Count tables are
  // cache-line aligned, so the figure depends on table sizes only, not on
  // where the heap puts them. At K=64 an item whose HashCount would have
  // 32 or more slots (256 B or more) is counted in a 64-entry int32_t
  // array instead (256 B, 4 lines), the dense-or-hash rule. The 1988
  // scopes (1838 words, 150 docs) split as 1488 hash tables of 4, 8 or 16
  // slots (279, 649 and 560 words: 1, 1 and 2 lines, 2048 lines) and 500
  // dense arrays (350 words and every doc: 2000 lines), 4048 lines in all;
  // all-hash, the 500 would have spanned 218·4 + 82·8 + 200·16 = 4728 lines
  // (6776 in all, max 16 lines). A scope traced twice or a table traced at
  // the wrong size moves either figure.
  EXPECT_EQ(warp_stats.mean_random_bytes_per_scope(), 64.0 * 4048 / 1988);
  EXPECT_EQ(warp_stats.max_random_bytes_per_scope(), 256u);

  AccessStats light_stats;
  LightLdaSampler light;
  light.Init(corpus, lda);
  light.set_tracer(&light_stats);
  light.Iterate();

  EXPECT_LT(warp_stats.mean_random_bytes_per_scope() * 4,
            light_stats.mean_random_bytes_per_scope());
}

TEST(IntegrationTest, CacheSimRanksWarpBelowLightLda) {
  // Table 4's qualitative claim with a small simulated cache.
  SyntheticConfig config;
  config.num_docs = 120;
  config.vocab_size = 3000;
  config.mean_doc_length = 60;
  config.seed = 37;
  Corpus corpus = GenerateLdaCorpus(config).corpus;
  LdaConfig lda = LdaConfig::PaperDefaults(128);
  lda.mh_steps = 1;

  CacheConfig cache;
  cache.size_bytes = 64 * 1024;  // small cache so the gap shows quickly
  cache.associativity = 8;

  CacheSim warp_cache(cache);
  WarpLdaSampler warp;
  warp.Init(corpus, lda);
  warp.set_tracer(&warp_cache);
  warp.Iterate();

  CacheSim light_cache(cache);
  LightLdaSampler light;
  light.Init(corpus, lda);
  light.set_tracer(&light_cache);
  light.Iterate();

  EXPECT_LT(warp_cache.miss_rate(), light_cache.miss_rate());
}

}  // namespace
}  // namespace warplda
