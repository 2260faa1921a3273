// Tiered sparse serving snapshots vs the dense reference layout, and the
// trainer's changed-word report.
//
// The contract under test is *bit*-identity: the sparse layout resolves
// φ̂/q_word through a shared β-floor plus per-word correction spans, but it
// must evaluate the exact same IEEE expressions as the dense V×K layout, so
// every read — and therefore every sampled topic and every θ̂ — matches the
// dense snapshot exactly. EXPECT_EQ on doubles below is deliberate.
#include "serve/model_store.h"

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/inference.h"
#include "core/trainer.h"
#include "core/warp_lda.h"
#include "corpus/corpus.h"
#include "corpus/synthetic.h"
#include "serve/engine.h"
#include "util/rng.h"

namespace warplda {
namespace {

using serve::ModelSnapshot;
using serve::SharedInferenceEngine;
using serve::SnapshotLayout;

// A randomized corpus + assignments fixture with deliberately hostile word
// rows: word 0 is pinned to a single topic, the top `kZeroTail` ids never
// occur (all-zero rows), and everything in between gets random topics.
constexpr WordId kVocab = 60;
constexpr WordId kZeroTail = 8;
constexpr uint32_t kTopics = 7;

struct Fixture {
  Corpus corpus;
  std::vector<TopicId> assignments;

  TopicModel Model() const {
    return TopicModel(corpus, assignments, kTopics, 0.2, 0.05);
  }
  std::shared_ptr<const TopicModel> SharedModel() const {
    return std::make_shared<const TopicModel>(Model());
  }
};

Fixture MakeFixture(uint64_t seed) {
  Rng rng(seed);
  CorpusBuilder builder;
  builder.set_num_words(kVocab);
  std::vector<std::vector<WordId>> docs(12);
  for (auto& doc : docs) {
    const uint32_t len = 10 + rng.NextInt(30);
    for (uint32_t i = 0; i < len; ++i) {
      doc.push_back(rng.NextInt(kVocab - kZeroTail));
    }
    doc.push_back(0);  // word 0 occurs in every document
    builder.AddDocument(doc);
  }
  Fixture fixture;
  fixture.corpus = builder.Build();
  fixture.assignments.resize(fixture.corpus.num_tokens());
  for (TokenIdx t = 0; t < fixture.corpus.num_tokens(); ++t) {
    // Word 0 is single-topic (always topic 1); everything else random.
    fixture.assignments[t] =
        fixture.corpus.token_word(t) == 0 ? 1 : rng.NextInt(kTopics);
  }
  return fixture;
}

void ExpectSnapshotsBitIdentical(const ModelSnapshot& a,
                                 const ModelSnapshot& b) {
  ASSERT_EQ(a.num_words(), b.num_words());
  ASSERT_EQ(a.num_topics(), b.num_topics());
  for (WordId w = 0; w < a.num_words(); ++w) {
    SCOPED_TRACE(w);
    EXPECT_EQ(a.word_count_prob(w), b.word_count_prob(w));
    for (TopicId k = 0; k < a.num_topics(); ++k) {
      EXPECT_EQ(a.Phi(w, k), b.Phi(w, k));
      EXPECT_EQ(a.QWord(w, k), b.QWord(w, k));
    }
    // Alias tables have no public state beyond their sampling behavior:
    // identical tables must reproduce the same draw sequence.
    Rng rng_a(909), rng_b(909);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(a.word_alias(w).Sample(rng_a), b.word_alias(w).Sample(rng_b));
    }
  }
}

TEST(SparseSnapshotTest, MatchesDenseOnRandomModels) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    auto model = MakeFixture(seed).SharedModel();
    ModelSnapshot dense(model, 1, SnapshotLayout::kDense);
    ModelSnapshot sparse(model, 1, SnapshotLayout::kSparseTiered);
    EXPECT_EQ(dense.layout(), SnapshotLayout::kDense);
    EXPECT_EQ(sparse.layout(), SnapshotLayout::kSparseTiered);
    ExpectSnapshotsBitIdentical(dense, sparse);
  }
}

TEST(SparseSnapshotTest, AllZeroAndSingleTopicRows) {
  Fixture fixture = MakeFixture(3);
  auto model = fixture.SharedModel();
  ModelSnapshot sparse(model, 1);
  ModelSnapshot dense(model, 1, SnapshotLayout::kDense);

  // All-zero rows: never-seen words read pure floor, bit-equal to dense.
  for (WordId w = kVocab - kZeroTail; w < kVocab; ++w) {
    ASSERT_TRUE(model->word_topics(w).empty());
    EXPECT_EQ(sparse.word_count_prob(w), 0.0);
    for (TopicId k = 0; k < kTopics; ++k) {
      EXPECT_EQ(sparse.Phi(w, k), dense.Phi(w, k));
    }
    // The degenerate alias still answers (uniform over outcome 0).
    Rng rng(4);
    EXPECT_EQ(sparse.word_alias(w).Sample(rng), 0u);
  }

  // Single-topic row: word 0 only ever carries topic 1.
  ASSERT_EQ(model->word_topics(0).size(), 1u);
  ASSERT_EQ(model->word_topics(0)[0].first, 1u);
  for (TopicId k = 0; k < kTopics; ++k) {
    EXPECT_EQ(sparse.Phi(0, k), dense.Phi(0, k));
    EXPECT_EQ(sparse.QWord(0, k), dense.QWord(0, k));
  }
}

TEST(SparseSnapshotTest, FootprintIsSparse) {
  // A wide model (large K) with short rows: the dense layout pays V×K
  // doubles, the tiered layout only K floor entries + nnz corrections.
  CorpusBuilder builder;
  constexpr WordId kWideVocab = 500;
  constexpr uint32_t kWideTopics = 256;
  builder.set_num_words(kWideVocab);
  std::vector<WordId> doc;
  for (WordId w = 0; w < kWideVocab; ++w) doc.push_back(w);
  builder.AddDocument(doc);
  Corpus corpus = builder.Build();
  std::vector<TopicId> z(corpus.num_tokens());
  for (TokenIdx t = 0; t < corpus.num_tokens(); ++t) {
    z[t] = static_cast<TopicId>(t % 3);  // nnz = 1 per word
  }
  auto model = std::make_shared<const TopicModel>(
      TopicModel(corpus, z, kWideTopics, 0.1, 0.01));
  ModelSnapshot dense(model, 1, SnapshotLayout::kDense);
  ModelSnapshot sparse(model, 1);
  EXPECT_GT(dense.ApproxBytes(), 5 * sparse.ApproxBytes());
}

// The regression gate from the issue: inference output (sampled topics →
// θ̂) under fixed seeds is bit-identical between dense and sparse
// snapshots, through the public engine.
TEST(EngineBitIdentityTest, DenseAndSparseEnginesAgreeExactly) {
  SyntheticConfig synth;
  synth.num_docs = 200;
  synth.vocab_size = 300;
  synth.num_topics = 6;
  synth.mean_doc_length = 30;
  synth.seed = 77;
  SyntheticCorpus data = GenerateLdaCorpus(synth);

  LdaConfig config = LdaConfig::PaperDefaults(6);
  WarpLdaSampler sampler;
  TrainOptions train_options;
  train_options.iterations = 15;
  train_options.eval_every = 0;
  Train(sampler, data.corpus, config, train_options);
  auto model = sampler.ExportSharedModel();

  SharedInferenceEngine dense(std::make_shared<const ModelSnapshot>(
      model, 1, SnapshotLayout::kDense));
  SharedInferenceEngine sparse(std::make_shared<const ModelSnapshot>(
      model, 1, SnapshotLayout::kSparseTiered));
  for (DocId d = 0; d < 32; ++d) {
    SCOPED_TRACE(d);
    auto tokens = data.corpus.doc_tokens(d);
    std::vector<WordId> doc(tokens.begin(), tokens.end());
    const auto theta_dense = dense.InferTheta(doc, 1000 + d);
    const auto theta_sparse = sparse.InferTheta(doc, 1000 + d);
    ASSERT_EQ(theta_dense.size(), theta_sparse.size());
    for (size_t k = 0; k < theta_dense.size(); ++k) {
      EXPECT_EQ(theta_dense[k], theta_sparse[k]);
    }
    EXPECT_EQ(dense.MostLikelyTopic(doc, 1000 + d),
              sparse.MostLikelyTopic(doc, 1000 + d));
  }
}

// A fresh Inferencer and the serving engine share MhInferTheta and read
// bit-identical model views, so their first draw under the same seed must
// match exactly — offline and serving inference cannot drift.
TEST(EngineBitIdentityTest, InferencerMatchesSparseEngineOnFirstDraw) {
  Fixture fixture = MakeFixture(61);
  auto model = fixture.SharedModel();
  const std::vector<WordId> doc = {0, 2, 4, 8, 16, 2, 0};
  const uint64_t seed = 555;

  InferenceOptions options;
  options.seed = seed;
  Inferencer lazy(model, options);
  Inferencer eager(model, options);
  eager.Prebuild();
  SharedInferenceEngine engine(std::make_shared<const ModelSnapshot>(model, 1));

  const auto theta_engine = engine.InferTheta(doc, seed);
  const auto theta_lazy = lazy.InferTheta(doc);
  const auto theta_eager = eager.InferTheta(doc);
  for (size_t k = 0; k < theta_engine.size(); ++k) {
    EXPECT_EQ(theta_engine[k], theta_lazy[k]);
    EXPECT_EQ(theta_engine[k], theta_eager[k]);
  }
}

// WarpLdaSampler::ExportSharedModel(&changed) lists every word on the first
// export and, after that, exactly the words whose rows moved since the
// previous export.
TEST(TrainerDeltaExportTest, WarpLdaSamplerReportsChangedWords) {
  SyntheticConfig synth;
  synth.num_docs = 150;
  synth.vocab_size = 250;
  synth.num_topics = 5;
  synth.mean_doc_length = 25;
  synth.seed = 13;
  SyntheticCorpus data = GenerateLdaCorpus(synth);

  LdaConfig config = LdaConfig::PaperDefaults(5);
  WarpLdaSampler sampler;
  sampler.Init(data.corpus, config);

  std::vector<WordId> changed;
  auto model = sampler.ExportSharedModel(&changed);
  std::vector<WordId> all(model->num_words());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(changed, all);

  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    sampler.Iterate();
    auto previous = model;
    model = sampler.ExportSharedModel(&changed);
    EXPECT_EQ(changed, model->ChangedWords(*previous));
  }
}

}  // namespace
}  // namespace warplda
