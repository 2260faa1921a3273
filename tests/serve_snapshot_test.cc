// Tiered sparse serving snapshots vs the dense reference layout, and the
// incremental (delta) publish path.
//
// The contract under test is *bit*-identity: the sparse layout resolves
// φ̂/q_word through a shared β-floor plus per-word correction spans, but it
// must evaluate the exact same IEEE expressions as the dense V×K layout, so
// every read — and therefore every sampled topic and every θ̂ — matches the
// dense snapshot exactly. EXPECT_EQ on doubles below is deliberate.
#include "serve/model_store.h"

#include <algorithm>
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
using serve::ModelStore;
using serve::ModelStoreOptions;
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

// Randomly reassigns the topics of `fraction` of the tokens.
void Mutate(Fixture& fixture, double fraction, uint64_t seed) {
  Rng rng(seed);
  for (TokenIdx t = 0; t < fixture.corpus.num_tokens(); ++t) {
    if (rng.NextDouble() < fraction) {
      fixture.assignments[t] = rng.NextInt(kTopics);
    }
  }
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

TEST(DeltaPublishTest, MatchesFullPublishAfterRandomizedUpdates) {
  Fixture fixture = MakeFixture(11);
  // The randomized mutations below can touch well over max_delta_fraction
  // of this tiny vocabulary; disable the oversized-delta fallback so every
  // round exercises the actual delta-build machinery.
  ModelStoreOptions options;
  options.max_delta_fraction = 1.0;
  ModelStore store(options);
  auto previous_model = fixture.SharedModel();
  store.Publish(previous_model);
  ASSERT_EQ(store.Current()->arena_chain(), 1u);

  for (int round = 1; round <= 5; ++round) {
    SCOPED_TRACE(round);
    Mutate(fixture, /*fraction=*/0.08, /*seed=*/100 + round);
    auto model = fixture.SharedModel();
    const std::vector<WordId> changed = model->ChangedWords(*previous_model);
    auto delta_snapshot = store.PublishDelta(model, changed);
    EXPECT_EQ(delta_snapshot, store.Current());
    EXPECT_EQ(delta_snapshot->version(), 1u + round);
    EXPECT_EQ(delta_snapshot->arena_chain(), 1u + round);

    ModelSnapshot full(model, delta_snapshot->version());
    ExpectSnapshotsBitIdentical(full, *delta_snapshot);

    // End-to-end: the engine over the delta snapshot samples bit-identically
    // to a fresh full snapshot of the same model.
    SharedInferenceEngine delta_engine(delta_snapshot);
    SharedInferenceEngine full_engine(
        std::make_shared<const ModelSnapshot>(model, 1));
    const std::vector<WordId> doc = {0, 3, 9, 3, 17, 25, 1, 0, 44};
    const auto a = delta_engine.InferTheta(doc, 1234 + round);
    const auto b = full_engine.InferTheta(doc, 1234 + round);
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    previous_model = model;
  }
}

TEST(DeltaPublishTest, EmptyDeltaSharesEverything) {
  Fixture fixture = MakeFixture(21);
  ModelStore store;
  auto model = fixture.SharedModel();
  store.Publish(model);
  auto snapshot = store.PublishDelta(model, std::vector<WordId>{});
  EXPECT_EQ(snapshot->version(), 2u);
  EXPECT_EQ(snapshot->arena_chain(), 1u);  // no arena appended
  ExpectSnapshotsBitIdentical(*store.Current(), ModelSnapshot(model, 2));
}

TEST(DeltaPublishTest, ChainCompactsAtMaxArenaChain) {
  Fixture fixture = MakeFixture(31);
  ModelStoreOptions options;
  options.max_arena_chain = 3;
  options.max_delta_fraction = 1.0;  // only the chain cap should compact here
  ModelStore store(options);
  auto previous_model = fixture.SharedModel();
  store.Publish(previous_model);

  std::vector<size_t> chains;
  for (int round = 0; round < 5; ++round) {
    Mutate(fixture, 0.05, 200 + round);
    auto model = fixture.SharedModel();
    auto snapshot =
        store.PublishDelta(model, model->ChangedWords(*previous_model));
    chains.push_back(snapshot->arena_chain());
    ExpectSnapshotsBitIdentical(*snapshot, ModelSnapshot(model, 1));
    previous_model = model;
  }
  // 1 → 2 → 3 (cap) → compacted full rebuild at 1 → 2.
  EXPECT_EQ(chains, (std::vector<size_t>{2, 3, 1, 2, 3}));
}

TEST(DeltaPublishTest, FallsBackToFullPublishWhenNotApplicable) {
  Fixture fixture = MakeFixture(41);
  auto model = fixture.SharedModel();
  const std::vector<WordId> all(1, 0);

  // No current snapshot yet → full publish.
  ModelStore empty_store;
  auto first = empty_store.PublishDelta(model, all);
  EXPECT_EQ(first->version(), 1u);
  EXPECT_EQ(first->arena_chain(), 1u);

  // Dense store → delta degrades to a dense full publish.
  ModelStoreOptions dense_opts;
  dense_opts.layout = SnapshotLayout::kDense;
  ModelStore dense_store(dense_opts);
  dense_store.Publish(model);
  auto dense_snapshot = dense_store.PublishDelta(model, all);
  EXPECT_EQ(dense_snapshot->version(), 2u);
  EXPECT_EQ(dense_snapshot->layout(), SnapshotLayout::kDense);

  // Vocabulary mismatch → full publish (and correct serving state).
  ModelStore store;
  store.Publish(model);
  CorpusBuilder builder;
  builder.set_num_words(kVocab + 5);
  builder.AddDocument(std::vector<WordId>{0, 1, kVocab + 4});
  Corpus grown = builder.Build();
  auto grown_model = std::make_shared<const TopicModel>(
      TopicModel(grown, {0, 1, 2}, kTopics, 0.2, 0.05));
  auto snapshot = store.PublishDelta(grown_model, all);
  EXPECT_EQ(snapshot->num_words(), kVocab + 5);
  EXPECT_EQ(snapshot->arena_chain(), 1u);
  ExpectSnapshotsBitIdentical(*snapshot, ModelSnapshot(grown_model, 1));
}

TEST(DeltaPublishTest, OversizedDeltaCompactsInsteadOfChaining) {
  Fixture fixture = MakeFixture(71);
  ModelStore store;  // default max_delta_fraction = 0.25
  auto model = fixture.SharedModel();
  store.Publish(model);

  // A small delta (1 word ≪ 25% of V) chains.
  auto chained = store.PublishDelta(model, std::vector<WordId>{3});
  EXPECT_EQ(chained->arena_chain(), 2u);

  // A delta listing half the vocabulary would strand a near-model-sized
  // generation of superseded rows; it must compact via a full rebuild.
  std::vector<WordId> half(kVocab / 2);
  std::iota(half.begin(), half.end(), 0);
  auto compacted = store.PublishDelta(model, half);
  EXPECT_EQ(compacted->arena_chain(), 1u);
  EXPECT_EQ(compacted->version(), 3u);
  ExpectSnapshotsBitIdentical(*compacted, ModelSnapshot(model, 1));
}

TEST(DeltaPublishTest, OutOfRangeAndDuplicateChangedWordsAreTolerated) {
  Fixture fixture = MakeFixture(51);
  ModelStore store;
  auto model = fixture.SharedModel();
  store.Publish(model);
  const std::vector<WordId> messy = {3, 3, 0, kVocab + 100, 3, kVocab, 7, 0};
  auto snapshot = store.PublishDelta(model, messy);
  ExpectSnapshotsBitIdentical(*snapshot, ModelSnapshot(model, 1));
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

// The trainer→server incremental publish loop, end to end: the sampler
// reports its changed-word set, PublishDelta consumes it, and serving
// output matches a from-scratch full publish exactly.
TEST(TrainerDeltaExportTest, WarpLdaSamplerChangedWordsDriveDeltaPublish) {
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

  ModelStore store;
  std::vector<WordId> changed;
  auto model = sampler.ExportSharedModel(&changed);
  // First export: everything is new.
  EXPECT_EQ(changed.size(), model->num_words());
  store.PublishDelta(model, changed);

  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    sampler.Iterate();
    auto previous = model;
    model = sampler.ExportSharedModel(&changed);
    EXPECT_EQ(changed, model->ChangedWords(*previous));
    auto snapshot = store.PublishDelta(model, changed);
    ExpectSnapshotsBitIdentical(*snapshot, ModelSnapshot(model, 1));
  }
}

}  // namespace
}  // namespace warplda
