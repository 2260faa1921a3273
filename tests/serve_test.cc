#include "serve/server.h"

#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/inference.h"
#include "core/trainer.h"
#include "core/warp_lda.h"
#include "corpus/synthetic.h"
#include "serve/engine.h"
#include "serve/model_store.h"

namespace warplda {
namespace {

using serve::InferenceResult;
using serve::InferenceServer;
using serve::ModelSnapshot;
using serve::ModelStore;
using serve::ServerOptions;
using serve::SharedInferenceEngine;
using serve::SnapshotLayout;

// Hand-built model with two disjoint topics: topic 0 owns words 0-4,
// topic 1 owns words 5-9 (same fixture as inference_test.cc).
TopicModel DisjointModel() {
  CorpusBuilder builder;
  builder.set_num_words(10);
  std::vector<WordId> doc0;
  std::vector<WordId> doc1;
  for (int rep = 0; rep < 40; ++rep) {
    doc0.push_back(rep % 5);
    doc1.push_back(5 + rep % 5);
  }
  builder.AddDocument(doc0);
  builder.AddDocument(doc1);
  Corpus corpus = builder.Build();
  std::vector<TopicId> z(corpus.num_tokens());
  for (TokenIdx t = 0; t < corpus.num_tokens(); ++t) {
    z[t] = corpus.token_word(t) < 5 ? 0 : 1;
  }
  return TopicModel(corpus, z, 2, 0.5, 0.01);
}

// A second, distinguishable model: the topics swapped.
TopicModel SwappedModel() {
  CorpusBuilder builder;
  builder.set_num_words(10);
  std::vector<WordId> doc0;
  std::vector<WordId> doc1;
  for (int rep = 0; rep < 40; ++rep) {
    doc0.push_back(rep % 5);
    doc1.push_back(5 + rep % 5);
  }
  builder.AddDocument(doc0);
  builder.AddDocument(doc1);
  Corpus corpus = builder.Build();
  std::vector<TopicId> z(corpus.num_tokens());
  for (TokenIdx t = 0; t < corpus.num_tokens(); ++t) {
    z[t] = corpus.token_word(t) < 5 ? 1 : 0;
  }
  return TopicModel(corpus, z, 2, 0.5, 0.01);
}

void ExpectValidTheta(const std::vector<double>& theta, uint32_t k_topics) {
  ASSERT_EQ(theta.size(), k_topics);
  double sum = 0.0;
  for (double t : theta) {
    EXPECT_GE(t, 0.0);
    sum += t;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ModelSnapshotTest, PrebuiltPhiMatchesModel) {
  auto model = std::make_shared<const TopicModel>(DisjointModel());
  ModelSnapshot snapshot(model, 1);
  ASSERT_EQ(snapshot.num_words(), model->num_words());
  ASSERT_EQ(snapshot.num_topics(), model->num_topics());
  for (WordId w = 0; w < model->num_words(); ++w) {
    for (TopicId k = 0; k < model->num_topics(); ++k) {
      EXPECT_DOUBLE_EQ(snapshot.Phi(w, k), model->Phi(w, k));
    }
    EXPECT_FALSE(snapshot.word_alias(w).empty());
  }
}

TEST(ModelSnapshotTest, QWordRecoversCountPlusBeta) {
  auto model = std::make_shared<const TopicModel>(DisjointModel());
  ModelSnapshot snapshot(model, 1);
  for (WordId w = 0; w < model->num_words(); ++w) {
    std::vector<double> counts(model->num_topics(), 0.0);
    for (const auto& [k, c] : model->word_topics(w)) counts[k] = c;
    for (TopicId k = 0; k < model->num_topics(); ++k) {
      EXPECT_NEAR(snapshot.QWord(w, k), counts[k] + model->beta(), 1e-9);
    }
  }
}

TEST(ModelStoreTest, PublishBumpsVersionAndSwapsSnapshot) {
  ModelStore store;
  EXPECT_EQ(store.Current(), nullptr);
  EXPECT_EQ(store.version(), 0u);
  auto first = store.Publish(DisjointModel());
  EXPECT_EQ(first->version(), 1u);
  EXPECT_EQ(store.Current(), first);
  auto second = store.Publish(SwappedModel());
  EXPECT_EQ(second->version(), 2u);
  EXPECT_EQ(store.Current(), second);
  // The old snapshot stays fully usable for readers that still hold it.
  EXPECT_GT(first->Phi(0, 0), first->Phi(0, 1));
  EXPECT_GT(second->Phi(0, 1), second->Phi(0, 0));
  // The store's one option picks the layout of every snapshot it builds.
  EXPECT_EQ(first->layout(), SnapshotLayout::kSparseTiered);
  ModelStore dense_store({.layout = SnapshotLayout::kDense});
  EXPECT_EQ(dense_store.Publish(DisjointModel())->layout(),
            SnapshotLayout::kDense);
}

// Racing publishers: versions are assigned at swap time, so the final state
// is always consistent — version() matches Current()->version() and counts
// every publish exactly once.
TEST(ModelStoreTest, ConcurrentPublishersKeepVersionConsistent) {
  ModelStore store;
  constexpr int kThreads = 4;
  constexpr int kPublishesEach = 5;
  std::vector<std::thread> publishers;
  for (int i = 0; i < kThreads; ++i) {
    publishers.emplace_back([&store, i] {
      for (int rep = 0; rep < kPublishesEach; ++rep) {
        store.Publish(i % 2 == 0 ? DisjointModel() : SwappedModel());
      }
    });
  }
  for (auto& thread : publishers) thread.join();
  EXPECT_EQ(store.version(), kThreads * kPublishesEach);
  ASSERT_NE(store.Current(), nullptr);
  EXPECT_EQ(store.Current()->version(), kThreads * kPublishesEach);
}

TEST(SharedInferenceEngineTest, RecognizesTopicsAndSumsToOne) {
  ModelStore store;
  store.Publish(DisjointModel());
  SharedInferenceEngine engine(store.Current());
  std::vector<WordId> doc0 = {0, 1, 2, 0, 1, 2, 3, 4};
  std::vector<WordId> doc1 = {5, 6, 7, 8, 9, 5, 6, 7};
  auto theta0 = engine.InferTheta(doc0, 7);
  auto theta1 = engine.InferTheta(doc1, 7);
  ExpectValidTheta(theta0, 2);
  ExpectValidTheta(theta1, 2);
  EXPECT_GT(theta0[0], 0.8);
  EXPECT_GT(theta1[1], 0.8);
  EXPECT_EQ(engine.MostLikelyTopic(doc0, 7), 0u);
  EXPECT_EQ(engine.MostLikelyTopic(doc1, 7), 1u);
}

// The serving contract: θ̂ is a pure function of (snapshot, words, seed), so
// 8 threads hammering one shared engine must all reproduce the
// single-threaded reference bit for bit.
TEST(SharedInferenceEngineTest, DeterministicAcrossEightConcurrentWorkers) {
  ModelStore store;
  store.Publish(DisjointModel());
  SharedInferenceEngine engine(store.Current());
  const std::vector<WordId> doc = {0, 5, 1, 6, 2, 7, 0, 1};
  const uint64_t seed = 31;
  const auto reference = engine.InferTheta(doc, seed);

  constexpr int kWorkers = 8;
  constexpr int kRepsPerWorker = 50;
  std::vector<std::vector<double>> results(kWorkers);
  std::vector<std::thread> threads;
  for (int i = 0; i < kWorkers; ++i) {
    threads.emplace_back([&, i] {
      std::vector<double> last;
      for (int rep = 0; rep < kRepsPerWorker; ++rep) {
        last = engine.InferTheta(doc, seed);
      }
      results[i] = std::move(last);
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& theta : results) {
    ASSERT_EQ(theta.size(), reference.size());
    for (size_t k = 0; k < theta.size(); ++k) {
      EXPECT_DOUBLE_EQ(theta[k], reference[k]);
    }
  }
}

TEST(InferenceServerTest, ServesDeterministicResultsAcrossWorkers) {
  ModelStore store;
  store.Publish(DisjointModel());
  SharedInferenceEngine reference(store.Current());

  ServerOptions options;
  options.num_workers = 8;
  options.max_batch = 4;
  InferenceServer server(store, options);

  const std::vector<std::vector<WordId>> docs = {
      {0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}, {0, 5, 1, 6}, {2, 2, 3, 9, 9, 8},
  };
  constexpr int kRounds = 32;
  std::vector<std::future<InferenceResult>> futures;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t d = 0; d < docs.size(); ++d) {
      futures.push_back(server.Submit(docs[d], /*seed=*/1000 + d));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const size_t d = i % docs.size();
    InferenceResult result = futures[i].get();
    ExpectValidTheta(result.theta, 2);
    EXPECT_EQ(result.model_version, 1u);
    const auto expected = reference.InferTheta(docs[d], 1000 + d);
    for (size_t k = 0; k < expected.size(); ++k) {
      EXPECT_DOUBLE_EQ(result.theta[k], expected[k]);
    }
  }
  const auto stats = server.Stats();
  EXPECT_EQ(stats.submitted, docs.size() * kRounds);
  EXPECT_EQ(stats.completed, docs.size() * kRounds);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GE(stats.p99_micros, stats.p50_micros);
}

// Hot swap under load: requests in flight during a Publish() finish on the
// snapshot they started with, later ones see the new version, and nothing is
// torn — every θ̂ matches the pure-function reference for the version that
// served it.
TEST(InferenceServerTest, HotSwapDuringInFlightRequests) {
  ModelStore store;
  auto snapshot_a = store.Publish(DisjointModel());
  SharedInferenceEngine ref_a(snapshot_a);
  const std::vector<WordId> doc = {0, 1, 5, 6, 2, 7};
  const uint64_t seed = 77;
  const auto theta_a = ref_a.InferTheta(doc, seed);

  ServerOptions options;
  options.num_workers = 8;
  options.max_batch = 2;
  InferenceServer server(store, options);

  constexpr int kPublishes = 20;
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (int i = 0; i < kPublishes; ++i) {
      store.Publish(i % 2 == 0 ? SwappedModel() : DisjointModel());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    done.store(true);
  });

  std::vector<std::future<InferenceResult>> futures;
  while (!done.load()) {
    futures.push_back(server.Submit(doc, seed));
  }
  publisher.join();
  server.Drain();

  auto snapshot_b = store.Current();
  ASSERT_EQ(snapshot_b->version(), 1u + kPublishes);
  SharedInferenceEngine ref_b(snapshot_b);
  const auto theta_swapped = SharedInferenceEngine(
      store.Publish(SwappedModel())).InferTheta(doc, seed);
  const auto theta_disjoint = theta_a;

  uint64_t min_version = ~0ull;
  uint64_t max_version = 0;
  for (auto& future : futures) {
    InferenceResult result = future.get();
    ExpectValidTheta(result.theta, 2);
    ASSERT_GE(result.model_version, 1u);
    ASSERT_LE(result.model_version, 1u + kPublishes);
    // Version v serves DisjointModel when v is odd (1, 3, ...), SwappedModel
    // when even — a torn read across two snapshots could not match either.
    const auto& expected =
        result.model_version % 2 == 1 ? theta_disjoint : theta_swapped;
    for (size_t k = 0; k < expected.size(); ++k) {
      EXPECT_DOUBLE_EQ(result.theta[k], expected[k]);
    }
    min_version = std::min(min_version, result.model_version);
    max_version = std::max(max_version, result.model_version);
  }
  EXPECT_GT(max_version, min_version);  // the swap really happened mid-stream

  // The first snapshot, still held here, remains fully readable even though
  // the store has moved on many versions.
  const auto replay = ref_a.InferTheta(doc, seed);
  for (size_t k = 0; k < replay.size(); ++k) {
    EXPECT_DOUBLE_EQ(replay[k], theta_a[k]);
  }
}

// Backpressure: with no model published the workers cannot retire requests,
// so the bounded queue must fill and TrySubmit must start shedding. After
// the publish, everything accepted completes.
TEST(InferenceServerTest, TrySubmitShedsLoadOnFullQueue) {
  ModelStore store;
  ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 4;
  options.max_batch = 2;
  InferenceServer server(store, options);

  const std::vector<WordId> doc = {0, 1, 2};
  std::vector<std::future<InferenceResult>> accepted;
  bool saw_rejection = false;
  for (int i = 0; i < 1000 && !saw_rejection; ++i) {
    std::future<InferenceResult> future;
    if (server.TrySubmit(doc, /*seed=*/i, &future)) {
      accepted.push_back(std::move(future));
    } else {
      saw_rejection = true;
    }
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_GE(server.Stats().rejected, 1u);
  // Capacity bounds what can be in the system: queue + claimed batches.
  EXPECT_LE(accepted.size(),
            options.queue_capacity +
                static_cast<size_t>(options.num_workers) * options.max_batch);

  store.Publish(DisjointModel());
  for (auto& future : accepted) {
    ExpectValidTheta(future.get().theta, 2);
  }
  const auto stats = server.Stats();
  EXPECT_EQ(stats.completed, accepted.size());
}

TEST(InferenceServerTest, SubmitAfterShutdownFails) {
  ModelStore store;
  store.Publish(DisjointModel());
  InferenceServer server(store);
  server.Shutdown();
  auto future = server.Submit({0, 1, 2}, 1);
  EXPECT_THROW(future.get(), std::runtime_error);
}

// Train-then-serve round trip through WarpLdaSampler::ExportModel, and the
// Inferencer ↔ SharedInferenceEngine consistency check: both samplers target
// the same posterior, so on a well-separated corpus they agree on the
// dominant topic.
TEST(ServeRoundTripTest, SamplerExportModelMatchesInferencer) {
  SyntheticConfig synth;
  synth.num_docs = 300;
  synth.vocab_size = 400;
  synth.num_topics = 4;
  synth.mean_doc_length = 50;
  SyntheticCorpus data = GenerateLdaCorpus(synth);

  LdaConfig config = LdaConfig::PaperDefaults(4);
  config.alpha = 0.1;
  WarpLdaSampler sampler;
  TrainOptions train_options;
  train_options.iterations = 30;
  train_options.eval_every = 0;
  Train(sampler, data.corpus, config, train_options);

  std::shared_ptr<const TopicModel> model = sampler.ExportSharedModel();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->num_topics(), 4u);

  Inferencer inferencer(model);
  inferencer.Prebuild();
  ModelStore store;
  SharedInferenceEngine engine(store.Publish(model));
  int agreements = 0;
  const DocId probe_docs = 40;
  for (DocId d = 0; d < probe_docs; ++d) {
    auto tokens = data.corpus.doc_tokens(d);
    std::vector<WordId> words(tokens.begin(), tokens.end());
    if (words.empty()) {
      ++agreements;
      continue;
    }
    if (inferencer.MostLikelyTopic(words) == engine.MostLikelyTopic(words, d)) {
      ++agreements;
    }
  }
  EXPECT_GE(agreements, 30);  // same posterior, independent chains
}

// The shared_ptr migration closes the snapshot-lifetime hazard: the
// Inferencer keeps the model alive after every external reference is gone.
TEST(InferencerLifetimeTest, SurvivesPublisherDroppingTheModel) {
  auto model = std::make_shared<const TopicModel>(DisjointModel());
  Inferencer inferencer(model);
  model.reset();
  std::vector<WordId> doc = {0, 1, 2, 3};
  auto theta = inferencer.InferTheta(doc);
  ExpectValidTheta(theta, 2);
  EXPECT_GT(theta[0], 0.8);
}

TEST(InferencerLifetimeTest, PrebuildDoesNotChangeResults) {
  TopicModel model = DisjointModel();
  InferenceOptions options;
  options.seed = 5;
  std::vector<WordId> doc = {0, 5, 1, 6, 2};
  Inferencer lazy(model, options);
  Inferencer eager(model, options);
  eager.Prebuild();
  auto theta_lazy = lazy.InferTheta(doc);
  auto theta_eager = eager.InferTheta(doc);
  for (size_t k = 0; k < theta_lazy.size(); ++k) {
    EXPECT_DOUBLE_EQ(theta_lazy[k], theta_eager[k]);
  }
}

}  // namespace
}  // namespace warplda
