// Concurrent topic-inference serving: the deployment pattern the paper's
// conclusion points at ("a fast sampler for topic assignments" behind heavy
// user traffic).
//
// Scenario 1 (train-then-serve): train WarpLDA offline, publish one snapshot
// to a ModelStore, and answer a burst of requests from a worker pool.
//
// Scenario 2 (train-while-serve): a WarpLdaSampler keeps training on a
// background thread and hot-publishes its current model every few sweeps
// while the server answers requests without interruption — the RCU
// snapshot swap means zero downtime and no torn reads. Republishes go
// through the incremental path: the trainer exports its changed-word set
// and ModelStore::PublishDelta rebuilds only those rows, sharing the rest
// with the previous snapshot. With --ckpt-dir set, every publish is also
// made durable: the store checkpoints the model chain (one base + small
// per-publish deltas — the on-disk mirror of the delta publish) and the
// trainer writes its between-sweeps SweepCheckpoint, both crash-safely.
//
// Scenario 3 (recover, --ckpt-dir only): simulates the restart after a
// crash — a fresh ModelStore restores the delta chain and serves
// immediately at the checkpointed version, and a fresh WarpLdaSampler
// restores the sweep checkpoint and keeps training where the dead process
// stopped, on the same trajectory it would have followed.
//
//   ./topic_server [--k 20] [--workers 4] [--requests 2000] [--batch 8]
//                  [--ckpt-dir DIR] [--metrics-every SEC]
//
// --metrics-every SEC turns on the obs metrics layer and dumps the full
// Prometheus-style exposition (serve_*, store_*, trainer_*, ...) to stdout
// every SEC seconds plus once at exit — the scrape loop a sidecar exporter
// would run.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/trainer.h"
#include "core/warp_lda.h"
#include "corpus/synthetic.h"
#include "obs/metrics.h"
#include "serve/model_store.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

/// Periodically prints the global metrics exposition, like a /metrics scrape
/// loop. Joined (with one final dump) at destruction.
class MetricsDumper {
 public:
  explicit MetricsDumper(int64_t every_seconds) {
    if (every_seconds <= 0) return;
    warplda::obs::SetMetricsEnabled(true);
    thread_ = std::thread([this, every_seconds] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_) {
        cv_.wait_for(lock, std::chrono::seconds(every_seconds),
                     [this] { return stop_; });
        if (stop_) return;
        Dump();
      }
    });
  }

  ~MetricsDumper() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    Dump();  // final scrape so short runs still show the exposition
  }

 private:
  static void Dump() {
    std::printf("==== metrics ====\n%s==== end metrics ====\n",
                warplda::obs::MetricsRegistry::Global().TextSnapshot().c_str());
    std::fflush(stdout);
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

std::vector<std::vector<warplda::WordId>> RequestLoad(
    const warplda::Corpus& corpus, uint32_t count) {
  std::vector<std::vector<warplda::WordId>> load;
  load.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    auto doc = corpus.doc_tokens(i % corpus.num_docs());
    load.emplace_back(doc.begin(), doc.end());
  }
  return load;
}

void PrintStats(const char* label, const warplda::serve::ServerStats& stats) {
  std::printf(
      "%s: completed %llu/%llu (rejected %llu)  qps %.0f  "
      "p50 %.0fus  p99 %.0fus  mean batch %.1f\n",
      label, static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.rejected), stats.qps,
      stats.p50_micros, stats.p99_micros, stats.mean_batch);
}

}  // namespace

int main(int argc, char** argv) {
  int64_t k = 20;
  int64_t workers = 4;
  int64_t requests = 2000;
  int64_t batch = 8;
  int64_t metrics_every = 0;
  std::string ckpt_dir;
  warplda::FlagSet flags;
  flags.Int("k", &k, "number of topics")
      .Int("workers", &workers, "inference worker threads")
      .Int("requests", &requests, "requests per scenario")
      .Int("batch", &batch, "micro-batch size per worker pass")
      .Int("metrics-every", &metrics_every,
           "dump the metrics exposition to stdout every SEC seconds "
           "(0 = off; also enables hot-path metric recording)")
      .String("ckpt-dir", &ckpt_dir,
              "directory for crash-safe serving/trainer checkpoints "
              "(empty = durability off)");
  if (!flags.Parse(argc, argv)) return 1;

  MetricsDumper metrics_dumper(metrics_every);

  warplda::SyntheticConfig synth;
  synth.num_docs = 2000;
  synth.vocab_size = 3000;
  synth.num_topics = static_cast<uint32_t>(k);
  synth.mean_doc_length = 80;
  warplda::SyntheticCorpus data = warplda::GenerateLdaCorpus(synth);
  std::printf("corpus: %s\n", warplda::DescribeCorpus(data.corpus).c_str());

  const auto load = RequestLoad(data.corpus,
                                static_cast<uint32_t>(requests));

  warplda::serve::ServerOptions server_options;
  server_options.num_workers = static_cast<uint32_t>(workers);
  server_options.max_batch = static_cast<uint32_t>(batch);
  server_options.inference.iterations = 20;

  // ---------------------------------------------- 1. train, then serve ---
  std::printf("\n[1] train-then-serve\n");
  warplda::LdaConfig config =
      warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
  config.alpha = 0.1;
  warplda::WarpLdaSampler sampler;
  warplda::TrainOptions train_options;
  train_options.iterations = 50;
  train_options.eval_every = 0;
  warplda::Stopwatch train_watch;
  Train(sampler, data.corpus, config, train_options);
  std::printf("trained %lld topics in %.2fs\n", static_cast<long long>(k),
              train_watch.Seconds());

  warplda::serve::ModelStore store;
  warplda::Stopwatch publish_watch;
  auto snapshot = store.Publish(sampler.ExportSharedModel());
  std::printf(
      "published snapshot v%llu in %.1fms (tiered sparse, %.1f MB resident; "
      "a dense VxK phi row tier alone would be %.1f MB and grows with K)\n",
      static_cast<unsigned long long>(store.version()), publish_watch.Millis(),
      snapshot->ApproxBytes() / (1024.0 * 1024.0),
      static_cast<double>(snapshot->num_words()) * snapshot->num_topics() *
          sizeof(double) / (1024.0 * 1024.0));

  {
    warplda::serve::InferenceServer server(store, server_options);
    std::vector<std::future<warplda::serve::InferenceResult>> futures;
    futures.reserve(load.size());
    for (size_t i = 0; i < load.size(); ++i) {
      futures.push_back(server.Submit(load[i], /*seed=*/i));
    }
    std::vector<uint32_t> topic_histogram(static_cast<uint32_t>(k), 0);
    for (auto& future : futures) {
      ++topic_histogram[future.get().top_topic];
    }
    PrintStats("serve", server.Stats());
    std::printf("topic histogram:");
    for (uint32_t count : topic_histogram) std::printf(" %u", count);
    std::printf("\n");
  }

  // ------------------------------------------- 2. train while serving ---
  std::printf("\n[2] train-while-serve (the trainer hot-publishes)\n");
  // A few sweeps move most words' rows, so the default store would
  // compact nearly every republish into a full rebuild; lifting the delta
  // cap keeps each one a delta, and the chain on disk a base plus deltas.
  warplda::serve::ModelStoreOptions live_options;
  live_options.max_delta_fraction = 1.0;
  warplda::serve::ModelStore live_store(live_options);
  warplda::WarpLdaSampler live;
  live.Init(data.corpus, config);
  constexpr int kSweepsPerPublish = 5;
  const std::string sweep_ckpt = ckpt_dir + "/sweep.ckpt";

  // Bootstrap snapshot from the first sweeps so the server never waits,
  // then keep training and publishing in the background. After the
  // bootstrap, every republish is incremental: the trainer reports which
  // words' rows actually changed and PublishDelta rebuilds only those.
  // nullptr: the bootstrap publish is full anyway, it only needs to
  // advance the delta tracking.
  for (int i = 0; i < kSweepsPerPublish; ++i) live.Iterate();
  live_store.Publish(live.ExportSharedModel(nullptr));

  std::atomic<bool> training_done{false};
  std::thread trainer([&] {
    std::vector<warplda::WordId> delta;
    for (int epoch = 0; epoch < 3; ++epoch) {
      for (int i = 0; i < kSweepsPerPublish; ++i) live.Iterate();
      auto model = live.ExportSharedModel(&delta);
      auto published = live_store.PublishDelta(model, delta);
      // arena_chain() == 1 means the store chose the compacting full
      // rebuild (e.g. an oversized delta); > 1 means rows were shared.
      std::printf("  epoch %d: %zu/%u words changed — %s\n", epoch + 1,
                  delta.size(), static_cast<unsigned>(model->num_words()),
                  published->arena_chain() > 1
                      ? "delta-published (unchanged rows shared)"
                      : "full rebuild (compacted)");
      if (!ckpt_dir.empty()) {
        // Durability rides along with every publish: the model chain on
        // disk (first call a full base, then per-publish deltas) and the
        // trainer's between-sweeps state, each written atomically — a kill
        // between any two lines here loses at most one publish.
        warplda::SweepCheckpoint checkpoint;
        const bool captured = live.CaptureSweepState(&checkpoint);
        checkpoint.iteration = (epoch + 2) * kSweepsPerPublish;
        std::string error = "sweep state capture failed";
        if (!captured || !live_store.CheckpointTo(ckpt_dir, &error) ||
            !warplda::SaveSweepCheckpoint(checkpoint, sweep_ckpt, &error)) {
          std::printf("  checkpoint failed: %s\n", error.c_str());
        }
      }
    }
    training_done.store(true);
  });

  {
    warplda::serve::InferenceServer server(live_store, server_options);
    // Keep traffic flowing in waves for as long as the trainer is running
    // (cycling through the request load), so requests land on successive
    // snapshots; one extra wave exercises the final model.
    std::vector<std::future<warplda::serve::InferenceResult>> futures;
    size_t next = 0;
    bool final_wave = false;
    while (!final_wave) {
      final_wave = training_done.load();
      for (int i = 0; i < 64; ++i, ++next) {
        futures.push_back(server.Submit(load[next % load.size()], next));
      }
      server.Drain();
    }
    uint64_t min_version = ~0ull;
    uint64_t max_version = 0;
    for (auto& future : futures) {
      auto result = future.get();
      min_version = std::min(min_version, result.model_version);
      max_version = std::max(max_version, result.model_version);
    }
    trainer.join();
    PrintStats("serve", server.Stats());
    std::printf("served across model versions v%llu..v%llu "
                "(%llu publishes total) with zero downtime\n",
                static_cast<unsigned long long>(min_version),
                static_cast<unsigned long long>(max_version),
                static_cast<unsigned long long>(live_store.version()));
  }

  // --------------------------------- 3. recover after a simulated crash ---
  if (!ckpt_dir.empty()) {
    std::printf("\n[3] recover from %s (fresh store + fresh trainer)\n",
                ckpt_dir.c_str());
    std::string error;
    warplda::serve::ModelStore recovered_store;
    if (!recovered_store.RestoreFrom(ckpt_dir, &error)) {
      std::printf("restore failed: %s\n", error.c_str());
      return 1;
    }
    std::printf(
        "restored serving snapshot v%llu from the base+delta chain\n",
        static_cast<unsigned long long>(recovered_store.version()));
    {
      warplda::serve::InferenceServer server(recovered_store, server_options);
      std::vector<std::future<warplda::serve::InferenceResult>> futures;
      for (size_t i = 0; i < 256; ++i) {
        futures.push_back(server.Submit(load[i % load.size()], i));
      }
      for (auto& future : futures) future.get();
      PrintStats("serve (restored)", server.Stats());
    }

    warplda::SweepCheckpoint checkpoint;
    warplda::WarpLdaSampler recovered_trainer;
    recovered_trainer.Init(data.corpus, config);
    if (!warplda::LoadSweepCheckpoint(sweep_ckpt, &checkpoint, &error) ||
        !recovered_trainer.RestoreSweepState(checkpoint, &error)) {
      std::printf("trainer restore failed: %s\n", error.c_str());
      return 1;
    }
    for (int i = 0; i < kSweepsPerPublish; ++i) recovered_trainer.Iterate();
    // First post-restore export reports every word as changed (the delta
    // base died with the old process), so this publish compacts to a full
    // rebuild — subsequent ones are incremental again.
    std::vector<warplda::WordId> delta;
    auto model = recovered_trainer.ExportSharedModel(&delta);
    recovered_store.PublishDelta(model, delta);
    std::printf(
        "trainer resumed after sweep %u and published v%llu — "
        "training continues where the dead process stopped\n",
        checkpoint.iteration,
        static_cast<unsigned long long>(recovered_store.version()));
  }
  return 0;
}
