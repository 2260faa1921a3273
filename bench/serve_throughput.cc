// Serving throughput and memory of the concurrent inference subsystem:
// QPS as a function of worker-thread count and of micro-batch size, plus
// snapshot footprint and publish latency (dense V×K φ̂ vs the tiered sparse
// layout), on a synthetic NYTimes-shaped corpus. The worker sweep is the serving analogue of the
// paper's Fig 9 scalability study; the batch sweep shows the cache-warmth
// payoff of grouping requests against one snapshot; the footprint section
// tracks the O(V·K) → O(K + nnz) memory claim of the sparse snapshots.
//
//   ./serve_throughput [--scale 0.02] [--k 50] [--requests 4000]
//                      [--footprint-k 400]
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/trainer.h"
#include "core/warp_lda.h"
#include "serve/engine.h"
#include "serve/model_store.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

struct RunResult {
  double qps = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

RunResult RunLoad(const warplda::serve::ModelStore& store,
                  const std::vector<std::vector<warplda::WordId>>& load,
                  uint32_t workers, uint32_t batch) {
  warplda::serve::ServerOptions options;
  options.num_workers = workers;
  options.max_batch = batch;
  options.queue_capacity = 4096;
  options.inference.iterations = 20;
  warplda::serve::InferenceServer server(store, options);
  std::vector<std::future<warplda::serve::InferenceResult>> futures;
  futures.reserve(load.size());
  warplda::Stopwatch watch;
  for (size_t i = 0; i < load.size(); ++i) {
    futures.push_back(server.Submit(load[i], /*seed=*/i));
  }
  for (auto& future : futures) future.get();
  const double seconds = watch.Seconds();
  const auto stats = server.Stats();
  return RunResult{load.size() / seconds, stats.p50_micros, stats.p99_micros};
}

// Dense vs tiered-sparse snapshot footprint and publish latency at
// serving-realistic K. Also spot-checks the bit-identity
// contract end to end on a few documents.
void RunSnapshotSection(const warplda::Corpus& corpus, uint32_t footprint_k,
                        warplda::bench::BenchJson& json) {
  using warplda::serve::ModelSnapshot;
  using warplda::serve::ModelStore;
  using warplda::serve::ModelStoreOptions;
  using warplda::serve::SharedInferenceEngine;
  using warplda::serve::SnapshotLayout;

  std::printf("\nsnapshot footprint & publish latency (K=%u)\n", footprint_k);
  warplda::LdaConfig config = warplda::LdaConfig::PaperDefaults(footprint_k);
  warplda::WarpLdaSampler sampler;
  warplda::TrainOptions train_options;
  train_options.iterations = 20;
  train_options.eval_every = 0;
  Train(sampler, corpus, config, train_options);

  auto model = sampler.ExportSharedModel();
  size_t total_nnz = 0;
  for (warplda::WordId w = 0; w < model->num_words(); ++w) {
    total_nnz += model->word_topics(w).size();
  }
  std::printf("model: V=%u K=%u nnz=%zu (%.1f topics/word)\n",
              model->num_words(), footprint_k, total_nnz,
              static_cast<double>(total_nnz) / model->num_words());

  ModelStoreOptions dense_opts;
  dense_opts.layout = SnapshotLayout::kDense;
  ModelStore dense_store(dense_opts);
  warplda::Stopwatch dense_watch;
  auto dense_snapshot = dense_store.Publish(model);
  const double dense_ms = dense_watch.Millis();

  ModelStore sparse_store;  // tiered sparse is the default layout
  warplda::Stopwatch sparse_watch;
  auto sparse_snapshot = sparse_store.Publish(model);
  const double sparse_ms = sparse_watch.Millis();

  const size_t dense_bytes = dense_snapshot->ApproxBytes();
  const size_t sparse_bytes = sparse_snapshot->ApproxBytes();
  std::printf("%-28s %12s %12s\n", "", "bytes", "publish(ms)");
  std::printf("%-28s %12zu %12.1f\n", "dense VxK snapshot", dense_bytes,
              dense_ms);
  std::printf("%-28s %12zu %12.1f\n", "sparse tiered snapshot", sparse_bytes,
              sparse_ms);
  std::printf("footprint reduction: %.1fx\n",
              static_cast<double>(dense_bytes) / sparse_bytes);

  // Bit-identity spot check across the two layouts.
  SharedInferenceEngine dense_engine(dense_snapshot);
  SharedInferenceEngine sparse_engine(sparse_snapshot);
  bool identical = true;
  for (warplda::DocId d = 0; d < std::min<warplda::DocId>(corpus.num_docs(), 8);
       ++d) {
    auto tokens = corpus.doc_tokens(d);
    std::vector<warplda::WordId> doc(tokens.begin(), tokens.end());
    const auto a = dense_engine.InferTheta(doc, d);
    const auto b = sparse_engine.InferTheta(doc, d);
    for (size_t i = 0; i < a.size(); ++i) {
      identical = identical && a[i] == b[i];
    }
  }
  std::printf("dense/sparse inference bit-identical: %s\n",
              identical ? "yes" : "NO — regression!");
  std::printf("peak RSS: %.1f MB (VmHWM)\n",
              warplda::bench::PeakRssBytes() / (1024.0 * 1024.0));

  json.AddRow()
      .Str("sweep", "snapshot")
      .Str("layout", "dense")
      .Int("k", footprint_k)
      .Bytes("snapshot_bytes", dense_bytes)
      .Num("publish_ms", dense_ms);
  json.AddRow()
      .Str("sweep", "snapshot")
      .Str("layout", "sparse_full")
      .Int("k", footprint_k)
      .Bytes("snapshot_bytes", sparse_bytes)
      .Num("publish_ms", sparse_ms)
      .Num("footprint_reduction", static_cast<double>(dense_bytes) /
                                      sparse_bytes)
      .Str("bit_identical", identical ? "yes" : "no");
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.02;
  int64_t k = 50;
  int64_t requests = 4000;
  int64_t footprint_k = 400;
  warplda::FlagSet flags;
  flags.Double("scale", &scale, "corpus scale relative to NYTimes")
      .Int("k", &k, "number of topics")
      .Int("requests", &requests, "requests per configuration")
      .Int("footprint-k", &footprint_k,
           "topics for the snapshot footprint/publish-latency section");
  if (!flags.Parse(argc, argv)) return 1;

  warplda::bench::PrintHeader(
      "serve_throughput: inference QPS vs workers and micro-batch",
      "conclusion (serving-time sampling) + §5.3 threading");

  warplda::Corpus corpus = warplda::bench::MakeShapedCorpus("nytimes", scale);
  std::printf("%s\n", warplda::DescribeCorpus(corpus).c_str());
  std::printf("hardware threads: %u (worker scaling flattens beyond this)\n",
              std::thread::hardware_concurrency());

  warplda::LdaConfig config =
      warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
  warplda::WarpLdaSampler sampler;
  warplda::TrainOptions train_options;
  train_options.iterations = 30;
  train_options.eval_every = 0;
  Train(sampler, corpus, config, train_options);

  warplda::serve::ModelStore store;  // tiered sparse snapshots (default)
  warplda::Stopwatch publish_watch;
  store.Publish(sampler.ExportSharedModel());
  std::printf("snapshot publish (eager sparse prebuild): %.1fms\n",
              publish_watch.Millis());

  std::vector<std::vector<warplda::WordId>> load;
  load.reserve(static_cast<size_t>(requests));
  for (int64_t i = 0; i < requests; ++i) {
    auto doc = corpus.doc_tokens(static_cast<warplda::DocId>(
        i % corpus.num_docs()));
    load.emplace_back(doc.begin(), doc.end());
  }

  char dataset[64];
  std::snprintf(dataset, sizeof(dataset), "synthetic-nytimes scale=%g", scale);
  warplda::bench::BenchJson json("serve_throughput", dataset);

  std::printf("\nQPS vs workers (micro-batch 8)\n");
  std::printf("%8s %10s %12s %12s %10s\n", "workers", "qps", "p50(us)",
              "p99(us)", "speedup");
  double base_qps = 0.0;
  for (uint32_t workers : {1u, 2u, 4u, 8u}) {
    const RunResult r = RunLoad(store, load, workers, 8);
    if (workers == 1) base_qps = r.qps;
    std::printf("%8u %10.0f %12.0f %12.0f %9.2fx\n", workers, r.qps, r.p50,
                r.p99, r.qps / base_qps);
    json.AddRow()
        .Str("sweep", "workers")
        .Int("threads", workers)
        .Num("qps", r.qps)
        .Num("p50_us", r.p50)
        .Num("p99_us", r.p99)
        .Num("speedup", r.qps / base_qps);
  }

  std::printf("\nQPS vs micro-batch (4 workers)\n");
  std::printf("%8s %10s %12s %12s\n", "batch", "qps", "p50(us)", "p99(us)");
  for (uint32_t batch : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const RunResult r = RunLoad(store, load, 4, batch);
    std::printf("%8u %10.0f %12.0f %12.0f\n", batch, r.qps, r.p50, r.p99);
    json.AddRow()
        .Str("sweep", "batch")
        .Int("threads", 4)
        .Int("batch", batch)
        .Num("qps", r.qps)
        .Num("p50_us", r.p50)
        .Num("p99_us", r.p99);
  }

  RunSnapshotSection(corpus, static_cast<uint32_t>(footprint_k), json);

  json.header().Bytes("peak_rss_bytes", warplda::bench::PeakRssBytes());
  json.Write("BENCH_serve_throughput.json");
  return 0;
}
