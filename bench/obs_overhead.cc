// Observability overhead: trains the same grid-executed WarpLDA run with the
// obs layer off, with metrics on, and with metrics + tracing on, and reports
// the throughput delta. The claim under test: hot-path metric recording
// (plain ThreadScratch accumulators flushed at stage barriers, sharded
// relaxed atomics on the flush) costs < 2% tokens/sec, and a disabled obs
// layer costs nothing measurable. Reps interleave the three modes so thermal
// / cache drift hits them equally; best-of-reps is compared.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/trainer.h"
#include "core/warp_lda.h"
#include "dist/partitioner.h"
#include "obs/metrics.h"
#include "util/flags.h"

namespace {

struct Mode {
  const char* name;
  bool metrics;
  bool trace;
};

double TokensPerSec(const warplda::Corpus& corpus,
                    const warplda::TrainResult& result, uint32_t iterations) {
  return corpus.num_tokens() * iterations / result.total_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.002;
  int64_t k = 100;
  int64_t iterations = 20;
  int64_t threads = 2;
  int64_t reps = 3;
  warplda::FlagSet flags;
  flags.Double("scale", &scale, "corpus scale vs the paper's NYTimes")
      .Int("k", &k, "number of topics")
      .Int("iters", &iterations, "training iterations per rep")
      .Int("threads", &threads, "grid executor threads")
      .Int("reps", &reps, "interleaved repetitions per mode (best-of)");
  if (!flags.Parse(argc, argv)) return 1;

  warplda::bench::PrintHeader(
      "Observability overhead: metrics / tracing vs a bare training run",
      "src/obs/ design goal — <2% with metrics on, ~0 when disabled");

  warplda::Corpus corpus = warplda::bench::MakeShapedCorpus("nytimes", scale);
  std::printf("corpus: %s, K=%lld, %lld iters, %lld threads, %lld reps\n",
              warplda::DescribeCorpus(corpus).c_str(),
              static_cast<long long>(k), static_cast<long long>(iterations),
              static_cast<long long>(threads), static_cast<long long>(reps));

  const std::vector<Mode> modes = {
      {"off", false, false},
      {"metrics", true, false},
      {"metrics+trace", true, true},
  };
  std::vector<double> best(modes.size(), 0.0);

  for (int64_t rep = 0; rep < reps; ++rep) {
    for (size_t m = 0; m < modes.size(); ++m) {
      const Mode& mode = modes[m];
      warplda::LdaConfig config =
          warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
      warplda::WarpLdaSampler sampler;
      warplda::TrainOptions options;
      options.iterations = static_cast<uint32_t>(iterations);
      options.eval_every = 0;
      options.sweep_plan = warplda::MakeSweepPlan(corpus, 8, 8);
      options.sweep_threads = static_cast<uint32_t>(threads);
      options.metrics = mode.metrics;
      if (mode.trace) options.trace_path = "obs_overhead_trace.json";
      warplda::TrainResult result = Train(sampler, corpus, config, options);
      const double tps = TokensPerSec(corpus, result, options.iterations);
      best[m] = std::max(best[m], tps);
      std::printf("  rep %lld  %-14s %8.2fM tok/s\n",
                  static_cast<long long>(rep), mode.name, tps / 1e6);
      std::fflush(stdout);
    }
  }

  warplda::bench::BenchJson json(
      "obs_overhead", "synthetic-nytimes scale=" + std::to_string(scale));
  json.header()
      .Int("k", k)
      .Int("iterations", iterations)
      .Int("threads", threads)
      .Int("reps", reps);
  std::printf("\n%-14s %12s %10s\n", "mode", "tok/s(best)", "overhead");
  for (size_t m = 0; m < modes.size(); ++m) {
    const double overhead_pct = 100.0 * (best[0] - best[m]) / best[0];
    std::printf("%-14s %11.2fM %9.2f%%\n", modes[m].name, best[m] / 1e6,
                overhead_pct);
    json.AddRow()
        .Str("mode", modes[m].name)
        .Num("tokens_per_sec", best[m])
        .Num("overhead_pct", overhead_pct);
  }
  json.Write("BENCH_obs_overhead.json");

  const double metrics_overhead = 100.0 * (best[0] - best[1]) / best[0];
  std::printf("\nmetrics-on overhead: %.2f%% (design goal: < 2%%; negative "
              "means run-to-run noise exceeds the cost)\n",
              metrics_overhead);
  return 0;
}
