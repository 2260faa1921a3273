// Fig 9: scalability. Three panels:
//  (a) multi-thread speedup of the parallel grid-sweep executor (wavefront
//      block scheduling over an 8×8 SweepPlan, per-worker scratch and ck
//      deltas), checked bit-identical against the single-thread Iterate()
//      run; on a single-core box the curve is flat — the harness still runs;
//  (b) multi-machine speedup from the simulated cluster (PubMed shape);
//  (c) convergence + throughput on the largest feasible ClueWeb-shaped
//      corpus, trained through the grid executor (Train() with an 8×8
//      TrainOptions::sweep_plan).
// Measured rows are also written to BENCH_fig9.json (machine readable) so
// the perf trajectory is tracked across commits.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/parallel_executor.h"
#include "core/trainer.h"
#include "core/warp_lda.h"
#include "dist/cluster_sim.h"
#include "dist/partitioner.h"
#include "util/flags.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  double scale = 0.002;
  int64_t k = 200;
  int64_t iterations = 10;
  warplda::FlagSet flags;
  flags.Double("scale", &scale, "corpus scale")
      .Int("k", &k, "topics")
      .Int("iters", &iterations, "iterations per measurement");
  if (!flags.Parse(argc, argv)) return 1;

  warplda::bench::PrintHeader(
      "Fig 9: scalability (threads, machines, large-scale run)",
      "Fig 9 — thread speedup (grid executor), distributed speedup, "
      "ClueWeb convergence and throughput");

  char dataset[64];
  std::snprintf(dataset, sizeof(dataset), "synthetic-nytimes scale=%g", scale);
  warplda::bench::BenchJson json("fig9", dataset);

  // (a) threads, grid-sweep executor (wavefront over an 8×8 plan).
  {
    warplda::Corpus corpus =
        warplda::bench::MakeShapedCorpus("nytimes", scale);
    warplda::LdaConfig config =
        warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
    config.mh_steps = 2;
    warplda::SweepPlan plan = warplda::MakeSweepPlan(
        corpus, 8, 8, warplda::PartitionStrategy::kGreedy);
    std::printf("\n(a) grid-executor thread scaling on %s, K=%lld, 8x8 plan "
                "(host has %u cores)\n",
                warplda::DescribeCorpus(corpus).c_str(),
                static_cast<long long>(k),
                std::thread::hardware_concurrency());

    // Single-thread reference trajectory: the determinism oracle for every
    // thread count below (grid execution must reproduce Iterate() exactly).
    warplda::WarpLdaSampler reference;
    reference.Init(corpus, config);
    for (int64_t i = 0; i < iterations + 1; ++i) reference.Iterate();
    const std::vector<warplda::TopicId> expected = reference.Assignments();

    std::printf("  [grid-sweep]\n");
    double base = 0.0;
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      warplda::ParallelExecutor executor(threads);
      warplda::WarpLdaSampler sampler;
      sampler.Init(corpus, config);
      executor.RunSweep(sampler, plan);  // warm-up
      warplda::Stopwatch watch;
      for (int64_t i = 0; i < iterations; ++i) {
        executor.RunSweep(sampler, plan);
      }
      double seconds = watch.Seconds();
      double throughput = corpus.num_tokens() * iterations / seconds / 1e6;
      if (threads == 1) base = seconds;
      const bool identical = sampler.Assignments() == expected;
      std::printf("  threads %2u  %8.2f Mtok/s  speedup %.2fx  "
                  "bit-identical to Iterate(): %s\n",
                  threads, throughput, base / seconds,
                  identical ? "yes" : "NO (BUG)");
      std::fflush(stdout);
      json.AddRow()
          .Str("panel", "grid-sweep")
          .Int("threads", threads)
          .Num("tokens_per_sec", throughput * 1e6)
          .Num("wall_ms", seconds * 1e3)
          .Num("speedup", base / seconds)
          .Str("bit_identical", identical ? "yes" : "no");
    }
  }

  // (b) simulated machines.
  {
    warplda::Corpus corpus =
        warplda::bench::MakeShapedCorpus("pubmed", scale / 27);
    std::printf("\n(b) simulated distributed speedup on %s, K=%lld\n",
                warplda::DescribeCorpus(corpus).c_str(),
                static_cast<long long>(k));
    for (uint32_t workers : {1u, 2u, 4u, 8u, 16u}) {
      warplda::ClusterConfig cluster;
      cluster.num_workers = workers;
      warplda::ClusterSim sim(corpus, cluster);
      std::printf("  machines %2u  speedup %.2fx  (word imbalance %.4f)\n",
                  workers, sim.SimulatedSpeedup(), sim.WordImbalance());
      json.AddRow()
          .Str("panel", "simulated-machines")
          .Int("machines", workers)
          .Num("speedup", sim.SimulatedSpeedup())
          .Num("word_imbalance", sim.WordImbalance());
    }
  }

  // (c) largest feasible run, trained through the grid executor.
  {
    warplda::Corpus corpus =
        warplda::bench::MakeShapedCorpus("clueweb", scale / 500);
    const uint32_t threads =
        std::min(8u, std::max(1u, std::thread::hardware_concurrency()));
    std::printf("\n(c) ClueWeb-shaped run: %s, K=%lld, M=1, grid-executed on "
                "%u threads\n",
                warplda::DescribeCorpus(corpus).c_str(),
                static_cast<long long>(k), threads);
    warplda::LdaConfig config =
        warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
    config.mh_steps = 1;
    warplda::WarpLdaSampler sampler;
    warplda::TrainOptions options;
    options.iterations = static_cast<uint32_t>(4 * iterations);
    options.eval_every = static_cast<uint32_t>(iterations);
    options.sweep_plan = warplda::MakeSweepPlan(corpus, 8, 8);
    options.sweep_threads = threads;
    warplda::TrainResult result = Train(sampler, corpus, config, options);
    for (const auto& stat : result.history) {
      std::printf("  iter %3u  t %7.2fs  ll %.6g  %.2fM tok/s\n",
                  stat.iteration, stat.seconds, stat.log_likelihood,
                  stat.tokens_per_second / 1e6);
      json.AddRow()
          .Str("panel", "clueweb-grid-train")
          .Int("threads", threads)
          .Int("iteration", stat.iteration)
          .Num("tokens_per_sec", stat.tokens_per_second)
          .Num("wall_ms", stat.seconds * 1e3)
          .Num("log_likelihood", stat.log_likelihood);
    }
  }

  json.Write("BENCH_fig9.json");
  std::printf(
      "\nPaper: 17x speedup on 24 cores, 13.5x on 16 machines, 11G tok/s on\n"
      "256 machines with K=1e6. The harness reproduces the curves' shape at\n"
      "the hardware available (thread speedup is bounded by physical cores).\n");
  return 0;
}
