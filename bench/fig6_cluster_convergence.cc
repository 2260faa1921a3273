// Fig 6: distributed convergence on the ClueWeb12 subset, WarpLDA (M=4) vs
// LightLDA (M=16) on 32 machines. Substitution: the corpus is ClueWeb-shaped
// and the cluster is simulated, but the samples are real. WarpLDA executes
// every sweep block-by-block over the simulated cluster's (doc × word) grid
// through the GridSampler interface (rotation schedule), so the convergence
// trace is measured on the assignments a distributed run would produce;
// per-iteration wall time maps each algorithm's measured per-token cost
// through the cluster's communication model. LightLDA has no grid execution
// path and keeps the serial-trace + timing-model substitution.
#include <cstdio>
#include <memory>

#include "baselines/light_lda.h"
#include "bench/bench_common.h"
#include "core/trainer.h"
#include "core/warp_lda.h"
#include "dist/cluster_sim.h"
#include "eval/log_likelihood.h"
#include "util/flags.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  double scale = 1e-5;
  int64_t workers = 32;
  int64_t k = 300;
  int64_t iterations = 40;
  warplda::FlagSet flags;
  flags.Double("scale", &scale, "ClueWeb12-subset scale")
      .Int("workers", &workers, "simulated machines")
      .Int("k", &k, "topics (paper: 1e4)")
      .Int("iters", &iterations, "training iterations");
  if (!flags.Parse(argc, argv)) return 1;

  warplda::bench::PrintHeader(
      "Fig 6: distributed convergence, ClueWeb12 subset",
      "Fig 6 — WarpLDA(M=4) vs LightLDA(M=16), 32 machines");

  warplda::Corpus corpus =
      warplda::bench::MakeShapedCorpus("clueweb", scale);
  std::printf("corpus: %s, K=%lld, %lld simulated workers\n\n",
              warplda::DescribeCorpus(corpus).c_str(),
              static_cast<long long>(k), static_cast<long long>(workers));

  const uint32_t eval_every = 4;

  auto make_cluster = [&](uint32_t mh_steps) {
    warplda::ClusterConfig cluster;
    cluster.num_workers = static_cast<uint32_t>(workers);
    cluster.bytes_per_token = 4 * (1 + mh_steps);
    return cluster;
  };

  // WarpLDA: real sweeps, executed block-by-block over the cluster grid.
  // The compute cost is measured from Iterate(), the single-block sweep
  // (same methodology as LightLDA below) — block-wise execution on one
  // machine pays simulation-only overhead a real worker would not.
  {
    const uint32_t mh_steps = 4;
    warplda::LdaConfig config =
        warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
    config.mh_steps = mh_steps;

    warplda::ClusterConfig cluster = make_cluster(mh_steps);
    {
      warplda::WarpLdaSampler probe;
      probe.Init(corpus, config);
      probe.Iterate();  // warm-up
      const int64_t probe_iters = 3;
      warplda::Stopwatch watch;
      for (int64_t i = 0; i < probe_iters; ++i) probe.Iterate();
      cluster.per_token_ns =
          watch.Seconds() /
          (static_cast<double>(corpus.num_tokens()) * probe_iters) * 1e9 /
          2.0;  // per phase
    }

    warplda::WarpLdaSampler warp;
    warp.Init(corpus, config);
    warplda::ClusterSim sim(corpus, cluster);

    double sim_seconds = 0.0;
    std::printf("WarpLDA(M=%u): measured %.0f ns/token, grid-executed sweeps "
                "over the %lldx%lld token grid (speedup %.1fx, doc imbalance "
                "%.4f, word imbalance %.4f)\n",
                mh_steps, 2 * cluster.per_token_ns,
                static_cast<long long>(workers),
                static_cast<long long>(workers), sim.SimulatedSpeedup(),
                sim.DocImbalance(), sim.WordImbalance());
    for (int64_t iter = 1; iter <= iterations; ++iter) {
      warplda::IterationTiming timing = sim.RunSweep(warp);
      sim_seconds += timing.wall_seconds;
      if (iter % eval_every == 0 || iter == iterations) {
        double ll = warplda::JointLogLikelihood(
            corpus, warp.Assignments(), config.num_topics, config.alpha,
            config.beta);
        std::printf("  iter %3lld  sim-time %8.3fs  ll %.6g\n",
                    static_cast<long long>(iter), sim_seconds, ll);
        std::fflush(stdout);
      }
    }
  }

  // LightLDA: serial convergence trace, mapped through the timing model.
  {
    const uint32_t mh_steps = 16;
    warplda::LdaConfig config =
        warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
    config.mh_steps = mh_steps;
    warplda::TrainOptions options;
    options.iterations = static_cast<uint32_t>(iterations);
    options.eval_every = eval_every;
    warplda::LightLdaSampler light;
    warplda::TrainResult result = Train(light, corpus, config, options);

    warplda::ClusterConfig cluster = make_cluster(mh_steps);
    cluster.per_token_ns = result.total_seconds /
                           (static_cast<double>(corpus.num_tokens()) *
                            options.iterations) *
                           1e9 / 2.0;  // per phase
    warplda::ClusterSim sim(corpus, cluster);
    double per_iter = sim.SimulateIteration().wall_seconds;
    std::printf("\n%s(M=%u): measured %.0f ns/token, simulated %.4fs/iter "
                "(speedup %.1fx)\n",
                light.name().c_str(), mh_steps, 2 * cluster.per_token_ns,
                per_iter, sim.SimulatedSpeedup());
    for (const auto& stat : result.history) {
      std::printf("  iter %3u  sim-time %8.3fs  ll %.6g\n", stat.iteration,
                  per_iter * stat.iteration, stat.log_likelihood);
    }
    std::fflush(stdout);
  }

  std::printf(
      "\nPaper's claim: WarpLDA reaches any given likelihood ~10x sooner in\n"
      "wall time than LightLDA in the 32-machine setting.\n");
  return 0;
}
