// Distributed transport: real multi-process sweeps vs the analytic model.
// Sweeps the worker count over the fork + socket executor (src/dist/
// dist_executor.h) and compares the measured speedup against ClusterSim's
// prediction for the same corpus and worker count. Every run is checked
// bit-identical to single-process Iterate() — a distributed result that is
// fast but different counts for nothing.
//
// Metrics are on for every run, so each row also splits the coordinator's
// sweep into the dist_coord_* histograms: relaying deltas to peers,
// applying them to its own replica, capturing barrier checkpoints, and
// idling with nothing to handle. Beside them, each worker's main thread as
// it reports it at shutdown (DistWorkerReport), averaged over workers:
// running and capturing its blocks, encoding and sending their deltas,
// receiving and applying its peers' slices, and idling; and the wire bytes
// per sweep, all channel ends. ClusterSim prices none of these, which is
// where predicted and measured speedup part. The sweep timings therefore
// include the cost of recording metrics in every process, and each row is
// the median of kReps runs; rows written by builds that timed one
// metrics-off run per point are not directly comparable.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/warp_lda.h"
#include "dist/cluster_sim.h"
#include "dist/dist_executor.h"
#include "dist/partitioner.h"
#include "obs/metrics.h"
#include "util/flags.h"

namespace {

// Runs per worker count; the row reports their median and spread.
constexpr int64_t kReps = 3;

const char* const kCoordHistograms[] = {
    "dist_coord_relay_us", "dist_coord_apply_us", "dist_coord_capture_us",
    "dist_coord_wait_us"};

std::vector<double> CoordSums() {
  auto& registry = warplda::obs::MetricsRegistry::Global();
  std::vector<double> sums;
  for (const char* name : kCoordHistograms) {
    sums.push_back(registry.GetHistogram(name)->Snapshot().sum);
  }
  return sums;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.002;
  int64_t k = 64;
  int64_t iterations = 3;
  int64_t grid = 4;
  int64_t max_workers = 4;
  warplda::FlagSet flags;
  flags.Double("scale", &scale, "corpus scale vs the paper's NYTimes")
      .Int("k", &k, "number of topics")
      .Int("iters", &iterations, "sweeps per worker count")
      .Int("grid", &grid, "doc/word blocks per axis of the sweep plan")
      .Int("workers", &max_workers, "largest worker count (doubling from 1)");
  if (!flags.Parse(argc, argv)) return 1;

  warplda::bench::PrintHeader(
      "Distributed transport: real fork+socket sweeps vs predicted speedup",
      "paper §5.3.2 multi-machine schedule over src/dist/ transport");

  warplda::Corpus corpus = warplda::bench::MakeShapedCorpus("nytimes", scale);
  warplda::LdaConfig config =
      warplda::LdaConfig::PaperDefaults(static_cast<uint32_t>(k));
  config.seed = 20160903;
  const warplda::SweepPlan plan =
      warplda::MakeSweepPlan(corpus, static_cast<uint32_t>(grid),
                             static_cast<uint32_t>(grid),
                             warplda::PartitionStrategy::kGreedy);
  std::printf(
      "corpus: %s, K=%lld, %lldx%lld grid, %lld sweeps per run, %lld runs "
      "per point\n",
      warplda::DescribeCorpus(corpus).c_str(), static_cast<long long>(k),
      static_cast<long long>(grid), static_cast<long long>(grid),
      static_cast<long long>(iterations), static_cast<long long>(kReps));

  // Reference: the uninterrupted single-process run every distributed
  // result must reproduce bit-for-bit.
  warplda::WarpLdaSampler reference;
  reference.Init(corpus, config);
  for (int64_t i = 0; i < iterations; ++i) reference.Iterate();

  warplda::bench::BenchJson json(
      "dist_transport", "synthetic-nytimes scale=" + std::to_string(scale));
  json.header()
      .Int("k", k)
      .Int("iterations", iterations)
      .Int("grid", grid)
      .Int("reps", kReps)
      .Str("transport",
           "AF_UNIX socketpair, frame protocol v2, dist protocol v2");

  std::printf(
      "\n%7s %8s %8s %7s %7s %6s %6s %6s %6s %6s %6s %6s %6s %7s %5s %5s\n",
      "workers", "sweep_s", "spread_s", "meas_x", "pred_x", "relay", "apply",
      "capt", "wait", "comp", "enc", "apply", "idle", "MB", "retr", "ident");
  std::printf("%*s(coordinator ms/sweep)   (mean worker ms/sweep)  "
              "(per sweep)\n",
              41, "");
  warplda::obs::SetMetricsEnabled(true);
  double base_seconds = 0.0;
  bool all_identical = true;
  for (int64_t w = 1; w <= max_workers; w *= 2) {
    std::vector<double> rep_seconds;
    uint64_t retransmits = 0;
    uint64_t frames_sent = 0;
    uint64_t bytes_sent = 0;
    // compute, encode, apply, idle µs summed over every worker and rep.
    std::vector<double> worker_us(4, 0.0);
    int64_t worker_reports = 0;
    bool identical = true;
    const std::vector<double> sums_before = CoordSums();
    for (int64_t r = 0; r < kReps; ++r) {
      warplda::WarpLdaSampler sampler;
      sampler.Init(corpus, config);
      warplda::DistConfig dist;
      dist.num_workers = static_cast<uint32_t>(w);
      dist.iterations = static_cast<uint32_t>(iterations);
      const warplda::DistResult result =
          RunDistributedSweeps(sampler, corpus, plan, dist);
      if (!result.ok) {
        std::fprintf(stderr, "dist run failed at %lld workers: %s\n",
                     static_cast<long long>(w), result.error.c_str());
        return 1;
      }
      double total = 0.0;
      for (double s : result.sweep_seconds) total += s;
      rep_seconds.push_back(total / static_cast<double>(iterations));
      retransmits += result.coordinator_stats.retransmits +
                     result.worker_stats.retransmits;
      frames_sent += result.coordinator_stats.frames_sent +
                     result.worker_stats.frames_sent;
      bytes_sent += result.coordinator_stats.bytes_sent +
                    result.worker_stats.bytes_sent;
      for (const warplda::DistWorkerReport& report : result.worker_reports) {
        if (!report.reported) continue;
        ++worker_reports;
        worker_us[0] += static_cast<double>(report.compute_us);
        worker_us[1] += static_cast<double>(report.encode_us);
        worker_us[2] += static_cast<double>(report.apply_us);
        worker_us[3] += static_cast<double>(report.idle_us);
      }
      identical =
          identical && sampler.Assignments() == reference.Assignments();
    }
    const std::vector<double> sums_after = CoordSums();
    std::vector<double> coord_ms;
    for (size_t h = 0; h < sums_after.size(); ++h) {
      coord_ms.push_back((sums_after[h] - sums_before[h]) / 1e3 /
                         static_cast<double>(kReps * iterations));
    }
    // Per worker and sweep: the reports cover every rep's iterations.
    std::vector<double> worker_ms;
    for (double us : worker_us) {
      worker_ms.push_back(worker_reports == 0
                              ? 0.0
                              : us / 1e3 /
                                    static_cast<double>(worker_reports *
                                                        iterations));
    }
    const double mb_per_sweep = static_cast<double>(bytes_sent) / 1e6 /
                                static_cast<double>(kReps * iterations);
    std::sort(rep_seconds.begin(), rep_seconds.end());
    const double per_sweep = rep_seconds[rep_seconds.size() / 2];
    const double spread = rep_seconds.back() - rep_seconds.front();
    if (w == 1) base_seconds = per_sweep;
    const double measured = base_seconds / per_sweep;

    warplda::ClusterConfig sim_config;
    sim_config.num_workers = static_cast<uint32_t>(w);
    sim_config.overlap_blocks = static_cast<uint32_t>(w);
    const double predicted =
        warplda::ClusterSim(corpus, sim_config).SimulatedSpeedup();

    all_identical = all_identical && identical;
    std::printf(
        "%7lld %8.4f %8.4f %6.2fx %6.2fx %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f "
        "%6.1f %6.1f %7.2f %5llu %5s\n",
        static_cast<long long>(w), per_sweep, spread, measured, predicted,
        coord_ms[0], coord_ms[1], coord_ms[2], coord_ms[3], worker_ms[0],
        worker_ms[1], worker_ms[2], worker_ms[3], mb_per_sweep,
        static_cast<unsigned long long>(retransmits),
        identical ? "yes" : "NO");
    json.AddRow()
        .Int("workers", w)
        .Num("seconds_per_sweep", per_sweep)
        .Num("seconds_per_sweep_min", rep_seconds.front())
        .Num("seconds_per_sweep_max", rep_seconds.back())
        .Num("measured_speedup", measured)
        .Num("predicted_speedup", predicted)
        .Num("coord_relay_ms_per_sweep", coord_ms[0])
        .Num("coord_apply_ms_per_sweep", coord_ms[1])
        .Num("coord_capture_ms_per_sweep", coord_ms[2])
        .Num("coord_wait_ms_per_sweep", coord_ms[3])
        .Num("worker_compute_ms_per_sweep", worker_ms[0])
        .Num("worker_encode_ms_per_sweep", worker_ms[1])
        .Num("worker_apply_ms_per_sweep", worker_ms[2])
        .Num("worker_idle_ms_per_sweep", worker_ms[3])
        .Num("bytes_per_sweep", mb_per_sweep * 1e6)
        .Int("retransmits_all_runs", static_cast<int64_t>(retransmits))
        .Int("frames_sent_per_run", static_cast<int64_t>(frames_sent) / kReps)
        .Str("bit_identical", identical ? "yes" : "no");
  }
  warplda::obs::SetMetricsEnabled(false);
  json.Write("BENCH_dist_transport.json");

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: a distributed run diverged from Iterate()\n");
    return 1;
  }
  std::printf("\nall worker counts bit-identical to Iterate(); ClusterSim "
              "prices none of the coordinator's relay, apply or capture "
              "time\n");
  return 0;
}
