// The five warpbench workloads. Each runs in its own process, drives the
// library only through its public calls, and fills one RunResult.
#ifndef WARPLDA_BENCH_WARPBENCH_WORKLOADS_H_
#define WARPLDA_BENCH_WARPBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench/warpbench/harness.h"

namespace warpbench {

enum class Kind { kTrain, kServe, kDist };

/// One workload's inputs. Everything the run varies comes from the seed
/// (corpus, LdaConfig.seed, request order, arrival schedule); the rest is
/// fixed here.
struct Workload {
  const char* name;
  Kind kind;
  double scale;     ///< MakeShapedCorpus("nytimes", scale, seed) shape
  uint32_t topics;  ///< K
  uint32_t threads;  ///< executor threads (dist: worker processes)
  uint32_t grid;    ///< blocks per plan axis; 0 drives Sampler::Iterate()
  /// Sweeps per second of measured time on the calibration host: the sweep
  /// budget is round(seconds * sweeps_per_s), so every run of a workload
  /// does the same work whatever the speed of the code under test.
  double sweeps_per_s;
  /// Time-to-target threshold: per-token log-likelihood within this many
  /// nats of the generating assignments' (the corpus is synthetic, so the
  /// topics that drew it are known). Calibrated on seeds 1-5.
  double target_gap;
};

/// The five workloads, in BENCHMARK.json order.
const Workload* FindWorkload(const std::string& name);

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Tiny sizes and loose targets, every check still on: the self-test.
  bool quick = false;
  std::string trace_path;  ///< Chrome trace output of a traced run
};

void RunWorkload(const Workload& workload, const RunOptions& options,
                 RunResult& result);

}  // namespace warpbench

#endif  // WARPLDA_BENCH_WARPBENCH_WORKLOADS_H_
