// Training side of warpbench: one sweep through each public path
// (Sampler::Iterate, ParallelExecutor::RunSweep, and a traced replay of
// RunSweep through ParallelExecutor::Run), the per-layer aggregation of
// traced sweeps, and the log-likelihood target crossing.
#ifndef WARPLDA_BENCH_WARPBENCH_SWEEPS_H_
#define WARPLDA_BENCH_WARPBENCH_SWEEPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/warpbench/harness.h"
#include "core/parallel_executor.h"
#include "core/sweep_plan.h"
#include "core/warp_lda.h"

namespace warpbench {

/// Timing of one stage span of a traced grid sweep.
struct SpanTiming {
  warplda::SweepStage stage = warplda::SweepStage::kDone;  ///< span entry
  double wall_s = 0.0;      ///< the Run() over the span's blocks
  double barrier_s = 0.0;   ///< the EndStage() that leaves the span
  double busy_sum_s = 0.0;  ///< sum of RunBlock time over workers
  double busy_max_s = 0.0;  ///< busiest worker's RunBlock time
};

/// Timing of one traced grid sweep, split at the protocol's calls.
struct SweepTiming {
  double sweep_s = 0.0;
  double begin_s = 0.0;  ///< BeginSweep
  double end_s = 0.0;    ///< EndSweep
  uint32_t threads = 1;
  std::vector<SpanTiming> spans;
};

/// Iterate(), timed; a `sweep` span when `log` is set.
double IterateSweep(warplda::WarpLdaSampler& sampler, SpanLog* log);

/// ParallelExecutor::RunSweep, timed.
double ExecutorSweep(warplda::ParallelExecutor& executor,
                     warplda::WarpLdaSampler& sampler,
                     const warplda::SweepPlan& plan);

/// One sweep of `plan` driven through the GridSampler protocol with
/// RunSweep's wavefront block order, each stage's blocks handed to
/// ParallelExecutor::Run. Records sweep, span, block (per worker lane) and
/// barrier spans into `log`, and the split into `out`. Produces exactly the
/// samples RunSweep and Iterate() produce.
double TracedGridSweep(warplda::ParallelExecutor& executor,
                       warplda::WarpLdaSampler& sampler,
                       const warplda::SweepPlan& plan, SpanLog& log,
                       SweepTiming* out);

/// Writes the per-layer view of `sweeps` (medians over sweeps) into
/// `result`: sweep.ms, sweep.begin_ms, serial_share, and for the word and
/// doc span groups barrier_ms, ns_per_token, idle_share and skew; plus the
/// same per span (span.<entry stage>.*) as detail.
void ReportSweepLayers(const std::vector<SweepTiming>& sweeps,
                       uint64_t tokens, RunResult& result);

/// Fractional sweep at which the per-token log-likelihood first reaches
/// `target`, interpolated linearly between the evaluations around it.
/// `ll_per_token[s]` is the value after sweep s (index 0 = after Init).
/// Returns -1 when the target is never reached.
double CrossingSweep(const std::vector<double>& ll_per_token, double target);

/// Measured seconds up to fractional sweep `sweep`: the whole sweeps before
/// it plus the matching share of the one it falls in. `sweep_seconds[s]` is
/// the time of sweep s + 1. Returns -1 when `sweep` is negative or beyond
/// the sweeps measured.
double SecondsToSweep(const std::vector<double>& sweep_seconds, double sweep);

/// Joint log-likelihood per token of the sampler's current state.
double LlPerToken(const warplda::Corpus& corpus,
                  const warplda::WarpLdaSampler& sampler,
                  const warplda::LdaConfig& config);

}  // namespace warpbench

#endif  // WARPLDA_BENCH_WARPBENCH_SWEEPS_H_
