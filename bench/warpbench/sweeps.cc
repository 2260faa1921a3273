#include "bench/warpbench/sweeps.h"

#include <algorithm>

#include "eval/log_likelihood.h"

namespace warpbench {

namespace {

// Per-worker RunBlock time of the current span. Padded: each worker writes
// only its own slot while the span runs.
struct alignas(64) WorkerBusy {
  double seconds = 0.0;
};

bool IsWordSpan(warplda::SweepStage stage) {
  return stage == warplda::SweepStage::kWordAccept ||
         stage == warplda::SweepStage::kWordPropose;
}

}  // namespace

double IterateSweep(warplda::WarpLdaSampler& sampler, SpanLog* log) {
  const Clock::time_point start = Clock::now();
  sampler.Iterate();
  const Clock::time_point end = Clock::now();
  if (log != nullptr) log->Add(0, "sweep", "iterate", start, end);
  return SecondsBetween(start, end);
}

double ExecutorSweep(warplda::ParallelExecutor& executor,
                     warplda::WarpLdaSampler& sampler,
                     const warplda::SweepPlan& plan) {
  const Clock::time_point start = Clock::now();
  executor.RunSweep(sampler, plan);
  return SecondsBetween(start, Clock::now());
}

double TracedGridSweep(warplda::ParallelExecutor& executor,
                       warplda::WarpLdaSampler& sampler,
                       const warplda::SweepPlan& plan, SpanLog& log,
                       SweepTiming* out) {
  const uint32_t threads = executor.num_threads();
  const uint32_t doc_blocks = plan.num_doc_blocks;
  const uint32_t word_blocks = plan.num_word_blocks;
  std::vector<WorkerBusy> busy(threads);
  SweepTiming timing;
  timing.threads = threads;

  sampler.ReserveWorkers(threads);
  const Clock::time_point sweep_start = Clock::now();
  sampler.BeginSweep(plan);
  const Clock::time_point begun = Clock::now();
  log.Add(0, "begin-sweep", "barrier", sweep_start, begun);
  timing.begin_s = SecondsBetween(sweep_start, begun);
  try {
    while (sampler.sweep_stage() != warplda::SweepStage::kDone) {
      const warplda::SweepStage stage = sampler.sweep_stage();
      for (WorkerBusy& b : busy) b.seconds = 0.0;
      const Clock::time_point span_start = Clock::now();
      executor.Run(doc_blocks * word_blocks, [&](uint32_t worker, uint32_t t) {
        // RunSweep's wavefront: round t / D pairs doc block i with word
        // block (i + round) mod W.
        const uint32_t i = t % doc_blocks;
        const uint32_t j = (i + t / doc_blocks) % word_blocks;
        const Clock::time_point block_start = Clock::now();
        sampler.RunBlock(i, j, worker);
        const Clock::time_point block_end = Clock::now();
        busy[worker].seconds += SecondsBetween(block_start, block_end);
        log.Add(worker, "block", warplda::ToString(stage), block_start,
                block_end, static_cast<int64_t>(i) * word_blocks + j);
      });
      const Clock::time_point span_end = Clock::now();
      sampler.EndStage();
      const Clock::time_point barrier_end = Clock::now();
      log.Add(0, warplda::ToString(stage), "span", span_start, span_end);
      log.Add(0, "end-stage", "barrier", span_end, barrier_end);
      SpanTiming span;
      span.stage = stage;
      span.wall_s = SecondsBetween(span_start, span_end);
      span.barrier_s = SecondsBetween(span_end, barrier_end);
      for (const WorkerBusy& b : busy) {
        span.busy_sum_s += b.seconds;
        span.busy_max_s = std::max(span.busy_max_s, b.seconds);
      }
      timing.spans.push_back(span);
    }
    const Clock::time_point end_start = Clock::now();
    sampler.EndSweep();
    const Clock::time_point sweep_end = Clock::now();
    timing.end_s = SecondsBetween(end_start, sweep_end);
    timing.sweep_s = SecondsBetween(sweep_start, sweep_end);
    log.Add(0, "sweep", "grid", sweep_start, sweep_end);
  } catch (...) {
    sampler.AbortSweep();
    throw;
  }
  if (out != nullptr) *out = timing;
  return timing.sweep_s;
}

void ReportSweepLayers(const std::vector<SweepTiming>& sweeps,
                       uint64_t tokens, RunResult& result) {
  if (sweeps.empty() || tokens == 0) return;
  struct Group {
    std::vector<double> barrier_ms, ns_per_token, idle_share, skew;
    void Add(double barrier_s, double busy_sum_s, double wall_s,
             double threads, double skew_sum, int spans, uint64_t tokens) {
      barrier_ms.push_back(barrier_s * 1e3);
      ns_per_token.push_back(busy_sum_s * 1e9 / tokens);
      idle_share.push_back(wall_s > 0 ? 1.0 - busy_sum_s / (threads * wall_s)
                                      : 0.0);
      skew.push_back(spans > 0 ? skew_sum / spans : 1.0);
    }
    void Report(const std::string& prefix, RunResult& r) const {
      if (barrier_ms.empty()) return;
      r.Set(prefix + ".barrier_ms", Median(barrier_ms), "ms");
      r.Set(prefix + ".ns_per_token", Median(ns_per_token), "ns");
      r.Set(prefix + ".idle_share", Median(idle_share), "fraction");
      r.Set(prefix + ".skew", Median(skew), "ratio");
    }
  };
  Group word, doc;
  Group per_stage[4];
  std::vector<double> sweep_ms, begin_ms, serial_share;
  for (const SweepTiming& sweep : sweeps) {
    sweep_ms.push_back(sweep.sweep_s * 1e3);
    begin_ms.push_back(sweep.begin_s * 1e3);
    double serial = sweep.begin_s + sweep.end_s;
    double sums[2][4] = {};  // [word/doc][barrier, busy, wall, skew]
    int counts[2] = {0, 0};
    for (const SpanTiming& span : sweep.spans) {
      serial += span.barrier_s;
      const double mean_busy = span.busy_sum_s / sweep.threads;
      const double skew = mean_busy > 0 ? span.busy_max_s / mean_busy : 1.0;
      const int g = IsWordSpan(span.stage) ? 0 : 1;
      sums[g][0] += span.barrier_s;
      sums[g][1] += span.busy_sum_s;
      sums[g][2] += span.wall_s;
      sums[g][3] += skew;
      ++counts[g];
      per_stage[static_cast<int>(span.stage)].Add(
          span.barrier_s, span.busy_sum_s, span.wall_s, sweep.threads, skew,
          1, tokens);
    }
    word.Add(sums[0][0], sums[0][1], sums[0][2], sweep.threads, sums[0][3],
             counts[0], tokens);
    doc.Add(sums[1][0], sums[1][1], sums[1][2], sweep.threads, sums[1][3],
            counts[1], tokens);
    serial_share.push_back(serial / sweep.sweep_s);
  }
  result.Set("sweep.ms", Median(sweep_ms), "ms");
  result.Set("sweep.begin_ms", Median(begin_ms), "ms");
  result.Set("serial_share", Median(serial_share), "fraction");
  word.Report("word", result);
  doc.Report("doc", result);
  for (int s = 0; s < 4; ++s) {
    per_stage[s].Report(
        std::string("span.") +
            warplda::ToString(static_cast<warplda::SweepStage>(s)),
        result);
  }
}

double CrossingSweep(const std::vector<double>& ll_per_token, double target) {
  if (!ll_per_token.empty() && ll_per_token[0] >= target) return 0.0;
  for (size_t s = 1; s < ll_per_token.size(); ++s) {
    const double before = ll_per_token[s - 1];
    const double after = ll_per_token[s];
    if (after >= target) return (s - 1) + (target - before) / (after - before);
  }
  return -1.0;
}

double SecondsToSweep(const std::vector<double>& sweep_seconds, double sweep) {
  if (sweep < 0 || sweep > static_cast<double>(sweep_seconds.size())) {
    return -1.0;
  }
  const size_t whole = static_cast<size_t>(sweep);
  double seconds = 0.0;
  for (size_t s = 0; s < whole; ++s) seconds += sweep_seconds[s];
  if (whole < sweep_seconds.size()) {
    seconds += (sweep - static_cast<double>(whole)) * sweep_seconds[whole];
  }
  return seconds;
}

double LlPerToken(const warplda::Corpus& corpus,
                  const warplda::WarpLdaSampler& sampler,
                  const warplda::LdaConfig& config) {
  return warplda::JointLogLikelihood(corpus, sampler.Assignments(),
                                     config.num_topics, config.alpha,
                                     config.beta) /
         static_cast<double>(corpus.num_tokens());
}

}  // namespace warpbench
