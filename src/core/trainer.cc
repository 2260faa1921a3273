#include "core/trainer.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/checkpoint.h"
#include "core/parallel_executor.h"
#include "eval/hyperparams.h"
#include "eval/log_likelihood.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/checkpoint_io.h"
#include "util/stopwatch.h"

namespace warplda {

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Turns hot-path metric recording on for the run when TrainOptions::metrics
/// asks for it, restoring the previous state on exit. A caller that enabled
/// metrics globally (e.g. topic_server --metrics-every) is left untouched.
struct MetricsScope {
  bool flipped;
  explicit MetricsScope(bool enable)
      : flipped(enable && !obs::MetricsEnabled()) {
    if (flipped) obs::SetMetricsEnabled(true);
  }
  ~MetricsScope() {
    if (flipped) obs::SetMetricsEnabled(false);
  }
};

/// Records the run into the global TraceRecorder and writes the Chrome trace
/// JSON on exit (including exceptional exits — a crash-adjacent trace is the
/// most interesting kind). Write failures are reported to stderr, never
/// thrown from a destructor.
struct TraceScope {
  std::string path;
  explicit TraceScope(std::string trace_path) : path(std::move(trace_path)) {
    if (!path.empty()) obs::TraceRecorder::Global().Start();
  }
  ~TraceScope() {
    if (path.empty()) return;
    auto& recorder = obs::TraceRecorder::Global();
    recorder.Stop();
    std::string err;
    if (!recorder.WriteJson(path, &err)) {
      std::fprintf(stderr, "Train: %s\n", err.c_str());
    }
  }
};

}  // namespace

TrainResult Train(Sampler& sampler, const Corpus& corpus,
                  const LdaConfig& config, const TrainOptions& options,
                  const TrainCallback& callback) {
  // A GridSampler sweeps through the executor (the default trivial plan on
  // one thread is Iterate()'s own sweep); any other sampler runs Iterate().
  GridSampler* grid = dynamic_cast<GridSampler*>(&sampler);
  if (grid == nullptr && (!options.sweep_plan.trivial() ||
                          options.sweep_threads > 1 ||
                          !options.checkpoint_dir.empty() ||
                          options.checkpoint_stages)) {
    throw std::invalid_argument(
        "Train: sweep_plan, sweep_threads, checkpoint_dir and "
        "checkpoint_stages require a sampler implementing GridSampler");
  }
  TrainResult result;
  MetricsScope metrics_scope(options.metrics);
  TraceScope trace_scope(options.trace_path);
  sampler.Init(corpus, config);
  double alpha = config.alpha;
  double beta = config.beta;

  ParallelExecutor executor(options.sweep_threads);

  // ------------------------------------------------------------ durability
  const bool durable = !options.checkpoint_dir.empty();
  const std::string sweep_path = options.checkpoint_dir + "/sweep.ckpt";
  std::unique_ptr<AsyncCheckpointWriter> ckpt_writer;
  if (durable) {
    std::string err;
    if (!EnsureDirectory(options.checkpoint_dir, &err)) {
      throw std::runtime_error("Train: " + err);
    }
    // Saves run on the writer's thread; the training thread pays only the
    // in-memory capture. Failures are latched and rethrown at the next
    // submit (or the final flush) — durability failures still fail the run.
    ckpt_writer = std::make_unique<AsyncCheckpointWriter>(/*max_pending=*/2);
  }
  auto throw_if_save_failed = [&] {
    std::string err;
    if (ckpt_writer != nullptr && !ckpt_writer->ok(&err)) {
      throw std::runtime_error("Train: checkpoint save failed: " + err);
    }
  };
  obs::Histogram* capture_us =
      durable ? obs::MetricsRegistry::Global().GetHistogram(
                    "ckpt_capture_us",
                    "In-memory checkpoint state capture on the training "
                    "thread (the only part the barrier pays for)")
              : nullptr;

  // Iteration-boundary checkpoint: a between-sweeps SweepCheckpoint
  // (pending proposals + RNG epoch travel along, so the resumed trajectory
  // is bit-identical).
  auto save_iteration_checkpoint = [&](uint32_t completed) {
    throw_if_save_failed();
    obs::TraceSpan span("checkpoint-capture", "ckpt");
    const bool obs_on = obs::MetricsEnabled();
    const int64_t capture_start = obs_on ? NowUs() : 0;
    SweepCheckpoint ckpt;
    if (!grid->CaptureSweepState(&ckpt)) {
      throw std::runtime_error(
          "Train: the sampler cannot capture its sweep state");
    }
    ckpt.iteration = completed;
    if (obs_on) capture_us->Observe(NowUs() - capture_start);
    ckpt_writer->Submit(std::move(ckpt), sweep_path,
                        [hook = options.checkpoint_hook, completed] {
                          if (hook) hook(completed, SweepStage::kWordAccept);
                        });
  };

  // Mid-sweep checkpoints at every stage barrier (checkpoint_stages): the
  // capture happens on the driver thread, where the sampler is quiescent;
  // the write happens on the checkpoint writer's thread.
  uint32_t completed_before_sweep = 0;
  ParallelExecutor::StageHook stage_hook;
  if (durable && options.checkpoint_stages) {
    stage_hook = [&](SweepStage next_stage) {
      throw_if_save_failed();
      obs::TraceSpan span("checkpoint-capture", "ckpt");
      const bool obs_on = obs::MetricsEnabled();
      const int64_t capture_start = obs_on ? NowUs() : 0;
      SweepCheckpoint ckpt;
      if (!grid->CaptureSweepState(&ckpt)) return;  // capture unsupported
      ckpt.iteration = completed_before_sweep;
      if (obs_on) capture_us->Observe(NowUs() - capture_start);
      ckpt_writer->Submit(
          std::move(ckpt), sweep_path,
          [hook = options.checkpoint_hook,
           completed = completed_before_sweep, next_stage] {
            if (hook) hook(completed, next_stage);
          });
    };
  }

  // ---------------------------------------------------------------- resume
  uint32_t start_iter = 1;
  bool finish_restored_sweep = false;
  SweepPlan restored_plan;
  if (options.resume && durable) {
    std::string err;
    if (FileExists(sweep_path)) {
      SweepCheckpoint ckpt;
      if (!LoadSweepCheckpoint(sweep_path, &ckpt, &err)) {
        throw std::runtime_error("Train: cannot resume: " + err);
      }
      if (!grid->RestoreSweepState(ckpt, &err)) {
        throw std::runtime_error("Train: cannot resume: " + err);
      }
      alpha = ckpt.config.alpha;
      beta = ckpt.config.beta;
      start_iter = ckpt.iteration + 1;
      finish_restored_sweep = ckpt.next_stage != SweepStage::kWordAccept;
      restored_plan = ckpt.plan;
    }
    // No checkpoint on disk: fall through to a fresh run, so the same
    // command line serves the first launch and every restart.
  }

  double sampling_seconds = 0.0;
  double block_seconds = 0.0;
  uint32_t block_iterations = 0;

  auto evaluate = [&](uint32_t iteration) {
    IterationStat stat;
    stat.iteration = iteration;
    stat.seconds = sampling_seconds;
    stat.log_likelihood = JointLogLikelihood(
        corpus, sampler.Assignments(), config.num_topics, alpha, beta);
    stat.tokens_per_second =
        block_seconds > 0.0
            ? static_cast<double>(corpus.num_tokens()) * block_iterations /
                  block_seconds
            : 0.0;
    block_seconds = 0.0;
    block_iterations = 0;
    result.history.push_back(stat);
    if (options.verbose) {
      std::printf("[%s] iter %4u  time %8.2fs  ll %.6e  %.2fM tok/s\n",
                  sampler.name().c_str(), stat.iteration, stat.seconds,
                  stat.log_likelihood, stat.tokens_per_second / 1e6);
      std::fflush(stdout);
    }
    if (callback) callback(stat);
  };

  for (uint32_t iter = start_iter; iter <= options.iterations; ++iter) {
    Stopwatch watch;
    completed_before_sweep = iter - 1;
    {
      obs::TraceSpan sweep_span("sweep", "trainer", iter);
      if (grid != nullptr) {
        if (finish_restored_sweep) {
          // First iteration after a mid-sweep restore: finish the in-flight
          // sweep from the checkpointed stage (bit-identical to the schedule
          // the killed run would have executed), then proceed normally.
          executor.FinishSweep(*grid, restored_plan, stage_hook);
          finish_restored_sweep = false;
        } else {
          executor.RunSweep(*grid, options.sweep_plan, stage_hook);
        }
      } else {
        sampler.Iterate();
      }
    }
    double elapsed = watch.Seconds();
    sampling_seconds += elapsed;
    block_seconds += elapsed;
    ++block_iterations;
    // On the absolute iteration, the run's last one included: a run split
    // by a checkpoint then optimizes after the same sweeps as the unsplit
    // run, whichever iteration the first leg ended on.
    if (options.optimize_hyper_every != 0 &&
        iter % options.optimize_hyper_every == 0) {
      auto assignments = sampler.Assignments();
      alpha = EstimateSymmetricAlpha(corpus, assignments, config.num_topics,
                                     alpha);
      beta = EstimateSymmetricBeta(corpus, assignments, config.num_topics,
                                   beta);
      sampler.SetPriors(alpha, beta);
      if (options.verbose) {
        std::printf("[%s] iter %4u  optimized priors: alpha=%.4g beta=%.4g\n",
                    sampler.name().c_str(), iter, alpha, beta);
      }
    }
    bool last = iter == options.iterations;
    if (last || (options.eval_every != 0 && iter % options.eval_every == 0)) {
      evaluate(iter);
    }
    if (durable &&
        (last ||
         (options.checkpoint_every != 0 &&
          iter % options.checkpoint_every == 0) ||
         options.checkpoint_stages)) {
      save_iteration_checkpoint(iter);
    }
  }

  if (ckpt_writer != nullptr) {
    // All checkpoints durable (and their hooks fired) before Train returns;
    // any background write failure surfaces here at the latest.
    std::string err;
    if (!ckpt_writer->Flush(&err)) {
      throw std::runtime_error("Train: checkpoint save failed: " + err);
    }
  }

  if (result.history.empty() && start_iter > 1) {
    // Resumed past the final iteration (the checkpointed run had already
    // finished): score the restored state so the result is still complete.
    evaluate(options.iterations);
  }

  result.final_alpha = alpha;
  result.final_beta = beta;
  result.assignments = sampler.Assignments();
  result.final_log_likelihood =
      result.history.empty() ? 0.0 : result.history.back().log_likelihood;
  result.total_seconds = sampling_seconds;
  return result;
}

}  // namespace warplda
