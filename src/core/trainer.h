#ifndef WARPLDA_CORE_TRAINER_H_
#define WARPLDA_CORE_TRAINER_H_

#include <functional>
#include <string>
#include <vector>

#include "baselines/sampler.h"
#include "core/sweep_plan.h"
#include "corpus/corpus.h"
#include "eval/topic_model.h"

namespace warplda {

/// Controls a training run driven by Train().
struct TrainOptions {
  uint32_t iterations = 100;
  /// Evaluate the joint log likelihood every this many iterations
  /// (0 = only after the last iteration). Evaluation time is excluded from
  /// the reported sampling time, matching the paper's methodology.
  uint32_t eval_every = 5;
  /// Re-estimate the symmetric α and β priors with Minka's fixed point
  /// after every iteration whose absolute number is a multiple of this (0
  /// disables), the run's last iteration included, so a resumed run
  /// optimizes after the same sweeps as an uninterrupted one. MALLET-style
  /// hyper-parameter optimization; typically improves held-out quality over
  /// fixed 50/K.
  uint32_t optimize_hyper_every = 0;
  bool verbose = false;  ///< print one line per evaluation to stdout
  /// Sweep execution. A sampler implementing GridSampler (WarpLDA) runs
  /// every sweep block-wise over `sweep_plan` through a ParallelExecutor
  /// with `sweep_threads` workers (wavefront block schedule); the defaults,
  /// the trivial 1×1 plan on the calling thread, are exactly Iterate()'s
  /// sweep. Plan and thread count change wall-clock only: every plan samples
  /// identically. Any other sampler runs Iterate(), and Train throws
  /// std::invalid_argument when it is given a non-trivial plan,
  /// sweep_threads > 1, checkpoint_dir or checkpoint_stages.
  SweepPlan sweep_plan;
  uint32_t sweep_threads = 1;  ///< executor size, calling thread included

  /// Durability (core/checkpoint.h), GridSampler only. When non-empty,
  /// Train() writes crash-safe SweepCheckpoints to "sweep.ckpt" in this
  /// directory (created if missing):
  ///  * every `checkpoint_every` iterations (0 disables the cadence), and
  ///    always after the final iteration, a between-sweeps checkpoint
  ///    (the pending proposals and RNG stream epoch travel along, so the
  ///    resumed run is bit-identical to an uninterrupted one);
  ///  * with `checkpoint_stages` set, additionally at every stage barrier
  ///    of every sweep, so a kill loses at most one stage of work.
  /// All writes are atomic (temp + fsync + rename): a kill at any instant
  /// leaves the previous complete checkpoint or the new one, never a torn
  /// file. A failed write throws std::runtime_error — durability failures
  /// must not pass silently.
  std::string checkpoint_dir;
  uint32_t checkpoint_every = 0;
  bool checkpoint_stages = false;
  /// Resume from the newest checkpoint in `checkpoint_dir` before training.
  /// Missing files mean a fresh start (so the same command line serves both
  /// the first launch and every restart); a corrupt or mismatched checkpoint
  /// throws std::runtime_error rather than silently retraining. A run
  /// restored mid-sweep finishes the in-flight sweep first, bit-identically
  /// to the uninterrupted schedule. `history` restarts at the resume point.
  bool resume = false;
  /// Test/telemetry hook: called after each checkpoint file is durably on
  /// disk, with the number of fully completed iterations and the stage the
  /// in-flight sweep will resume at (kWordAccept for an iteration-boundary
  /// checkpoint). The kill-and-resume harness SIGKILLs inside this hook.
  /// Checkpoints are written by a background thread (core/checkpoint.h
  /// AsyncCheckpointWriter), so the hook runs on that writer thread — still
  /// strictly after its checkpoint is durable and before any later file
  /// write, preserving the kill-and-resume semantics. Must not throw.
  std::function<void(uint32_t completed_iterations, SweepStage next_stage)>
      checkpoint_hook;

  /// Observability (src/obs/). `metrics` turns on the global hot-path
  /// metric recording for the duration of the run (counters/histograms land
  /// in obs::MetricsRegistry::Global(): trainer_*, executor_*, ckpt_*).
  /// `trace_path`, when non-empty, records a Chrome trace_event timeline of
  /// the run — per-sweep, per-stage, and per-worker block spans — and
  /// writes it to this path at the end (openable in chrome://tracing or
  /// Perfetto). Both default off and cost nothing when off.
  bool metrics = false;
  std::string trace_path;
};

/// One row of a convergence trace (the data behind Fig 5's panels).
struct IterationStat {
  uint32_t iteration = 0;       ///< 1-based, after this many sweeps
  double seconds = 0.0;         ///< cumulative sampling seconds (eval excluded)
  double log_likelihood = 0.0;  ///< joint log likelihood at this point
  double tokens_per_second = 0.0;  ///< throughput of the last sweep block
};

/// Outcome of Train(): the convergence trace plus the final state.
struct TrainResult {
  std::vector<IterationStat> history;
  std::vector<TopicId> assignments;  ///< document-major final assignments
  double final_log_likelihood = 0.0;
  double total_seconds = 0.0;
  /// Priors in effect at the end (differ from LdaConfig's when
  /// optimize_hyper_every was set).
  double final_alpha = 0.0;
  double final_beta = 0.0;

  /// Builds the word-topic model from the final assignments, using the
  /// optimized priors when hyper-parameter optimization ran.
  TopicModel ToModel(const Corpus& corpus, const LdaConfig& config) const {
    double alpha = final_alpha > 0.0 ? final_alpha : config.alpha;
    double beta = final_beta > 0.0 ? final_beta : config.beta;
    return TopicModel(corpus, assignments, config.num_topics, alpha, beta);
  }
};

/// Per-evaluation callback: receives each IterationStat as it is produced.
using TrainCallback = std::function<void(const IterationStat&)>;

/// Runs `options.iterations` sweeps of `sampler` over `corpus`, recording a
/// convergence trace. The sampler is (re-)initialized first.
TrainResult Train(Sampler& sampler, const Corpus& corpus,
                  const LdaConfig& config, const TrainOptions& options,
                  const TrainCallback& callback = nullptr);

}  // namespace warplda

#endif  // WARPLDA_CORE_TRAINER_H_
