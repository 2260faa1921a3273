#include "core/parallel_executor.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace warplda {

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Registry handles are resolved once (first use) and cached; the recording
// sites only pay a relaxed MetricsEnabled() check per stage, never a lookup.
struct ExecutorMetrics {
  obs::Counter* blocks_claimed;
  obs::Counter* blocks_stolen;
  obs::Histogram* worker_blocks;
  obs::Histogram* barrier_wait_us;
  obs::Histogram* begin_sweep_us;
  obs::Histogram* end_stage_us;

  static const ExecutorMetrics& Get() {
    static const ExecutorMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      ExecutorMetrics em;
      em.blocks_claimed = reg.GetCounter(
          "executor_blocks_claimed_total",
          "Grid blocks executed across all sweep stages");
      em.blocks_stolen = reg.GetCounter(
          "executor_blocks_stolen_total",
          "Blocks run by a different worker than a static round-robin "
          "schedule would have assigned (dynamic load balancing at work)");
      em.worker_blocks = reg.GetHistogram(
          "executor_worker_blocks",
          "Blocks one worker executed in one stage",
          obs::DefaultCountBuckets());
      em.barrier_wait_us = reg.GetHistogram(
          "executor_barrier_wait_us",
          "Driver idle time at the end-of-run barrier after finishing its "
          "own share of tasks");
      em.begin_sweep_us = reg.GetHistogram(
          "executor_begin_sweep_us",
          "BeginSweep barrier work: plan indices and the first span's "
          "c_k snapshot");
      em.end_stage_us = reg.GetHistogram(
          "executor_end_stage_us",
          "EndStage barrier work: staged-write apply, delta fold and the "
          "next span's c_k snapshot");
      return em;
    }();
    return m;
  }
};

}  // namespace

ParallelExecutor::ParallelExecutor(uint32_t num_threads)
    : num_threads_(std::max(1u, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (uint32_t w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ParallelExecutor::Run(uint32_t num_tasks, const Task& fn) {
  if (num_tasks == 0) return;
  if (workers_.empty()) {
    // Same contract as the pooled path: a throwing task does not stop the
    // remaining tasks, and the first exception is rethrown at the end.
    std::exception_ptr error;
    for (uint32_t t = 0; t < num_tasks; ++t) {
      try {
        fn(0, t);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->num_tasks = num_tasks;
  job->remaining = num_tasks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
  }
  cv_work_.notify_all();
  RunTasks(*job, 0);  // the caller works too, as worker 0
  const bool metrics = obs::MetricsEnabled();
  const int64_t wait_start = metrics ? NowUs() : 0;
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [&] { return job->remaining == 0; });
  if (metrics) {
    ExecutorMetrics::Get().barrier_wait_us->Observe(
        static_cast<double>(NowUs() - wait_start));
  }
  job_.reset();
  if (job->error) std::rethrow_exception(job->error);
}

void ParallelExecutor::RunTasks(Job& job, uint32_t worker) {
  for (;;) {
    const uint32_t t = job.next.fetch_add(1, std::memory_order_relaxed);
    if (t >= job.num_tasks) return;
    try {
      (*job.fn)(worker, t);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!job.error) job.error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (--job.remaining == 0) cv_done_.notify_all();
  }
}

void ParallelExecutor::WorkerLoop(uint32_t worker) {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock, [&] {
        return shutdown_ ||
               (job_ != nullptr &&
                job_->next.load(std::memory_order_relaxed) < job_->num_tasks);
      });
      if (shutdown_) return;
      job = job_;
    }
    RunTasks(*job, worker);
  }
}

TaskRunner ParallelExecutor::Runner() {
  return [this](uint32_t num_tasks, const Task& fn) { Run(num_tasks, fn); };
}

void ParallelExecutor::RunSweep(GridSampler& sampler, const SweepPlan& plan,
                                const StageHook& barrier_hook) {
  // BeginSweep's barrier tasks already run on every worker.
  sampler.ReserveWorkers(num_threads_);
  {
    obs::TraceSpan begin_span("begin-sweep", "executor");
    const bool metrics = obs::MetricsEnabled();
    const int64_t begin_start = metrics ? NowUs() : 0;
    sampler.BeginSweep(plan, Runner());
    if (metrics) {
      ExecutorMetrics::Get().begin_sweep_us->Observe(
          static_cast<double>(NowUs() - begin_start));
    }
  }
  FinishSweep(sampler, plan, barrier_hook);
}

void ParallelExecutor::FinishSweep(GridSampler& sampler, const SweepPlan& plan,
                                   const StageHook& barrier_hook) {
  const uint32_t doc_blocks = plan.num_doc_blocks;
  const uint32_t word_blocks = plan.num_word_blocks;
  const TaskRunner run = Runner();
  sampler.ReserveWorkers(num_threads_);
  // Per-worker block tallies for the current stage. Workers write only
  // their own slot (padded to a cache line); the driver folds them into the
  // registry at each barrier, where workers are quiescent.
  struct alignas(64) WorkerTally {
    uint64_t claimed = 0;
    uint64_t stolen = 0;
  };
  std::vector<WorkerTally> tallies(num_threads_);
  try {
    // Loop from the sampler's current stage — kWordAccept for a fresh
    // sweep, later for one reopened by RestoreSweepState — to completion.
    while (sampler.sweep_stage() != SweepStage::kDone) {
      const SweepStage stage = sampler.sweep_stage();
      const bool metrics = obs::MetricsEnabled();
      {
        // The stage span covers block execution and the EndStage fold, but
        // not the barrier hook (checkpoints get their own spans).
        obs::TraceSpan stage_span(ToString(stage), "stage");
        // Wavefront order: task t is block (i, j) with i = t mod D and
        // j = (i + t/D) mod W — round r = t/D rotates the word slice, so the
        // D earliest-enqueued tasks pair distinct rows with distinct columns.
        Run(doc_blocks * word_blocks, [&](uint32_t worker, uint32_t t) {
          obs::TraceSpan block_span("block", "executor", t);
          if (metrics) {
            tallies[worker].claimed++;
            // "Stolen" relative to a static round-robin schedule: dynamic
            // claiming moved this block off its nominal worker.
            if (worker != t % num_threads_) tallies[worker].stolen++;
          }
          const uint32_t i = t % doc_blocks;
          const uint32_t j = (i + t / doc_blocks) % word_blocks;
          sampler.RunBlock(i, j, worker);
        });
        obs::TraceSpan fold_span("end-stage", "executor");
        const int64_t fold_start = metrics ? NowUs() : 0;
        sampler.EndStage(run);
        if (metrics) {
          ExecutorMetrics::Get().end_stage_us->Observe(
              static_cast<double>(NowUs() - fold_start));
        }
      }
      if (metrics) {
        const ExecutorMetrics& em = ExecutorMetrics::Get();
        for (WorkerTally& tally : tallies) {
          if (tally.claimed > 0) {
            em.blocks_claimed->Inc(tally.claimed);
            em.blocks_stolen->Inc(tally.stolen);
            em.worker_blocks->Observe(static_cast<double>(tally.claimed));
          }
          tally = WorkerTally{};
        }
      }
      if (barrier_hook && sampler.sweep_stage() != SweepStage::kDone) {
        barrier_hook(sampler.sweep_stage());
      }
    }
    sampler.EndSweep();
  } catch (...) {
    sampler.AbortSweep();  // don't wedge the sampler mid-sweep
    throw;
  }
}

}  // namespace warplda
