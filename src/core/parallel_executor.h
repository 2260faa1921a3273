#ifndef WARPLDA_CORE_PARALLEL_EXECUTOR_H_
#define WARPLDA_CORE_PARALLEL_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sweep_plan.h"
#include "util/contracts.h"

namespace warplda {

/// Fixed-size thread pool that executes the blocks of a grid-sweep stage
/// concurrently (paper §5.3.1, applied to the SweepPlan grid of §6).
///
/// Within a stage, grid blocks touch disjoint assignment state (each owns
/// its tokens' writes, or stages them until the EndStage barrier) and every
/// token owns its RNG stream, so blocks may run on any worker in any order
/// without changing the samples — the executor changes wall-clock time,
/// never the trajectory. `RunSweep()` exploits that: each stage span the
/// sampler reports becomes one `Run()` whose tasks are the span's blocks,
/// claimed dynamically so uneven blocks balance. Tasks are enqueued in
/// wavefront order over the grid (round r schedules blocks (i, (i+r) mod
/// W)), the rotation a multi-machine deployment uses. For WarpLDA, whose
/// blocks own contiguous item ranges of one axis per span, the order only
/// decides which ranges run first; any order gives each worker a disjoint
/// slice of the items.
///
/// The pool is persistent: workers block on a condition variable between
/// `Run()` calls, and stage barriers cost one mutex handshake, not a
/// thread spawn. A single driver thread owns the executor; `Run()` must not
/// be called concurrently with itself.
class ParallelExecutor {
 public:
  /// Task body: fn(worker, task) with worker in [0, num_threads()) and task
  /// in [0, num_tasks). The worker id is what callers key per-thread scratch
  /// by (e.g. GridSampler::RunBlock's worker argument).
  using Task = BarrierTask;

  /// `num_threads` counts the calling thread: the pool spawns num_threads-1
  /// workers and the thread calling Run() executes tasks as worker 0, so a
  /// 1-thread executor runs everything inline with no synchronization — the
  /// fair serial baseline for scaling curves.
  explicit ParallelExecutor(uint32_t num_threads);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  uint32_t num_threads() const { return num_threads_; }

  /// Runs fn(worker, t) for every t in [0, num_tasks) and returns when all
  /// have completed. Tasks are claimed dynamically (an atomic cursor), so
  /// uneven task costs balance automatically. If tasks throw, the remaining
  /// tasks still run and the first exception is rethrown here.
  void Run(uint32_t num_tasks, const Task& fn);

  /// Called on the driver thread at each stage barrier, right after
  /// EndStage() returned and before any block of the next stage is
  /// scheduled, with the stage about to run. The sampler is quiescent —
  /// staged writes applied, per-worker deltas folded — which is exactly when
  /// GridSampler::CaptureSweepState is legal; the trainer's mid-sweep
  /// checkpoints hook in here. Not invoked after the final stage (the sweep
  /// is complete then; checkpoint between sweeps instead).
  using StageHook = std::function<void(SweepStage next_stage)>;

  /// One full grid sweep of `plan`: ReserveWorkers(num_threads()), then
  /// BeginSweep and, per stage, one Run() over the stage's blocks in
  /// wavefront order followed by the EndStage barrier on the calling thread
  /// (where `barrier_hook`, when set, fires). BeginSweep and EndStage get
  /// this pool as their TaskRunner, so their barrier work runs on every
  /// worker too. Produces exactly the samples of GridSampler::RunSweep (and,
  /// for a conforming sampler, of Iterate()).
  void RunSweep(GridSampler& sampler, const SweepPlan& plan,
                const StageHook& barrier_hook = nullptr);

  /// Drives an already-open sweep from the sampler's current stage to
  /// completion (EndSweep included) — the resume path after
  /// GridSampler::RestoreSweepState reopened a checkpointed sweep
  /// mid-flight. `plan` must be the open sweep's plan. Grows the sampler's
  /// worker pool to num_threads() first; any thread count finishes the
  /// sweep bit-identically. RunSweep is BeginSweep + FinishSweep.
  void FinishSweep(GridSampler& sampler, const SweepPlan& plan,
                   const StageHook& barrier_hook = nullptr);

 private:
  /// One Run() invocation. Heap-allocated and shared with workers so a
  /// worker waking up late (after the job completed and a new one started)
  /// can never execute a stale task function: it holds the job it saw
  /// published, whose cursor is already exhausted.
  struct Job {
    const Task* fn = nullptr;
    uint32_t num_tasks = 0;
    std::atomic<uint32_t> next{0};     // task claim cursor
    uint32_t remaining = 0;            // guarded by ParallelExecutor::mutex_
    std::exception_ptr error;          // guarded by ParallelExecutor::mutex_
  };

  /// This pool as the TaskRunner lent to GridSampler barriers.
  TaskRunner Runner();
  void WorkerLoop(uint32_t worker);
  /// Claims and executes tasks of `job` until the cursor is exhausted.
  void RunTasks(Job& job, uint32_t worker);

  WARP_IMMUTABLE_AFTER(ParallelExecutor) uint32_t num_threads_;
  WARP_IMMUTABLE_AFTER(ParallelExecutor) std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable cv_work_;  // workers wait here for a job
  std::condition_variable cv_done_;  // Run() waits here for completion
  /// Published by Run() under mutex_ before workers wake, cleared after the
  /// cv_done_ handshake — never touched from inside a task body.
  WARP_BARRIER_ONLY std::shared_ptr<Job> job_;   // guarded by mutex_
  WARP_BARRIER_ONLY bool shutdown_ = false;      // guarded by mutex_
};

}  // namespace warplda

#endif  // WARPLDA_CORE_PARALLEL_EXECUTOR_H_
