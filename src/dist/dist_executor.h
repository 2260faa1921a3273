#ifndef WARPLDA_DIST_DIST_EXECUTOR_H_
#define WARPLDA_DIST_DIST_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/sweep_plan.h"
#include "corpus/corpus.h"
#include "dist/fault.h"
#include "dist/transport.h"
#include "util/contracts.h"

namespace warplda {

/// Fault-tolerant multi-process grid execution — the paper's multi-machine
/// schedule (§5.3.2) run over real processes and real sockets instead of the
/// analytic ClusterSim model.
///
/// Topology: a coordinator forks `num_workers` worker processes, each
/// connected back by one FrameChannel (AF_UNIX socketpair by default,
/// loopback TCP with real connect/accept edges when `use_tcp`). Grid blocks
/// are assigned to workers greedy-LPT by token weight (dist/partitioner.h).
/// Every process starts from a full sampler replica (forked from the
/// initialized coordinator, so replicas start bit-identical for free); each
/// worker runs only its owned blocks per stage span, capturing every
/// block's externally visible effect as a GridBlockDelta and streaming it to
/// the coordinator as soon as the block finishes — communication overlaps
/// the remaining blocks' compute on both ends.
///
/// Ownership is per pass: the owner map is also the deltas' reader map, so
/// a delta is cut into one slice per worker holding the moves and
/// proposals of the tokens that worker reads in the next span. The
/// coordinator applies every slice to its own replica, which stays whole
/// (it alone captures barrier checkpoints), and forwards each other live
/// worker only that worker's slice. A worker's z and proposals are
/// therefore current exactly on the tokens its blocks read; c_k is global
/// everywhere, since every slice carries the block's net c_k change. A
/// stage's barrier is the data dependency itself (nobody can EndStage()
/// before holding all blocks' deltas), so no extra barrier round-trips
/// exist.
///
/// Determinism: grid execution is exact (core/sweep_plan.h) — per-token RNG
/// streams and delayed counts make a sweep's samples independent of where
/// blocks run. A completed distributed sweep is therefore bit-identical to
/// Iterate() — the same sweep on the trivial plan in one process — which
/// the test matrix asserts under every fault below.
///
/// Fault tolerance:
///  * every socket edge runs the FrameChannel robustness envelope —
///    timeouts, bounded exponential-backoff retransmits, CRC
///    reject-and-renegotiate, duplicate suppression, heartbeats;
///  * `fault` turns on the deterministic injector (dist/fault.h) on every
///    channel direction, with per-direction seeds derived from one run seed;
///  * worker death — SIGKILL mid-stage included — is detected by socket EOF
///    or heartbeat timeout. The coordinator then bumps the protocol epoch,
///    repartitions the dead worker's blocks across survivors
///    (ReassignToSurvivors, greedy-LPT seeded with survivors' loads), and
///    broadcasts a recover+restore pair: survivors abort their open sweep
///    and restore the coordinator's last stage-barrier SweepCheckpoint, so
///    the sweep resumes at the exact barrier state and still finishes
///    bit-identical to the uninterrupted run. Frames from before the epoch
///    bump are discarded by their epoch tag; duplicate deltas are idempotent.
/// Class-level contract: a DistConfig is assembled by the caller and frozen
/// once RunDistributedSweeps starts — coordinator and worker loops share it
/// across processes/threads read-only.
struct WARP_IMMUTABLE_AFTER(RunDistributedSweeps) DistConfig {
  static constexpr uint32_t kNoWorker = 0xFFFFFFFFu;

  uint32_t num_workers = 2;
  uint32_t iterations = 1;
  /// false: AF_UNIX socketpair per worker. true: loopback TCP — listener
  /// pre-fork, workers connect with deadline + backoff, coordinator accepts
  /// with a deadline.
  bool use_tcp = false;

  /// A silent peer (no data, no pings) past this deadline is declared dead
  /// even without EOF — the coordinator SIGKILLs it and recovers.
  uint32_t heartbeat_timeout_ms = 2000;
  uint32_t connect_timeout_ms = 5000;   ///< TCP connect/accept deadline
  uint32_t shutdown_timeout_ms = 5000;  ///< drain + reap deadline

  /// Channel tuning (rto, keepalive, max payload) applied to every channel.
  /// The `fault` and `peer` members are overwritten per channel.
  FrameChannel::Options channel;

  /// Fault injection spec; seed 0 disables. Each channel direction derives
  /// its own schedule seed from this one, so one run seed reproduces the
  /// whole run's fault pattern.
  FaultSpec fault;

  /// Deterministic self-kill for the recovery tests: `worker` SIGKILLs
  /// itself at its `barrier`-th stage-span barrier (counted from process
  /// start) — either right after shipping the first delta of that span
  /// (`mid_stage`, so peers hold partial output of the span) or after
  /// receiving the whole span but before EndStage.
  struct KillSpec {
    uint32_t worker = kNoWorker;
    uint32_t barrier = 0;
    bool mid_stage = false;
  };
  KillSpec kill;

  /// Called in the coordinator once every worker is forked, with their pids
  /// — the external SIGKILL tests (and the CI smoke step) kill a real worker
  /// from here.
  std::function<void(const std::vector<int>&)> on_workers_spawned;
};

/// What one worker reported in its shutdown handshake.
struct DistWorkerReport {
  bool reported = false;  ///< false: it died or never answered
  FrameChannel::Stats stats;  ///< its end of its channel
  /// Its main thread's µs, summed over the run: running and capturing its
  /// blocks, encoding and sending their deltas, decoding and applying
  /// peers' deltas (and its own barriers), and blocked with nothing
  /// received.
  uint64_t compute_us = 0;
  uint64_t encode_us = 0;
  uint64_t apply_us = 0;
  uint64_t idle_us = 0;
};

/// Outcome of a distributed run. `ok == false` means the run could not
/// complete (all workers dead, protocol corruption, spawn failure) and
/// `error` says why; the sampler may then hold mid-sweep state.
struct DistResult {
  bool ok = false;
  std::string error;

  uint32_t iterations_completed = 0;
  uint32_t recoveries = 0;     ///< worker deaths survived
  uint64_t final_epoch = 0;    ///< protocol epoch after the last recovery
  std::vector<uint32_t> initial_owner;  ///< block -> worker, first assignment
  std::vector<uint32_t> block_owner;    ///< block -> worker, final

  /// Channel stats summed over the coordinator-side channel ends, and over
  /// the worker-side ends (each worker reports its stats in its shutdown
  /// handshake; workers that died contribute nothing).
  FrameChannel::Stats coordinator_stats;
  FrameChannel::Stats worker_stats;
  /// Per worker id, what each worker reported (its stats are the ones
  /// summed into worker_stats).
  std::vector<DistWorkerReport> worker_reports;

  std::vector<double> sweep_seconds;  ///< wall time per completed sweep
};

/// Runs `config.iterations` full grid sweeps of `plan` on `sampler`
/// distributed across forked worker processes as described above. The
/// sampler must be Init()ed on `corpus`, support delta capture and sweep
/// checkpointing (WarpLdaSampler does), and have no open sweep. On success
/// the coordinator's sampler holds the final state — bit-identical to
/// `config.iterations` calls of Iterate() — regardless of worker count,
/// faults, or recoveries along the way.
///
/// Fork discipline: workers are forked before any channel (and thus any
/// thread) exists in the coordinator, inherit the initialized sampler by
/// address-space copy, and _exit() without running coordinator-side cleanup.
DistResult RunDistributedSweeps(GridSampler& sampler, const Corpus& corpus,
                                const SweepPlan& plan,
                                const DistConfig& config);

/// Token count per grid block (row-major, num_doc_blocks × num_word_blocks)
/// — the weights the executor partitions and repartitions by. Exposed for
/// tests and the bench's predicted-speedup model.
std::vector<uint64_t> BlockTokenWeights(const Corpus& corpus,
                                        const SweepPlan& plan);

}  // namespace warplda

#endif  // WARPLDA_DIST_DIST_EXECUTOR_H_
