#ifndef WARPLDA_DIST_CLUSTER_SIM_H_
#define WARPLDA_DIST_CLUSTER_SIM_H_

#include <cstdint>
#include <vector>

#include "core/sweep_plan.h"
#include "corpus/corpus.h"
#include "dist/partitioner.h"

namespace warplda {

class ParallelExecutor;

/// Parameters of the simulated cluster (Fig 6 / Fig 9b methodology).
///
/// The compute terms come from measured single-machine throughput; the
/// communication terms model a commodity 10 GbE-class fabric. All costs are
/// per iteration = one word phase + one doc phase.
struct ClusterConfig {
  uint32_t num_workers = 1;
  /// Sampling cost per token per phase (a full iteration visits every token
  /// twice). Default ≈ 20 Mtok/s/phase, a mid-range single-core figure.
  double per_token_ns = 50.0;
  /// Bytes exchanged per remote token per phase (token topic state y_dn;
  /// fig6 uses 4·(1+M) for the assignment plus M proposals).
  double bytes_per_token = 8.0;
  double bandwidth_gbytes_per_s = 10.0;
  /// Per-peer message setup cost, paid once per remote peer per phase.
  double latency_us = 1.0;
  /// Pipelining depth: how many blocks of a phase overlap communication with
  /// compute. 1 = fully serial (compute then transfer); num_workers = the
  /// paper's fully overlapped schedule that hides the cheaper of the two.
  uint32_t overlap_blocks = 1;
  /// How docs / words are assigned to workers (Fig 4's strategies).
  PartitionStrategy doc_strategy = PartitionStrategy::kGreedy;
  PartitionStrategy word_strategy = PartitionStrategy::kGreedy;
  uint64_t partition_seed = 0x5EEDULL;
};

/// Wall-clock breakdown of one phase across the cluster (critical path over
/// workers: compute, communication, and their overlap-adjusted combination).
struct PhaseTiming {
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  double wall_seconds = 0.0;
};

/// One simulated training iteration: word phase then doc phase.
struct IterationTiming {
  PhaseTiming word_phase;
  PhaseTiming doc_phase;
  double wall_seconds = 0.0;
};

/// Simulates WarpLDA on a P-worker cluster over a real corpus.
///
/// Construction partitions the corpus into a P×P token grid (worker i owns
/// doc partition i; word slices are partitioned the same way), using real
/// token counts — so the imbalance the timing model sees is the imbalance a
/// deployment would see. `SimulateIteration()` prices one iteration with the
/// analytic model; `RunSweep()` goes further and executes a *real* WarpLDA
/// sweep block-by-block through the GridSampler interface, so simulated
/// convergence curves (Fig 6) are measured on actual samples, not a model.
class ClusterSim {
 public:
  ClusterSim(const Corpus& corpus, const ClusterConfig& config);

  const ClusterConfig& config() const { return config_; }
  /// The (doc × word) grid plan the simulator partitions work by.
  const SweepPlan& plan() const { return plan_; }

  /// Token count of grid block (doc_block, word_block); the P×P grid sums to
  /// the corpus token count.
  uint64_t PartitionTokens(uint32_t doc_block, uint32_t word_block) const {
    return grid_[static_cast<size_t>(doc_block) * workers_ + word_block];
  }

  /// Imbalance index of the document partition (doc-phase load skew).
  double DocImbalance() const;
  /// Imbalance index of the word partition (word-phase load skew).
  double WordImbalance() const;

  /// Prices one iteration with the analytic wall-clock model at the
  /// configured per-token cost.
  IterationTiming SimulateIteration() const;

  /// Serial time / simulated parallel time per iteration; <= num_workers by
  /// construction (the busiest worker carries at least the mean load).
  double SimulatedSpeedup() const;

  /// Executes one real training sweep of `sampler` block-by-block over this
  /// cluster's grid plan (worker i holding word slice (i+round) mod P, as a
  /// rotation schedule would), then returns the iteration priced by the
  /// analytic model at the *configured* per-token cost — single-machine
  /// block execution pays simulation-only overhead, so its own wall time is
  /// not a fair compute cost (time Iterate(), the trivial-plan sweep, for
  /// that, as fig6 does). The samples produced are identical to Iterate()'s
  /// — grid execution is exact, see core/sweep_plan.h.
  ///
  /// When `executor` is non-null the stage's blocks run concurrently on its
  /// thread pool (the executor's wavefront order is this same rotation
  /// schedule); the samples do not change, only the wall-clock of the call.
  IterationTiming RunSweep(GridSampler& sampler,
                           ParallelExecutor* executor = nullptr) const;

 private:
  IterationTiming Model(double per_token_ns) const;

  const Corpus* corpus_;
  ClusterConfig config_;
  uint32_t workers_;
  SweepPlan plan_;
  std::vector<uint64_t> grid_;       // P×P token counts, doc-major
  std::vector<uint64_t> doc_load_;   // per doc block: Σ_j grid(i, j)
  std::vector<uint64_t> word_load_;  // per word block: Σ_i grid(i, j)
  std::vector<uint64_t> doc_weights_;
  std::vector<uint64_t> word_weights_;
};

}  // namespace warplda

#endif  // WARPLDA_DIST_CLUSTER_SIM_H_
