#ifndef WARPLDA_UTIL_ALIAS_TABLE_H_
#define WARPLDA_UTIL_ALIAS_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace warplda {

/// Walker alias table: O(n) construction, O(1) sampling from an arbitrary
/// discrete distribution (Walker 1977, Vose 1991 construction).
///
/// Used for the word proposal q_word ∝ C_wk + β in WarpLDA (paper §4.3) and
/// by the AliasLDA / LightLDA baselines. The table owns no outcome labels: it
/// returns bin indices in [0, size()), which callers map to topics when the
/// distribution is sparse (see BuildSparse).
class AliasTable {
 public:
  AliasTable() = default;

  /// Construction scratch. A caller that rebuilds tables in a loop keeps
  /// one per thread and passes it in; with the table's own buffers reused
  /// too, a rebuild then allocates nothing once capacities have grown.
  struct Workspace {
    std::vector<double> weights;
    std::vector<double> scaled;
    std::vector<uint32_t> small;
    std::vector<uint32_t> large;
  };

  /// Builds the table from (possibly unnormalized) non-negative weights.
  /// A zero-sum or empty weight vector yields a table that samples uniformly
  /// over all bins (degenerate but well defined).
  void Build(const double* weights, uint32_t n);
  void Build(const std::vector<double>& weights) {
    Build(weights.data(), static_cast<uint32_t>(weights.size()));
  }

  /// Builds from a sparse distribution given as (outcome, weight) pairs.
  /// Sample() then returns outcomes, not bin indices.
  void BuildSparse(const std::vector<std::pair<uint32_t, double>>& entries);
  void BuildSparse(const std::vector<std::pair<uint32_t, double>>& entries,
                   Workspace& ws);

  /// Draws one sample in O(1): pick a bin uniformly, then one of its at most
  /// two outcomes by a biased coin.
  uint32_t Sample(Rng& rng) const {
    uint32_t bin = rng.NextInt(static_cast<uint32_t>(prob_.size()));
    return rng.NextDouble() < prob_[bin] ? Outcome(bin) : alias_[bin];
  }

  /// Number of bins (== number of weights passed to Build).
  uint32_t size() const { return static_cast<uint32_t>(prob_.size()); }

  /// Sum of the weights the table was built from.
  double total_weight() const { return total_weight_; }

  /// True until the first Build call.
  bool empty() const { return prob_.empty(); }

  /// Heap footprint of the table's bins, in bytes (excludes sizeof(*this)).
  /// Used by the serving layer's snapshot-memory accounting.
  size_t HeapBytes() const {
    return prob_.capacity() * sizeof(double) +
           alias_.capacity() * sizeof(uint32_t) +
           outcomes_.capacity() * sizeof(uint32_t);
  }

 private:
  void Build(const double* weights, uint32_t n, Workspace& ws);

  uint32_t Outcome(uint32_t bin) const {
    return outcomes_.empty() ? bin : outcomes_[bin];
  }

  std::vector<double> prob_;      // acceptance probability per bin
  std::vector<uint32_t> alias_;   // alternative outcome per bin
  std::vector<uint32_t> outcomes_;  // bin -> outcome id (sparse builds only)
  double total_weight_ = 0.0;
};

}  // namespace warplda

#endif  // WARPLDA_UTIL_ALIAS_TABLE_H_
