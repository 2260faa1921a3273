#include "util/alias_table.h"

#include <cassert>
#include <cstddef>

namespace warplda {

void AliasTable::Build(const double* weights, uint32_t n) {
  Workspace ws;
  Build(weights, n, ws);
}

void AliasTable::Build(const double* weights, uint32_t n, Workspace& ws) {
  outcomes_.clear();
  prob_.assign(n, 1.0);
  alias_.assign(n, 0);
  if (n == 0) {
    total_weight_ = 0.0;
    return;
  }

  double total = 0.0;
  for (uint32_t i = 0; i < n; ++i) total += weights[i];
  total_weight_ = total;
  if (!(total > 0.0)) {
    // Degenerate: uniform over bins. prob_=1 means the bin always wins.
    for (uint32_t i = 0; i < n; ++i) alias_[i] = i;
    return;
  }

  // Vose's algorithm: split bins into "small" (scaled weight < 1) and "large"
  // groups, then repeatedly pair one of each so every bin holds exactly two
  // outcomes whose probabilities sum to 1/n.
  std::vector<double>& scaled = ws.scaled;
  scaled.resize(n);
  const double scale = static_cast<double>(n) / total;
  for (uint32_t i = 0; i < n; ++i) scaled[i] = weights[i] * scale;

  std::vector<uint32_t>& small = ws.small;
  std::vector<uint32_t>& large = ws.large;
  small.clear();
  large.clear();
  small.reserve(n);
  large.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }

  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Remaining bins have scaled weight numerically equal to 1.
  for (uint32_t s : small) {
    prob_[s] = 1.0;
    alias_[s] = s;
  }
  for (uint32_t l : large) {
    prob_[l] = 1.0;
    alias_[l] = l;
  }
}

void AliasTable::BuildSparse(
    const std::vector<std::pair<uint32_t, double>>& entries) {
  Workspace ws;
  BuildSparse(entries, ws);
}

void AliasTable::BuildSparse(
    const std::vector<std::pair<uint32_t, double>>& entries, Workspace& ws) {
  const uint32_t n = static_cast<uint32_t>(entries.size());
  ws.weights.resize(n);
  for (uint32_t i = 0; i < n; ++i) ws.weights[i] = entries[i].second;
  Build(ws.weights.data(), n, ws);
  // alias_ currently holds bin ids; remap both alias targets and identity
  // outcomes through the outcome table.
  outcomes_.resize(n);
  for (uint32_t i = 0; i < n; ++i) outcomes_[i] = entries[i].first;
  for (auto& a : alias_) a = outcomes_[a];
}

}  // namespace warplda
