#ifndef WARPLDA_BASELINES_SPARSE_LDA_H_
#define WARPLDA_BASELINES_SPARSE_LDA_H_

#include <string>
#include <vector>

#include "baselines/sampler.h"
#include "util/hash_count.h"

namespace warplda {

/// SparseLDA (Yao, Mimno & McCallum, KDD 2009): exact CGS with the
/// three-term factorization of Eq. (1),
///
///   p(z=k) ∝ αβ/(C_k+β̄)  +  β·C_dk/(C_k+β̄)  +  C_wk·(C_dk+α)/(C_k+β̄)
///            `smoothing s`   `document r`        `word q`
///
/// The s bucket is cached globally and the r bucket per document, both
/// maintained incrementally, so a token costs O(K_d + K_w) instead of O(K).
/// Tokens are visited document-by-document with instant count updates.
class SparseLdaSampler : public Sampler {
 public:
  void Init(const Corpus& corpus, const LdaConfig& config) override;
  void Iterate() override;
  std::vector<TopicId> Assignments() const override { return z_; }
  void SetPriors(double alpha, double beta) override;
  std::string name() const override { return "SparseLDA"; }

 private:
  /// Moves the token's mass in/out of all counts and the s/r caches.
  /// delta is +1 or -1.
  void ApplyToken(TopicId k, WordId w, int32_t delta);

  /// Recomputes the smoothing bucket from scratch (called per iteration to
  /// kill floating-point drift from incremental updates).
  void RebuildSmoothing();

  const Corpus* corpus_ = nullptr;
  LdaConfig config_;
  Rng rng_;
  double beta_bar_ = 0.0;

  std::vector<TopicId> z_;       // document-major
  std::vector<HashCount> cw_;    // per-word sparse counts (persistent)
  std::vector<int64_t> ck_;      // K
  HashCount cd_;                 // current document's counts
  double s_bucket_ = 0.0;        // Σ_k αβ/(C_k+β̄)
  double r_bucket_ = 0.0;        // Σ_k β·C_dk/(C_k+β̄), current document
};

}  // namespace warplda

#endif  // WARPLDA_BASELINES_SPARSE_LDA_H_
