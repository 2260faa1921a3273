#ifndef WARPLDA_BASELINES_CGS_H_
#define WARPLDA_BASELINES_CGS_H_

#include <string>
#include <vector>

#include "baselines/sampler.h"

namespace warplda {

/// Plain collapsed Gibbs sampling (Griffiths & Steyvers 2004): the O(K)
/// per-token reference implementation of Eq. (1).
///
/// Visits tokens document-by-document with instant count updates. The
/// word-topic matrix C_w is stored dense (V×K); use only at modest scale.
/// Every fast sampler in this library is validated against CGS's converged
/// likelihood in the integration tests.
class CgsSampler : public Sampler {
 public:
  void Init(const Corpus& corpus, const LdaConfig& config) override;
  void Iterate() override;
  std::vector<TopicId> Assignments() const override { return z_; }
  void SetPriors(double alpha, double beta) override;
  std::string name() const override { return "CGS"; }

 private:
  const Corpus* corpus_ = nullptr;
  LdaConfig config_;
  Rng rng_;
  std::vector<TopicId> z_;        // document-major
  std::vector<uint32_t> cw_;      // V×K dense, row-major by word
  std::vector<int64_t> ck_;       // K
  std::vector<uint32_t> cd_row_;  // K, current document's counts
  std::vector<double> dist_;      // K, scratch for the categorical draw
};

}  // namespace warplda

#endif  // WARPLDA_BASELINES_CGS_H_
