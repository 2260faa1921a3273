#ifndef WARPLDA_BASELINES_SAMPLER_H_
#define WARPLDA_BASELINES_SAMPLER_H_

#include <memory>
#include <string>
#include <vector>

#include "cachesim/tracer.h"
#include "corpus/corpus.h"
#include "util/rng.h"

namespace warplda {

/// Hyper-parameters shared by every LDA sampler in this library.
struct LdaConfig {
  uint32_t num_topics = 100;  ///< K
  double alpha = 0.5;         ///< symmetric document-topic prior (often 50/K)
  double beta = 0.01;         ///< symmetric topic-word prior
  uint32_t mh_steps = 2;      ///< M, proposal-chain length (MH samplers only)
  uint64_t seed = 12345;
  /// Optional asymmetric document-topic prior α_k (the paper's Eq. 1/6/7
  /// form). When non-empty it must have num_topics entries and overrides
  /// `alpha`. Currently honored by CGS and WarpLDA; the other baselines
  /// treat the prior as symmetric.
  std::vector<double> alpha_vector;

  /// α_k accessor: asymmetric entry when configured, else the symmetric α.
  double alpha_k(uint32_t k) const {
    return alpha_vector.empty() ? alpha : alpha_vector[k];
  }

  /// ᾱ = Σ_k α_k.
  double alpha_bar() const {
    if (alpha_vector.empty()) return alpha * num_topics;
    double total = 0.0;
    for (double a : alpha_vector) total += a;
    return total;
  }

  /// Convenience: the paper's default α = 50/K, β = 0.01 (§6.1).
  static LdaConfig PaperDefaults(uint32_t num_topics) {
    LdaConfig c;
    c.num_topics = num_topics;
    c.alpha = 50.0 / num_topics;
    return c;
  }
};

/// Common interface of all LDA training algorithms (Table 2's roster:
/// CGS, SparseLDA, AliasLDA, F+LDA, LightLDA, WarpLDA).
///
/// Usage: Init() binds a corpus (which must outlive the sampler) and draws
/// random initial assignments; each Iterate() performs one full sweep over
/// every token. Assignments() exposes the current state document-major so the
/// same evaluation code (JointLogLikelihood) scores every algorithm.
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Binds the corpus and initializes topic assignments uniformly at random.
  /// May be called again to restart training.
  virtual void Init(const Corpus& corpus, const LdaConfig& config) = 0;

  /// Performs one full training sweep over all tokens.
  virtual void Iterate() = 0;

  /// Current topic assignments, document-major (parallel to corpus tokens).
  virtual std::vector<TopicId> Assignments() const = 0;

  /// Updates the Dirichlet priors between iterations (hyper-parameter
  /// optimization). Derived caches are refreshed; assignments are kept.
  virtual void SetPriors(double alpha, double beta) = 0;

  /// Algorithm name as used in the paper's tables.
  virtual std::string name() const = 0;

  /// Attaches a memory tracer (may be nullptr to detach). The sampler then
  /// reports its count-matrix accesses on subsequent Iterate() calls.
  void set_tracer(MemoryTracer* tracer) { tracer_ = tracer; }

 protected:
  /// Reports an access if a tracer is attached; no-op (one predictable
  /// branch) otherwise.
  void Trace(const void* addr, uint32_t bytes, bool random, bool write) const {
    if (tracer_ != nullptr) {
      tracer_->OnAccess(reinterpret_cast<uintptr_t>(addr), bytes, random,
                        write);
    }
  }
  void TraceScopeEnd() const {
    if (tracer_ != nullptr) tracer_->OnScopeEnd();
  }

  MemoryTracer* tracer_ = nullptr;
};

/// Instantiates a sampler by its paper name: "cgs", "sparselda", "aliaslda",
/// "f+lda" (alias "flda"), "lightlda", or "warplda".
///
/// Returns nullptr for unknown names — callers MUST check before
/// dereferencing; anything user-facing should prefer CreateSamplerChecked,
/// which produces the diagnostic for them. Both functions and SamplerNames()
/// are views of one registry, so a sampler added there is automatically
/// constructible, enumerable, and covered by the factory tests.
std::unique_ptr<Sampler> CreateSampler(const std::string& name);

/// Like CreateSampler, but on an unknown name fills `*error` (when non-null)
/// with a message naming the rejected input and every accepted name.
std::unique_ptr<Sampler> CreateSamplerChecked(const std::string& name,
                                              std::string* error);

/// Canonical names accepted by CreateSampler, in Table 2 order. The single
/// registry: dist/, benches, and examples enumerate algorithms through this.
std::vector<std::string> SamplerNames();

}  // namespace warplda

#endif  // WARPLDA_BASELINES_SAMPLER_H_
