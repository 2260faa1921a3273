// Serving side of warpbench: an open-loop Poisson generator feeding
// serve::InferenceServer::TrySubmit, the publish bookkeeping that freshness
// is measured from, and the checks on served answers.
#ifndef WARPLDA_BENCH_WARPBENCH_SERVING_H_
#define WARPLDA_BENCH_WARPBENCH_SERVING_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/warpbench/harness.h"
#include "core/warp_lda.h"
#include "serve/model_store.h"
#include "serve/server.h"

namespace warpbench {

/// The load one ServeRun offers.
struct ServeLoad {
  std::vector<RateStep> steps;
  size_t nominal_step = 0;  ///< step whose latency is the end-to-end number
  double warmup_s = 0.0;    ///< dropped from the start of every step
};

/// One model made current in the store, with the moment its data was ready
/// (the trainer's sweep end): freshness runs from there to the first
/// answer served by this version.
struct Publication {
  uint64_t version = 0;
  Clock::time_point ready;
  Clock::time_point published;  ///< PublishDelta returned
  double export_ms = 0.0;
  double publish_ms = 0.0;
  double changed_share = 1.0;  ///< changed words / V
  bool full = true;            ///< arena_chain() == 1 after the publish
  std::shared_ptr<const warplda::serve::ModelSnapshot> retained;
};

/// Exports the sampler's model with the words changed since its previous
/// export and publishes it with PublishDelta (a full build when the store is
/// empty or the delta too large). Keeps the snapshot in `retained` when
/// `retain` is set.
Publication ExportAndPublish(warplda::WarpLdaSampler& sampler,
                             warplda::serve::ModelStore& store,
                             Clock::time_point ready, bool retain);

/// Writes the publish-side metrics: freshness (median of `freshness_ms`),
/// export and publish time, the share of publishes that were full rebuilds
/// and the share of the vocabulary each one changed.
void ReportPublications(const std::vector<Publication>& publications,
                        const std::vector<double>& freshness_ms,
                        RunResult& result);

/// An InferenceServer with two workers under an open-loop Poisson load.
/// Requests are whole corpus documents in a seeded order; each carries its
/// index as the inference seed. The generator runs
/// on its own thread from Start() to Wait(); publishing happens elsewhere,
/// concurrently.
class ServeRun {
 public:
  ServeRun(const warplda::serve::ModelStore& store,
           const warplda::Corpus& corpus, const ServeLoad& load,
           uint64_t seed);
  ~ServeRun();

  ServeRun(const ServeRun&) = delete;
  ServeRun& operator=(const ServeRun&) = delete;

  /// Starts the generator; schedule time 0 is the returned instant.
  Clock::time_point Start();
  /// Joins the generator, drains the server and collects every answer.
  void Wait();

  /// Milliseconds from each publication's ready time to the first answer
  /// its version served, less the time after the publish when no request
  /// was due yet (the load's gap, not the system's delay); versions that
  /// served nothing are skipped.
  std::vector<double> FreshnessMs(
      const std::vector<Publication>& publications) const;

  /// Latency from the due time (per step and at the nominal step),
  /// generator lateness, the queue/inference split, the highest step rate
  /// with p99 within 10 ms and no backlog growth, and the
  /// answer checks: θ has length K and sums to 1, and a 1% sample
  /// recomputed on the retained snapshot of `publications` matches bit for
  /// bit. Adds the requests to attempted/failed.
  void Report(const std::vector<Publication>& publications,
              uint32_t num_topics, RunResult& result) const;

 private:
  struct Request {
    double due_s = 0.0;
    double submit_s = 0.0;
    bool accepted = false;
    std::future<warplda::serve::InferenceResult> future;
    // Filled by Wait().
    bool answered = false;
    double answer_s = 0.0;  ///< submit + queue wait + inference
    warplda::serve::InferenceResult answer;
  };

  void Generate();

  ServeLoad load_;
  std::vector<std::vector<warplda::WordId>> docs_;
  std::vector<Request> requests_;
  warplda::serve::InferenceServer server_;
  Clock::time_point start_;
  std::thread generator_;
};

}  // namespace warpbench

#endif  // WARPLDA_BENCH_WARPBENCH_SERVING_H_
