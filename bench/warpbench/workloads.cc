#include "bench/warpbench/workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "bench/warpbench/serving.h"
#include "bench/warpbench/sweeps.h"
#include "core/parallel_executor.h"
#include "core/warp_lda.h"
#include "corpus/synthetic.h"
#include "dist/dist_executor.h"
#include "dist/partitioner.h"
#include "eval/log_likelihood.h"
#include "obs/metrics.h"

namespace warpbench {

namespace {

// sweeps_per_s and target_gap are calibrated at the commit that added the
// benchmark (bench/warpbench/README.md, "Calibration").
constexpr Workload kWorkloads[] = {
    {"train-nyt-t1", Kind::kTrain, 0.01, 1000, 1, 0, 5.5, 1.83},
    {"train-nyt-t4", Kind::kTrain, 0.01, 1000, 4, 8, 11.0, 1.10},
    {"train-nyt-k10k-t4", Kind::kTrain, 0.01, 10000, 4, 8, 8.5, 4.05},
    {"serve-live", Kind::kServe, 0.005, 200, 1, 0, 4.0, 0.25},
    {"dist-w3", Kind::kDist, 0.005, 200, 3, 6, 5.5, 0.18},
};

constexpr int kSetupReps = 5;
// Sweep whose assignment hash run.sh compares across workloads (t1 vs t4)
// and between traced and untraced runs; and the short Iterate() reference
// every sweep path other than Iterate() is checked against inside the run.
constexpr uint32_t kCheckSweep = 20;
constexpr uint32_t kRefSweeps = 3;
// Warm training before serve-live starts serving.
constexpr uint32_t kServeWarmSweeps = 5;
constexpr double kNominalRate = 400.0;
// Snapshots kept alive for the bit-for-bit recheck of served answers: every
// eighth publish, at most six, so memory does not grow with trainer speed.
constexpr size_t kRetainEvery = 8;
constexpr size_t kRetainMax = 6;
// Per-array size cap of the bandwidth probe; 4x a 300 MiB LLC would need
// 3.6 GiB across the three arrays.
constexpr size_t kTriadCapBytes = size_t{128} << 20;

// ------------------------------------------------------------- helpers ---

struct Setup {
  std::unique_ptr<warplda::SyntheticCorpus> data;
  warplda::SweepPlan plan;
  std::unique_ptr<warplda::ParallelExecutor> executor;
  std::unique_ptr<warplda::WarpLdaSampler> sampler;
  double truth_ll = 0.0;  ///< per token, generating assignments
};

warplda::SyntheticConfig CorpusConfig(const Workload& w, const RunOptions& o) {
  warplda::SyntheticConfig c = warplda::NYTimesShape(o.quick ? 0.0005
                                                             : w.scale);
  c.seed = o.seed;
  return c;
}

warplda::LdaConfig SamplerConfig(const Workload& w, const RunOptions& o) {
  warplda::LdaConfig c = warplda::LdaConfig::PaperDefaults(w.topics);
  c.mh_steps = 2;
  c.seed = o.seed;
  return c;
}

uint32_t SweepBudget(const Workload& w, const RunOptions& o) {
  if (o.quick) return 6;
  return std::max<uint32_t>(
      kCheckSweep,
      static_cast<uint32_t>(std::lround(o.seconds * w.sweeps_per_s)));
}

double TargetGap(const Workload& w, const RunOptions& o) {
  return o.quick ? 7.0 : w.target_gap;
}

// Builds corpus, plan, executor and initialized sampler kSetupReps times
// (`extra` runs inside the timed region after Init) and reports the medians.
// Only the last set-up is kept.
template <typename Extra>
Setup TimedSetup(const Workload& w, const RunOptions& o, RunResult& r,
                 Extra extra) {
  const warplda::SyntheticConfig corpus_config = CorpusConfig(w, o);
  const warplda::LdaConfig config = SamplerConfig(w, o);
  std::vector<double> gen_s, init_s, total_s;
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Release the previous set-up before building the next, the sampler
    // first: it points into the corpus.
    s.sampler.reset();
    s = Setup{};
    const Clock::time_point t0 = Clock::now();
    s.data = std::make_unique<warplda::SyntheticCorpus>(
        warplda::GenerateLdaCorpus(corpus_config));
    const Clock::time_point t1 = Clock::now();
    if (w.grid > 0) {
      s.plan = warplda::MakeSweepPlan(s.data->corpus, w.grid, w.grid,
                                      warplda::PartitionStrategy::kGreedy);
    }
    // The distributed run forks its workers from this process, which must
    // hold no threads then; its in-process reference gets an executor later.
    if (w.grid > 0 && w.kind != Kind::kDist) {
      s.executor = std::make_unique<warplda::ParallelExecutor>(w.threads);
    }
    s.sampler = std::make_unique<warplda::WarpLdaSampler>();
    s.sampler->Init(s.data->corpus, config);
    const Clock::time_point t2 = Clock::now();
    extra(s);
    gen_s.push_back(SecondsBetween(t0, t1));
    init_s.push_back(SecondsBetween(t1, t2));
    total_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  r.Set("setup_s", Median(total_s), "s");
  r.Set("corpus.gen_s", Median(gen_s), "s");
  r.Set("sampler.init_s", Median(init_s), "s");
  const warplda::Corpus& corpus = s.data->corpus;
  s.truth_ll = warplda::JointLogLikelihood(corpus, s.data->true_topics,
                                           config.num_topics, config.alpha,
                                           config.beta) /
               static_cast<double>(corpus.num_tokens());
  r.Set("ll.truth_per_token", s.truth_ll, "nats/token");
  r.Set("ll.target_per_token", s.truth_ll - TargetGap(w, o), "nats/token");
  return s;
}

// MH acceptance from the sampler's registry counters, which count only
// while metrics are on (the traced sweeps).
double AcceptRate() {
  auto& registry = warplda::obs::MetricsRegistry::Global();
  const double proposals = static_cast<double>(
      registry.GetCounter("trainer_mh_proposals_total")->Value());
  const double accepts = static_cast<double>(
      registry.GetCounter("trainer_mh_accepts_total")->Value());
  return proposals > 0 ? accepts / proposals : 0.0;
}

// Sweeps of one trajectory, driven the way the workload says. Untraced runs
// use one sweep path throughout. Traced runs rotate paths sweep by sweep —
// untraced, the same path traced, and for Iterate() workloads a third,
// the 1x1 GridSampler protocol — which leaves the trajectory bit-identical
// and gives paired sweeps for the trace overhead.
class Trajectory {
 public:
  Trajectory(const Workload& w, const RunOptions& o, Setup& s, SpanLog* log)
      : iterate_(w.grid == 0), traced_(o.traced), s_(s), log_(log) {
    if (traced_ && iterate_) {
      grid1x1_ = std::make_unique<warplda::ParallelExecutor>(1);
    }
  }

  /// Runs the next sweep; returns its sampling seconds.
  double Sweep() {
    const uint32_t index = sweeps_++;
    const uint32_t period = iterate_ ? 3 : 2;
    const uint32_t kind = traced_ ? index % period : 0;
    warplda::obs::SetMetricsEnabled(kind != 0);
    double seconds = 0.0;
    if (kind == 0) {
      seconds = iterate_ ? IterateSweep(*s_.sampler, nullptr)
                         : ExecutorSweep(*s_.executor, *s_.sampler, s_.plan);
      last_untraced_ = seconds;
    } else if (kind == 1) {
      SweepTiming timing;
      seconds = iterate_ ? IterateSweep(*s_.sampler, log_)
                         : TracedGridSweep(*s_.executor, *s_.sampler, s_.plan,
                                           *log_, &timing);
      if (!iterate_) layers_.push_back(timing);
      overhead_.push_back((seconds / last_untraced_ - 1.0) * 100.0);
    } else {
      SweepTiming timing;
      seconds = TracedGridSweep(*grid1x1_, *s_.sampler,
                                warplda::SweepPlan::Trivial(), *log_, &timing);
      layers_.push_back(timing);
      grid1x1_ms_.push_back(seconds * 1e3);
    }
    warplda::obs::SetMetricsEnabled(false);
    if (iterate_ && kind != 2) iterate_ms_.push_back(seconds * 1e3);
    return seconds;
  }

  /// True when a path other than Iterate() ran within the first n sweeps.
  bool GridWithin(uint32_t n) const {
    return !iterate_ || (traced_ && n > 2);
  }

  void Report(uint64_t tokens, RunResult& r) const {
    if (!traced_) return;
    ReportSweepLayers(layers_, tokens, r);
    r.Set("trace_overhead_pct", Median(overhead_), "%");
    r.Set("mh.accept_rate", AcceptRate(), "fraction");
    if (iterate_) {
      r.Set("iterate.ms", Median(iterate_ms_), "ms");
      r.Set("grid1x1.sweep_ms", Median(grid1x1_ms_), "ms");
    }
  }

 private:
  bool iterate_;
  bool traced_;
  Setup& s_;
  SpanLog* log_;
  std::unique_ptr<warplda::ParallelExecutor> grid1x1_;
  uint32_t sweeps_ = 0;
  double last_untraced_ = 0.0;
  std::vector<SweepTiming> layers_;
  std::vector<double> overhead_, iterate_ms_, grid1x1_ms_;
};

// The sweeps after the first tenth (at least three, and never all of them),
// which fault in arenas and buffers. Throughput and sweep latency are read
// from these; time to target counts every sweep.
std::vector<double> SteadySweeps(const std::vector<double>& seconds) {
  const size_t warm = std::min(std::max<size_t>(3, seconds.size() / 10),
                               seconds.empty() ? 0 : seconds.size() - 1);
  return std::vector<double>(seconds.begin() + warm, seconds.end());
}

// Tokens per second over the total time of the steady sweeps, so that a
// slow sweep every few sweeps counts as much as it costs.
double TokensPerSecond(const std::vector<double>& seconds, uint64_t tokens) {
  const std::vector<double> steady = SteadySweeps(seconds);
  double total = 0.0;
  for (double x : steady) total += x;
  return static_cast<double>(tokens) * steady.size() / total;
}

// Per-sweep bookkeeping shared by the training loops: sampling time, the
// log-likelihood trajectory up to the target, and check-point hashes.
struct Progress {
  std::vector<double> sweep_s;
  std::vector<double> ll;  ///< after Init, then after each sweep to target
  std::vector<double> eval_ms;
  double target = 0.0;
  uint32_t check_sweep = kCheckSweep;
  uint64_t hash_ref = 0;    ///< after kRefSweeps
  uint64_t hash_check = 0;  ///< after check_sweep
  bool crossed = false;

  Progress(double target_ll, uint32_t budget)
      : target(target_ll), check_sweep(std::min(kCheckSweep, budget)) {}

  void AfterSweep(double seconds, const warplda::Corpus& corpus,
                  const warplda::WarpLdaSampler& sampler,
                  const warplda::LdaConfig& config) {
    sweep_s.push_back(seconds);
    const size_t done = sweep_s.size();
    if (done == kRefSweeps) hash_ref = HashAssignments(sampler.Assignments());
    if (done == check_sweep) {
      hash_check = HashAssignments(sampler.Assignments());
    }
    if (!crossed) {
      ll.push_back(Eval(corpus, sampler, config));
      crossed = ll.back() >= target;
    }
  }

  double Eval(const warplda::Corpus& corpus,
              const warplda::WarpLdaSampler& sampler,
              const warplda::LdaConfig& config) {
    const Clock::time_point start = Clock::now();
    const double value = LlPerToken(corpus, sampler, config);
    eval_ms.push_back(SecondsBetween(start, Clock::now()) * 1e3);
    return value;
  }

  // End-to-end training metrics of this trajectory, with its speed taken
  // from `seconds`: its own sweeps, the ones that ran beside the server
  // (serve-live), or the distributed sweeps that followed it (dist-w3).
  void Report(const std::vector<double>& seconds, uint64_t tokens,
              double final_ll, RunResult& r) const {
    r.Set("tokens_per_s", TokensPerSecond(seconds, tokens), "tokens/s");
    // The sweeps to the target are the sampler's convergence, exact for a
    // seed; their measured seconds are the time to target.
    const double crossing = CrossingSweep(ll, target);
    const double ttt = SecondsToSweep(seconds, crossing);
    r.Set("time_to_target_s", ttt, "s");
    r.Set("ll.crossing_sweep", crossing, "sweeps");
    r.Set("nll_per_token", -final_ll, "nats/token");
    r.Set("eval.ll_ms", Median(eval_ms), "ms");
    r.Attempt(seconds.size() + 1, ttt < 0 ? 1 : 0);
    r.Check("target_reached", ttt >= 0,
            "LL/token " + std::to_string(ll.back()) + " vs target " +
                std::to_string(target));
    r.Check("ll_improved", final_ll > ll.front(),
            std::to_string(ll.front()) + " -> " + std::to_string(final_ll));
  }
};

// On the training workloads the operation a user waits on is a sweep.
void ReportSweepLatency(const std::vector<double>& seconds, RunResult& r) {
  r.Set("latency_p50_ms", Median(SteadySweeps(seconds)) * 1e3, "ms");
}

void CheckCounts(const warplda::WarpLdaSampler& sampler, uint32_t topics,
                 RunResult& r) {
  std::vector<int64_t> histogram(topics, 0);
  bool in_range = true;
  for (warplda::TopicId z : sampler.Assignments()) {
    if (z >= topics) {
      in_range = false;
      break;
    }
    ++histogram[z];
  }
  r.Check("topic_counts_consistent",
          in_range && histogram == sampler.topic_counts(),
          in_range ? "c_k vs histogram of z" : "topic id out of range");
}

// The Iterate() reference the in-run bit-identity check compares against:
// `warm` + kRefSweeps sweeps from a fresh Init with the same seed.
void CheckAgainstIterate(const Setup& s, const warplda::LdaConfig& config,
                         uint32_t warm, uint64_t hash, RunResult& r) {
  warplda::WarpLdaSampler reference;
  reference.Init(s.data->corpus, config);
  for (uint32_t i = 0; i < warm + kRefSweeps; ++i) reference.Iterate();
  r.Check("grid_matches_iterate",
          HashAssignments(reference.Assignments()) == hash,
          "assignment hash after " + std::to_string(kRefSweeps) + " sweeps");
}

void RecordHashes(const Progress& p, uint64_t final_hash, RunResult& r) {
  r.Info("hash.check_sweep", static_cast<double>(p.check_sweep));
  r.Info("hash.at_check_sweep", Hex(p.hash_check));
  r.Info("hash.final", Hex(final_hash));
}

// Whether the publication with this index keeps its snapshot.
bool Retain(size_t index, const RunOptions& o) {
  const size_t every = o.quick ? 1 : kRetainEvery;
  return index % every == 0 && index / every < kRetainMax;
}

// Per-layer metrics are reported by every workload so that all runs carry
// the same set; a layer the workload does not run reads 0.
void NoDistLayer(RunResult& r) {
  r.Set("dist.bytes_per_sweep", 0.0, "B");
  r.Set("dist.frames_per_sweep", 0.0, "count");
  r.Set("dist.retransmits", 0.0, "count");
  r.Set("dist.vs_inproc", 0.0, "ratio");
}

void NoServeLayer(RunResult& r) {
  r.Set("serve.max_rate", 0.0, "req/s");
  r.Set("store.full_share", 0.0, "fraction");
  r.Set("store.changed_word_share", 0.0, "fraction");
}

// Context only, never compared: runs last so its arrays stay out of
// peak_rss_mb.
void ProbeBandwidth(const RunOptions& o, RunResult& r) {
  const uint64_t llc = LastLevelCacheBytes();
  size_t bytes = llc > 0 ? std::min<size_t>(4 * llc, kTriadCapBytes)
                         : kTriadCapBytes;
  if (o.quick) bytes = size_t{16} << 20;
  r.Info("host.triad_array_mib", static_cast<double>(bytes) / (1 << 20));
  r.Info("host.triad_arrays_ge_4x_llc",
         llc > 0 && bytes >= 4 * llc ? "yes" : "no");
  r.Info("host.triad_gbs", TriadGbs(bytes, 4, 3));
}

// -------------------------------------------------------------- train-* ---

void RunTrain(const Workload& w, const RunOptions& o, RunResult& r,
              SpanLog* log) {
  const warplda::LdaConfig config = SamplerConfig(w, o);
  Setup s = TimedSetup(w, o, r, [](Setup&) {});
  const warplda::Corpus& corpus = s.data->corpus;
  const uint64_t tokens = corpus.num_tokens();
  const uint32_t budget = SweepBudget(w, o);

  Progress p(s.truth_ll - TargetGap(w, o), budget);
  p.ll.push_back(p.Eval(corpus, *s.sampler, config));
  Trajectory trajectory(w, o, s, log);
  const double cpu_start = CpuSeconds();
  for (uint32_t i = 0; i < budget; ++i) {
    p.AfterSweep(trajectory.Sweep(), corpus, *s.sampler, config);
  }
  double eval_s = 0.0;
  for (double ms : p.eval_ms) eval_s += ms / 1e3;
  double sampling_s = 0.0;
  for (double x : p.sweep_s) sampling_s += x;
  r.Set("cpu_util",
        (CpuSeconds() - cpu_start - eval_s) / (sampling_s * w.threads),
        "fraction");
  const double final_ll = p.Eval(corpus, *s.sampler, config);
  p.Report(p.sweep_s, tokens, final_ll, r);
  ReportSweepLatency(p.sweep_s, r);
  trajectory.Report(tokens, r);
  RecordHashes(p, HashAssignments(s.sampler->Assignments()), r);
  CheckCounts(*s.sampler, w.topics, r);
  NoDistLayer(r);
  NoServeLayer(r);
  r.Set("peak_rss_mb", PeakRssMb(), "MiB");
  if (trajectory.GridWithin(kRefSweeps)) {
    CheckAgainstIterate(s, config, 0, p.hash_ref, r);
  }
}

// ----------------------------------------------------------- serve-live ---

void RunServeLive(const Workload& w, const RunOptions& o, RunResult& r,
                  SpanLog* log) {
  const warplda::LdaConfig config = SamplerConfig(w, o);
  const uint32_t warm = o.quick ? 2 : kServeWarmSweeps;
  std::unique_ptr<warplda::serve::ModelStore> store;
  // Set-up includes the warm training and the first publish; freshness
  // counts the publishes made while serving.
  Setup s = TimedSetup(w, o, r, [&](Setup& fresh) {
    for (uint32_t i = 0; i < warm; ++i) fresh.sampler->Iterate();
    store = std::make_unique<warplda::serve::ModelStore>();
    ExportAndPublish(*fresh.sampler, *store, Clock::now(), false);
  });
  const warplda::Corpus& corpus = s.data->corpus;
  const uint64_t tokens = corpus.num_tokens();
  const uint32_t budget = SweepBudget(w, o);

  ServeLoad load;
  const double scale = o.quick ? 1.0 : o.seconds;
  load.steps = {{200.0, 0.12 * scale},
                {kNominalRate, 0.60 * scale},
                {600.0, 0.12 * scale},
                {800.0, 0.12 * scale}};
  load.nominal_step = 1;
  load.warmup_s = o.quick ? 0.05 : 0.5;
  ServeRun run(*store, corpus, load, o.seed);
  std::vector<Publication> publications;

  Progress p(s.truth_ll - TargetGap(w, o), budget);
  p.ll.push_back(p.Eval(corpus, *s.sampler, config));
  Trajectory trajectory(w, o, s, log);
  std::atomic<bool> serving{true};
  size_t serving_sweeps = 0;
  double final_ll = 0.0;
  uint64_t final_hash = 0;
  std::exception_ptr trainer_error;
  const double cpu_start = CpuSeconds();
  const Clock::time_point start = run.Start();
  // Iterate -> export -> publish while the generator runs, then (only if
  // the trainer was slower than the budget assumes) finish the sweep
  // budget unpublished so the quality metrics see a fixed sweep count.
  std::thread trainer([&] {
    try {
      while (serving.load() || p.sweep_s.size() < budget) {
        const double seconds = trajectory.Sweep();
        const Clock::time_point ready = Clock::now();
        if (serving.load()) {
          publications.push_back(ExportAndPublish(
              *s.sampler, *store, ready, Retain(publications.size(), o)));
          serving_sweeps = p.sweep_s.size() + 1;
        }
        p.AfterSweep(seconds, corpus, *s.sampler, config);
        if (p.sweep_s.size() == budget) {
          final_ll = p.Eval(corpus, *s.sampler, config);
          final_hash = HashAssignments(s.sampler->Assignments());
        }
      }
    } catch (...) {
      trainer_error = std::current_exception();
    }
  });
  run.Wait();
  serving.store(false);
  const double wall = SecondsBetween(start, Clock::now());
  const double cpu = CpuSeconds() - cpu_start;
  trainer.join();
  r.Check("trainer_completed", trainer_error == nullptr, "trainer thread");
  if (trainer_error != nullptr) return;
  r.Set("cpu_util", cpu / (wall * 4), "fraction");

  // Quality at the fixed budget; speed from the sweeps that ran beside the
  // server.
  const std::vector<double> served(p.sweep_s.begin(),
                                   p.sweep_s.begin() + serving_sweeps);
  p.Report(served, tokens, final_ll, r);
  r.Set("trainer.sweep_ms", Median(served) * 1e3, "ms");
  trajectory.Report(tokens, r);
  RecordHashes(p, final_hash, r);
  CheckCounts(*s.sampler, w.topics, r);
  NoDistLayer(r);
  run.Report(publications, w.topics, r);
  ReportPublications(publications, run.FreshnessMs(publications), r);
  r.Set("peak_rss_mb", PeakRssMb(), "MiB");
  if (trajectory.GridWithin(kRefSweeps)) {
    CheckAgainstIterate(s, config, warm, p.hash_ref, r);
  }
}

// -------------------------------------------------------------- dist-w3 ---

void RunDist(const Workload& w, const RunOptions& o, RunResult& r,
             SpanLog* log) {
  const warplda::LdaConfig config = SamplerConfig(w, o);
  Setup s = TimedSetup(w, o, r, [](Setup&) {});
  const warplda::Corpus& corpus = s.data->corpus;
  const uint64_t tokens = corpus.num_tokens();
  const uint32_t budget = SweepBudget(w, o);

  // The distributed run goes first: its workers fork from this process,
  // which must hold no threads yet.
  const int chunks = o.quick ? 1 : 3;
  std::vector<double> dist_sweep_s, outside_s;
  uint64_t bytes = 0, frames = 0, retransmits = 0, recoveries = 0;
  bool dist_ok = true;
  std::string dist_error;
  const double cpu_start = CpuSeconds();
  const Clock::time_point dist_start = Clock::now();
  for (int c = 0; c < chunks && dist_ok; ++c) {
    warplda::DistConfig dist;
    dist.num_workers = w.threads;
    dist.iterations = budget / chunks + (c == chunks - 1 ? budget % chunks : 0);
    const Clock::time_point t0 = Clock::now();
    const warplda::DistResult result =
        warplda::RunDistributedSweeps(*s.sampler, corpus, s.plan, dist);
    const double wall = SecondsBetween(t0, Clock::now());
    dist_ok = result.ok;
    dist_error = result.error;
    double inside = 0.0;
    for (double x : result.sweep_seconds) {
      dist_sweep_s.push_back(x);
      inside += x;
    }
    outside_s.push_back(wall - inside);
    bytes += result.coordinator_stats.bytes_sent +
             result.worker_stats.bytes_sent;
    frames += result.coordinator_stats.frames_sent +
              result.worker_stats.frames_sent;
    retransmits += result.coordinator_stats.retransmits +
                   result.worker_stats.retransmits;
    recoveries += result.recoveries;
  }
  const double dist_wall = SecondsBetween(dist_start, Clock::now());
  r.Check("dist_completed", dist_ok, dist_error);
  if (!dist_ok) return;
  r.Set("cpu_util", (CpuSeconds() - cpu_start) / (dist_wall * (w.threads + 1)),
        "fraction");
  r.Set("setup_s", r.Get("setup_s") + Median(outside_s), "s");
  r.Set("dist.outside_sweeps_s", Median(outside_s), "s");
  r.Set("dist.sweep_ms", Median(dist_sweep_s) * 1e3, "ms");
  r.Set("dist.bytes_per_sweep", static_cast<double>(bytes) / budget, "B");
  r.Set("dist.frames_per_sweep", static_cast<double>(frames) / budget,
        "count");
  r.Set("dist.retransmits", static_cast<double>(retransmits), "count");
  // A retransmit is a retry, not a failure: the channel's 40 ms timer fires
  // when a host vCPU stall delays an ACK on loopback (about one run in 40
  // on a shared 4-vCPU VM), and the sweep result is still exact. It is
  // reported as dist.retransmits; a recovery means a worker was lost.
  r.Check("dist_no_recoveries", recoveries == 0,
          std::to_string(recoveries) + " recoveries, " +
              std::to_string(retransmits) + " retransmits");
  const uint64_t dist_hash = HashAssignments(s.sampler->Assignments());
  const double final_ll = LlPerToken(corpus, *s.sampler, config);

  // Same-plan in-process reference on four threads: the bit-identity oracle
  // and, swept for its log-likelihood, the trajectory the distributed
  // sweeps follow — so time to target uses the distributed sweep times.
  Setup ref;
  ref.plan = s.plan;
  ref.executor = std::make_unique<warplda::ParallelExecutor>(4);
  ref.sampler = std::make_unique<warplda::WarpLdaSampler>();
  ref.sampler->Init(corpus, config);
  Progress p(s.truth_ll - TargetGap(w, o), budget);
  p.ll.push_back(p.Eval(corpus, *ref.sampler, config));
  Trajectory trajectory(w, o, ref, log);
  for (uint32_t i = 0; i < budget; ++i) {
    p.AfterSweep(trajectory.Sweep(), corpus, *ref.sampler, config);
  }
  const uint64_t ref_hash = HashAssignments(ref.sampler->Assignments());
  r.Check("dist_matches_inprocess", dist_hash == ref_hash,
          "final assignment hash, " + std::to_string(budget) + " sweeps");
  p.Report(dist_sweep_s, tokens, final_ll, r);
  ReportSweepLatency(dist_sweep_s, r);
  const double inproc = TokensPerSecond(p.sweep_s, tokens);
  r.Set("dist.inproc_tokens_per_s", inproc, "tokens/s");
  r.Set("dist.vs_inproc", r.Get("tokens_per_s") / inproc, "ratio");
  trajectory.Report(tokens, r);
  RecordHashes(p, dist_hash, r);
  CheckCounts(*s.sampler, w.topics, r);
  NoServeLayer(r);
  r.Set("peak_rss_mb", PeakRssMb(), "MiB");
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void RunWorkload(const Workload& workload, const RunOptions& options,
                 RunResult& result) {
  std::unique_ptr<SpanLog> log;
  if (options.traced) log = std::make_unique<SpanLog>(Clock::now());
  result.Set("sweeps", static_cast<double>(SweepBudget(workload, options)),
             "count");
  try {
    switch (workload.kind) {
      case Kind::kTrain:
        RunTrain(workload, options, result, log.get());
        break;
      case Kind::kServe:
        RunServeLive(workload, options, result, log.get());
        break;
      case Kind::kDist:
        RunDist(workload, options, result, log.get());
        break;
    }
    result.Check("workload_completed", true, "");
  } catch (const std::exception& e) {
    result.Check("workload_completed", false, e.what());
  }
  ProbeBandwidth(options, result);
  if (log != nullptr && !options.trace_path.empty()) {
    result.Check("trace_written", log->WriteChromeTrace(options.trace_path),
                 options.trace_path);
  }
}

}  // namespace warpbench
