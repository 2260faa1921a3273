// Shared pieces of warpbench: order statistics, the open-loop arrival
// schedule, the in-memory span log, the per-run result record and the host
// probe. Nothing here calls into the library's layers; the workloads do.
#ifndef WARPLDA_BENCH_WARPBENCH_HARNESS_H_
#define WARPLDA_BENCH_WARPBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "corpus/corpus.h"

namespace warpbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ------------------------------------------------------------ statistics ---

/// Quantile q in [0, 1] of `values` by linear interpolation between order
/// statistics (the "inclusive" definition). +inf entries sort last, and a
/// quantile whose interpolation touches one is +inf — this is how a refused
/// request counts as missing every latency limit. NaN for an empty vector.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// ------------------------------------------------------ arrival schedule ---

/// One step of an open-loop load: `rate` requests per second for `seconds`.
struct RateStep {
  double rate = 0.0;
  double seconds = 0.0;
};

/// Due times, in seconds from the schedule start, of a Poisson arrival
/// process that runs through `steps` in order. Exponential gaps are drawn
/// from util/rng.h, so the schedule is a pure function of `seed`.
std::vector<double> PoissonSchedule(const std::vector<RateStep>& steps,
                                    uint64_t seed);

// ----------------------------------------------------------------- spans ---

/// Spans kept in memory during a traced run and written once at exit as a
/// Chrome trace (chrome://tracing, Perfetto). Each lane is one timeline row;
/// a lane may only be written by one thread at a time, so block spans from
/// ParallelExecutor workers go to the lane of their worker id (worker 0 is
/// the calling thread, which also records sweep, span and barrier spans).
class SpanLog {
 public:
  static constexpr uint32_t kLanes = 8;

  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch), lanes_(kLanes) {}

  /// Records [begin, end) on `lane` (clamped to kLanes - 1). `name` and
  /// `category` must be string literals. `arg` is shown as args.id.
  void Add(uint32_t lane, const char* name, const char* category,
           Clock::time_point begin, Clock::time_point end, int64_t arg = -1);

  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* category;
    double begin_us;
    double dur_us;
    int64_t arg;
  };
  Clock::time_point epoch_;
  std::vector<std::vector<Span>> lanes_;
};

// ---------------------------------------------------------------- result ---

/// Everything one run measured and checked, written as one JSON file. The
/// metric map is flat: end-to-end, per-layer and detail metrics side by
/// side; run.py picks the ones BENCHMARK.json lists for the result line.
class RunResult {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Value of a metric set earlier, or NaN.
  double Get(const std::string& name) const;

  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);

  /// Records a correctness check; any failed check makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);

  void Attempt(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const;

  /// Prints `workload metric value unit` for every metric and one line per
  /// failed check.
  void Print(const std::string& workload) const;

  bool WriteJson(const std::string& path) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct CheckRow {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  // key -> JSON
  std::vector<CheckRow> checks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ------------------------------------------------------------------ host ---

/// Records the host header (nproc, CPU, SIMD tier, compiler, build type,
/// LLC size) into `result`.
void RecordHost(RunResult& result);

/// STREAM triad a = b + s*c over three arrays of `bytes_per_array` bytes,
/// split across `threads` threads; best of `reps` passes, in GB/s (24 bytes
/// moved per element, as STREAM counts them).
double TriadGbs(size_t bytes_per_array, uint32_t threads, int reps);

/// Size of the largest-level CPU cache in bytes (sysfs), 0 if unknown.
uint64_t LastLevelCacheBytes();

/// Peak resident set size (VmHWM) in MiB.
double PeakRssMb();

/// CPU seconds used so far by this process and its reaped children.
double CpuSeconds();

/// FNV-1a over a topic assignment vector: the bit-identity fingerprint that
/// runs, sweep paths and processes are compared by.
uint64_t HashAssignments(const std::vector<warplda::TopicId>& z);
std::string Hex(uint64_t value);

}  // namespace warpbench

#endif  // WARPLDA_BENCH_WARPBENCH_HARNESS_H_
