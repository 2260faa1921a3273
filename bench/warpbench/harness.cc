#include "bench/warpbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "bench/bench_common.h"
#include "core/simd_kernels.h"
#include "util/rng.h"

#ifndef WARPBENCH_BUILD_TYPE
#define WARPBENCH_BUILD_TYPE "unknown"
#endif

namespace warpbench {

namespace {

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Full precision, so the file carries every digit the run measured. JSON
// has no infinities or NaN; they are written as null.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

// ------------------------------------------------------------ statistics ---

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) * (values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - lo;
  if (frac == 0.0) return values[lo];
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + frac * (values[hi] - values[lo]);
}

// ------------------------------------------------------ arrival schedule ---

std::vector<double> PoissonSchedule(const std::vector<RateStep>& steps,
                                    uint64_t seed) {
  warplda::Rng rng(seed);
  std::vector<double> due;
  double step_start = 0.0;
  for (const RateStep& step : steps) {
    const double step_end = step_start + step.seconds;
    double t = step_start;
    while (step.rate > 0.0) {
      t += -std::log1p(-rng.NextDouble()) / step.rate;
      if (t >= step_end) break;
      due.push_back(t);
    }
    step_start = step_end;
  }
  return due;
}

// ----------------------------------------------------------------- spans ---

void SpanLog::Add(uint32_t lane, const char* name, const char* category,
                  Clock::time_point begin, Clock::time_point end,
                  int64_t arg) {
  const double begin_us = SecondsBetween(epoch_, begin) * 1e6;
  const double dur_us = SecondsBetween(begin, end) * 1e6;
  lanes_[std::min(lane, kLanes - 1)].push_back(
      Span{name, category, begin_us, dur_us, arg});
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  bool first = true;
  for (uint32_t lane = 0; lane < lanes_.size(); ++lane) {
    for (const Span& s : lanes_[lane]) {
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f",
                   first ? "" : ",", s.name, s.category, lane, s.begin_us,
                   s.dur_us);
      if (s.arg >= 0) {
        std::fprintf(f, ", \"args\": {\"id\": %lld}",
                     static_cast<long long>(s.arg));
      }
      std::fprintf(f, "}");
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------- result ---

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

double RunResult::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

void RunResult::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, JsonQuote(value));
}

void RunResult::Info(const std::string& key, double value) {
  info_.emplace_back(key, JsonNumber(value));
}

void RunResult::Check(const std::string& name, bool ok,
                      const std::string& detail) {
  checks_.push_back(CheckRow{name, ok, detail});
}

bool RunResult::correct() const {
  for (const CheckRow& c : checks_) {
    if (!c.ok) return false;
  }
  return !checks_.empty();
}

void RunResult::Print(const std::string& workload) const {
  for (const Metric& m : metrics_) {
    std::printf("%s %s %.6g %s\n", workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const CheckRow& c : checks_) {
    if (!c.ok) {
      std::printf("%s CHECK FAILED %s: %s\n", workload.c_str(),
                  c.name.c_str(), c.detail.c_str());
    }
  }
  std::printf("%s attempted %llu failed %llu correct %s\n", workload.c_str(),
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              correct() ? "true" : "false");
}

bool RunResult::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"schema\": \"warpbench-result/1\"");
  for (const auto& [key, json] : info_) {
    std::fprintf(f, ",\n  %s: %s", JsonQuote(key).c_str(), json.c_str());
  }
  std::fprintf(f, ",\n  \"correct\": %s,\n  \"attempted\": %llu,\n"
               "  \"failed\": %llu,\n  \"metrics\": {",
               correct() ? "true" : "false",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s}",
                 i == 0 ? "" : ",", JsonQuote(m.name).c_str(),
                 JsonNumber(m.value).c_str(), JsonQuote(m.unit).c_str());
  }
  std::fprintf(f, "\n  },\n  \"checks\": [");
  for (size_t i = 0; i < checks_.size(); ++i) {
    const CheckRow& c = checks_[i];
    std::fprintf(f, "%s\n    {\"name\": %s, \"ok\": %s, \"detail\": %s}",
                 i == 0 ? "" : ",", JsonQuote(c.name).c_str(),
                 c.ok ? "true" : "false", JsonQuote(c.detail).c_str());
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------------ host ---

void RecordHost(RunResult& result) {
  result.Info("host.nproc",
              static_cast<double>(std::thread::hardware_concurrency()));
  result.Info("host.cpu_model", warplda::bench::CpuModelName());
  result.Info("host.simd", warplda::simd::ActiveKernelFeatures());
#if defined(__clang__)
  result.Info("host.compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  result.Info("host.compiler", std::string("gcc ") + __VERSION__);
#else
  result.Info("host.compiler", "unknown");
#endif
  result.Info("host.build_type", WARPBENCH_BUILD_TYPE);
  result.Info("host.llc_mib",
              static_cast<double>(LastLevelCacheBytes()) / (1 << 20));
}

double TriadGbs(size_t bytes_per_array, uint32_t threads, int reps) {
  const size_t n = bytes_per_array / sizeof(double);
  std::vector<double> a(n), b(n, 1.0), c(n, 2.0);
  threads = std::max(1u, threads);
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> pool;
    for (uint32_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const size_t lo = n * t / threads;
        const size_t hi = n * (t + 1) / threads;
        for (size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
      });
    }
    for (std::thread& th : pool) th.join();
    const double seconds = SecondsBetween(start, Clock::now());
    best = std::max(best, 3.0 * n * sizeof(double) / seconds / 1e9);
  }
  // Keep the stores observable so the loop cannot be dropped.
  if (a[n / 2] != 7.0) return 0.0;
  return best;
}

uint64_t LastLevelCacheBytes() {
  uint64_t best_level = 0;
  uint64_t bytes = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level");
    std::ifstream size_file(dir + "/size");
    uint64_t level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size) || size.empty()) {
      continue;
    }
    uint64_t value = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') value <<= 10;
    if (size.back() == 'M') value <<= 20;
    if (level >= best_level) {
      best_level = level;
      bytes = value;
    }
  }
  return bytes;
}

double PeakRssMb() {
  return static_cast<double>(warplda::bench::PeakRssBytes()) / (1 << 20);
}

double CpuSeconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    if (getrusage(who, &usage) != 0) continue;
    total += usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
             usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
  }
  return total;
}

uint64_t HashAssignments(const std::vector<warplda::TopicId>& z) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (warplda::TopicId t : z) {
    h ^= t;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex(uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace warpbench
