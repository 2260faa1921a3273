// Microbenchmarks of the sampling primitives behind the O(1) claims, plus
// the ablation comparisons DESIGN.md calls out: hash vs dense counts (built
// per item, and read twice per token as an MH chain reads them) and
// alias sampling vs random positioning for the doc proposal, and two grid
// hot-path primitives: per-token RNG stream derivation and the per-item
// count snapshot a block builds on the fly, plus the CRC-32 every checkpoint
// and dist frame is checked with. Results are also written to
// BENCH_micro_primitives.json in the repo's bench JSON format.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "util/alias_table.h"
#include "util/crc32.h"
#include "util/ftree.h"
#include "util/hash_count.h"
#include "util/rng.h"

namespace warplda {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next());
}
BENCHMARK(BM_RngNext);

void BM_RngNextInt(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.NextInt(1000));
}
BENCHMARK(BM_RngNextInt);

void BM_AliasBuild(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Rng rng(2);
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.NextDouble() + 0.01;
  AliasTable table;
  for (auto _ : state) {
    table.Build(weights);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AliasBuild)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AliasSample(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Rng rng(3);
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.NextDouble() + 0.01;
  AliasTable table;
  table.Build(weights);
  for (auto _ : state) benchmark::DoNotOptimize(table.Sample(rng));
}
BENCHMARK(BM_AliasSample)->Arg(64)->Arg(16384)->Arg(1 << 20);

void BM_FTreeUpdate(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  FTree tree(n);
  Rng rng(4);
  uint32_t i = 0;
  for (auto _ : state) {
    tree.Update(i, rng.NextDouble());
    i = (i + 7919) % n;
  }
}
BENCHMARK(BM_FTreeUpdate)->Arg(1024)->Arg(1 << 17);

void BM_FTreeSample(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Rng rng(5);
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.NextDouble() + 0.01;
  FTree tree;
  tree.Build(weights);
  for (auto _ : state) benchmark::DoNotOptimize(tree.Sample(rng));
}
BENCHMARK(BM_FTreeSample)->Arg(1024)->Arg(1 << 17);

// Ablation: per-document counting with a hash table (capacity 2L) vs a
// dense K vector that must be cleared per document.
void BM_CountsHash(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  const uint32_t doc_len = 256;
  Rng rng(6);
  std::vector<uint32_t> topics(doc_len);
  for (auto& t : topics) t = rng.NextInt(k);
  HashCount counts;
  for (auto _ : state) {
    counts.Init(std::min(k, 2 * doc_len));
    for (uint32_t t : topics) counts.Inc(t);
    benchmark::DoNotOptimize(counts.Get(topics[0]));
  }
  state.SetItemsProcessed(state.iterations() * doc_len);
}
BENCHMARK(BM_CountsHash)->Arg(1024)->Arg(1 << 17);

void BM_CountsDense(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  const uint32_t doc_len = 256;
  Rng rng(6);
  std::vector<uint32_t> topics(doc_len);
  for (auto& t : topics) t = rng.NextInt(k);
  std::vector<uint32_t> counts(k);
  for (auto _ : state) {
    std::fill(counts.begin(), counts.end(), 0);
    for (uint32_t t : topics) ++counts[t];
    benchmark::DoNotOptimize(counts[topics[0]]);
  }
  state.SetItemsProcessed(state.iterations() * doc_len);
}
BENCHMARK(BM_CountsDense)->Arg(1024)->Arg(1 << 17);

// Lookup-heavy counterpart: an MH acceptance chain reads its count vector
// twice per token (the current topic and the proposal). One item of 2048
// tokens is counted once; each iteration then does those two Gets for
// every token, through the HashCount of capacity min(K, 2L) or through a
// K-entry int32_t array. At both K the dense-or-hash rule
// (HashCount::DenseIsNoLarger) picks the array for this length.
constexpr uint32_t kLookupLen = 2048;

struct LookupItem {
  std::vector<uint32_t> current;
  std::vector<uint32_t> proposed;
};

LookupItem MakeLookupItem(uint32_t k) {
  Rng rng(12);
  LookupItem item;
  item.current.resize(kLookupLen);
  item.proposed.resize(kLookupLen);
  for (auto& t : item.current) t = rng.NextInt(k);
  for (auto& t : item.proposed) t = rng.NextInt(k);
  return item;
}

void BM_CountsGetHash(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  const LookupItem item = MakeLookupItem(k);
  HashCount counts(std::min(k, 2 * kLookupLen));
  for (uint32_t t : item.current) counts.Inc(t);
  for (auto _ : state) {
    int64_t sum = 0;
    for (uint32_t i = 0; i < kLookupLen; ++i) {
      sum += counts.Get(item.current[i]) + counts.Get(item.proposed[i]);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kLookupLen);
}
BENCHMARK(BM_CountsGetHash)->Arg(1024)->Arg(10000);

void BM_CountsGetDense(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  const LookupItem item = MakeLookupItem(k);
  std::vector<int32_t, CacheLineAllocator<int32_t>> counts(k, 0);
  for (uint32_t t : item.current) ++counts[t];
  for (auto _ : state) {
    int64_t sum = 0;
    for (uint32_t i = 0; i < kLookupLen; ++i) {
      sum += counts[item.current[i]] + counts[item.proposed[i]];
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kLookupLen);
}
BENCHMARK(BM_CountsGetDense)->Arg(1024)->Arg(10000);

// Ablation: the two O(1) ways to draw from q_doc ∝ C_dk (paper §4.3):
// alias table over c_d vs random positioning into z_d.
void BM_DocProposalAlias(benchmark::State& state) {
  const uint32_t doc_len = 256;
  const uint32_t k = 1024;
  Rng rng(7);
  std::vector<uint32_t> z(doc_len);
  for (auto& t : z) t = rng.NextInt(k);
  HashCount counts(2 * doc_len);
  for (uint32_t t : z) counts.Inc(t);
  std::vector<std::pair<uint32_t, double>> entries;
  counts.ForEachNonZero([&](uint32_t topic, int32_t c) {
    entries.emplace_back(topic, static_cast<double>(c));
  });
  AliasTable table;
  table.BuildSparse(entries);
  for (auto _ : state) benchmark::DoNotOptimize(table.Sample(rng));
}
BENCHMARK(BM_DocProposalAlias);

void BM_DocProposalPositioning(benchmark::State& state) {
  const uint32_t doc_len = 256;
  const uint32_t k = 1024;
  Rng rng(8);
  std::vector<uint32_t> z(doc_len);
  for (auto& t : z) t = rng.NextInt(k);
  for (auto _ : state) benchmark::DoNotOptimize(z[rng.NextInt(doc_len)]);
}
BENCHMARK(BM_DocProposalPositioning);

// --- Grid hot-path primitives ------------------------------------------

// Per-token RNG stream derivation (5 serial SplitMix64 rounds each), as the
// sampler's propose loops and lazy accept chains construct their streams.
void BM_StreamDerivePerToken(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint64_t base = SplitMix64(0x5eed);
  std::vector<uint64_t> tokens(n);
  for (size_t i = 0; i < n; ++i) tokens[i] = i * 37 + 11;
  for (auto _ : state) {
    for (uint64_t token : tokens) {
      Rng rng(SplitMix64(base ^ (uint64_t{0x51} << 56) ^ token));
      benchmark::DoNotOptimize(rng);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StreamDerivePerToken)->Arg(256);

// Per-item count snapshot setup (fresh HashCount Init + fill), as a block
// builds c_w or c_d for each of its items. 64 items of 256 tokens each
// stands in for one block's columns.
constexpr uint32_t kSetupItems = 64;
constexpr uint32_t kSetupLen = 256;
constexpr uint32_t kSetupK = 1024;

std::vector<std::vector<uint32_t>> SetupTopics() {
  Rng rng(10);
  std::vector<std::vector<uint32_t>> topics(kSetupItems);
  for (auto& item : topics) {
    item.resize(kSetupLen);
    for (auto& t : item) t = rng.NextInt(kSetupK);
  }
  return topics;
}

void BM_StageSetupSnapshotCopy(benchmark::State& state) {
  const auto topics = SetupTopics();
  HashCount counts;
  for (auto _ : state) {
    for (const auto& item : topics) {
      counts.Init(std::min(kSetupK, 2 * kSetupLen));
      for (uint32_t t : item) counts.Inc(t);
      benchmark::DoNotOptimize(counts.Get(item[0]));
    }
  }
  state.SetItemsProcessed(state.iterations() * kSetupItems * kSetupLen);
}
BENCHMARK(BM_StageSetupSnapshotCopy);

// --- Frame checksum ----------------------------------------------------

// CRC-32 over one frame payload. 150 KiB is about one dist block-delta frame
// on the dist-w3 warpbench workload; the sender and the receiver each
// checksum every frame once.
void BM_Crc32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) benchmark::DoNotOptimize(Crc32(bytes.data(), n));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32)->Arg(153600);

// Console output plus the repo's bench JSON format (same header fields as
// the fig benches: cpu model, SIMD tier, thread count) so the primitive
// numbers are tracked across commits next to BENCH_fig9.json. One row per
// benchmark: the median of its repetitions' times and rates, with the
// fastest and slowest repetition as the spread.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const std::string name = run.benchmark_name();
      auto it = std::find_if(reps_.begin(), reps_.end(),
                             [&](const Reps& r) { return r.name == name; });
      if (it == reps_.end()) {
        it = reps_.insert(reps_.end(), Reps());
        it->name = name;
      }
      it->iterations.push_back(static_cast<double>(run.iterations));
      it->real_time_ns.push_back(run.GetAdjustedRealTime());
      auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        it->items_per_second.push_back(items->second);
      }
      auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        it->bytes_per_second.push_back(bytes->second);
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  void WriteRows(bench::BenchJson& json) const {
    for (const Reps& r : reps_) {
      auto& row = json.AddRow();
      row.Str("name", r.name);
      row.Int("repetitions", static_cast<int64_t>(r.real_time_ns.size()));
      row.Int("iterations", static_cast<int64_t>(Median(r.iterations)));
      row.Num("real_time_ns", Median(r.real_time_ns));
      row.Num("real_time_ns_min", Min(r.real_time_ns));
      row.Num("real_time_ns_max", Max(r.real_time_ns));
      if (!r.items_per_second.empty()) {
        row.Num("items_per_second", Median(r.items_per_second));
      }
      if (!r.bytes_per_second.empty()) {
        row.Num("bytes_per_second", Median(r.bytes_per_second));
      }
    }
  }

 private:
  struct Reps {
    std::string name;
    std::vector<double> iterations;
    std::vector<double> real_time_ns;
    std::vector<double> items_per_second;
    std::vector<double> bytes_per_second;
  };

  static double Median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
  static double Min(const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  }
  static double Max(const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end());
  }

  std::vector<Reps> reps_;
};

}  // namespace
}  // namespace warplda

int main(int argc, char** argv) {
  // Three repetitions unless the command line asks otherwise (a later
  // --benchmark_repetitions wins), so every row carries a spread.
  std::vector<char*> args(argv, argv + argc);
  char default_reps[] = "--benchmark_repetitions=3";
  args.insert(args.begin() + 1, default_reps);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  warplda::bench::BenchJson json("micro_primitives", "synthetic primitives");
  warplda::JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.WriteRows(json);
  json.Write("BENCH_micro_primitives.json");
  return 0;
}
