// Microbenchmarks of the sampling primitives behind the O(1) claims, plus
// the ablation comparisons DESIGN.md calls out: hash vs dense counts and
// alias sampling vs random positioning for the doc proposal, and two grid
// hot-path primitives: per-token RNG stream derivation and the per-item
// count snapshot a block builds on the fly, plus the CRC-32 every checkpoint
// and dist frame is checked with. Results are also written to
// BENCH_micro_primitives.json in the repo's bench JSON format.
#include <benchmark/benchmark.h>

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
// numbers are tracked across commits next to BENCH_fig9.json.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCollectingReporter(bench::BenchJson* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      auto& row = json_->AddRow();
      row.Str("name", run.benchmark_name());
      row.Int("iterations", static_cast<int64_t>(run.iterations));
      row.Num("real_time_ns", run.GetAdjustedRealTime());
      auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        row.Num("items_per_second", items->second);
      }
      auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        row.Num("bytes_per_second", bytes->second);
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchJson* json_;
};

}  // namespace
}  // namespace warplda

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  warplda::bench::BenchJson json("micro_primitives", "synthetic primitives");
  warplda::JsonCollectingReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  json.Write("BENCH_micro_primitives.json");
  return 0;
}
