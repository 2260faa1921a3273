// warpbench: one workload, one seed, one process.
//
//   warpbench --workload train-nyt-t4 --seed 1 --seconds 10 --trace 0
//             --out results/
//
// Prints `workload metric value unit` for every metric and writes
// <out>/<workload>-s<seed>-t<trace>.json (plus <workload>-s<seed>_trace.json,
// a Chrome trace, when --trace 1). run.py builds this binary and turns the
// result file into the benchmark's result line; see README.md.
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench/warpbench/harness.h"
#include "bench/warpbench/workloads.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  std::string workload_name;
  int64_t seed = 1;
  double seconds = 10.0;
  int64_t trace = 0;
  std::string out = ".";
  std::string commit = "unknown";
  bool quick = false;
  warplda::FlagSet flags;
  flags.String("workload", &workload_name, "workload name (see README.md)")
      .Int("seed", &seed, "seeds the corpus, sampler, requests and arrivals")
      .Double("seconds", &seconds, "measured time the sweep budget is sized to")
      .Int("trace", &trace, "1: per-layer run with spans, 0: end-to-end run")
      .String("out", &out, "directory for the result JSON and trace")
      .String("commit", &commit, "source revision recorded in the result")
      .Bool("quick", &quick, "tiny sizes, every check on (self-test)");
  if (!flags.Parse(argc, argv)) return 2;
  const warpbench::Workload* workload = warpbench::FindWorkload(workload_name);
  if (workload == nullptr || (trace != 0 && trace != 1) || seconds <= 0.0 ||
      seed < 0) {
    std::fprintf(stderr,
                 "warpbench: need --workload <name>, --trace 0|1, "
                 "--seconds > 0, --seed >= 0\n");
    return 2;
  }
  std::error_code error;
  std::filesystem::create_directories(out, error);
  const std::string stem =
      out + "/" + workload_name + "-s" + std::to_string(seed);

  warpbench::RunOptions options;
  options.seed = static_cast<uint64_t>(seed);
  options.seconds = seconds;
  options.traced = trace == 1;
  options.quick = quick;
  if (options.traced) options.trace_path = stem + "_trace.json";

  warpbench::RunResult result;
  result.Info("workload", workload_name);
  result.Info("seed", static_cast<double>(seed));
  result.Info("trace", static_cast<double>(trace));
  result.Info("seconds", seconds);
  result.Info("quick", quick ? "yes" : "no");
  result.Info("commit", commit);
  warpbench::RecordHost(result);
  warpbench::RunWorkload(*workload, options, result);
  result.Print(workload_name);

  const std::string path = stem + "-t" + std::to_string(trace) + ".json";
  if (!result.WriteJson(path)) {
    std::fprintf(stderr, "warpbench: cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf("result %s\n", path.c_str());
  return 0;
}
