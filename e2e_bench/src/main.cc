// dcs_e2e — one command for the end-to-end benchmark of libdcs.
//
//   dcs_e2e --workload serve_mixed|cold_prepare|stream_refresh --seed N
//           --seconds S --trace 0|1 [--short] [--perturb-reference]
//           [--work-root DIR]
//
// Each run does a fixed amount of work (a job count derived from --seconds),
// checks every answer against fresh sequential reference sessions, and
// prints the metrics by name with their units. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}
// — the end-to-end metrics with --trace 0, the per-layer metrics the traced
// run measured with --trace 1. A wrong answer shows as "correct": false and
// each is described on a "# wrong answer" line; the exit code is 0 whenever
// the result line was printed.

#include <malloc.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "core/kernels.h"
#include "harness.h"
#include "workloads.h"

namespace {

using dcs::e2e::Metrics;

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void PrintMetricsJson(const Metrics& metrics) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, value_unit] : metrics.entries()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value_unit.first,
                value_unit.second.c_str());
    first = false;
  }
  std::printf("}");
}

void PrintMetricLines(const char* heading, const Metrics& metrics) {
  std::printf("# %s\n", heading);
  for (const auto& [name, value_unit] : metrics.entries()) {
    std::printf("#   %-28s %14.6g %s\n", name.c_str(), value_unit.first,
                value_unit.second.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcs::e2e;
  const Args args = ParseArgs(argc, argv);
  // glibc adapts its mmap and trim thresholds to the allocation history,
  // so resident memory depends on which thread happened to free what first.
  // Pin them where a long-running process converges (large buffers reused
  // from the heap, not unmapped), so peak_rss_mb compares commits rather
  // than allocator histories.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024);

  const unsigned threads = HardwareThreads();
  const char* source = std::getenv("DCS_E2E_SOURCE");
  std::printf(
      "# provenance {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %.17g, \"trace\": %d, \"short\": %s, "
      "\"hardware_concurrency\": %u, \"cpu_model\": \"%s\", "
      "\"kernel_isa\": \"%s\", \"build_type\": \"%s\", \"source\": \"%s\", "
      "\"valid_for_parallel_claims\": %s}\n",
      args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
      args.short_mode ? "true" : "false", threads, JsonEscape(CpuModel()).c_str(),
      dcs::KernelIsaName(dcs::ActiveKernelIsa()), DCS_E2E_BUILD_TYPE,
      JsonEscape(source != nullptr ? source : "unknown").c_str(),
      threads >= 4 ? "true" : "false");
  if (threads < 4) {
    std::printf("# fewer than 4 hardware threads: not valid for parallel or "
                "throughput claims\n");
  }
  std::fflush(stdout);

  RunResult result;
  if (args.workload == "serve_mixed") {
    result = RunServeMixed(args);
  } else if (args.workload == "cold_prepare") {
    result = RunColdPrepare(args);
  } else if (args.workload == "stream_refresh") {
    result = RunStreamRefresh(args);
  } else {
    std::fprintf(stderr, "dcs_e2e: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const double failed_frac =
      result.attempted == 0
          ? 1.0
          : static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  const bool correct = result.correct && result.failed == 0 && result.attempted > 0;
  result.end_to_end.Set("ok_frac", 1.0 - failed_frac, "fraction");
  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  std::printf("# failed_frac = %.17g (%" PRIu64 " of %" PRIu64 " attempted)\n",
              failed_frac, result.failed, result.attempted);
  PrintMetricLines("end-to-end", result.end_to_end);

  // The traced run reports the per-layer metrics its layers measured; run.py
  // adds the ones BENCHMARK.json lists that a workload never exercises.
  const Metrics& reported = args.trace ? result.per_layer : result.end_to_end;
  if (args.trace) PrintMetricLines("per-layer (traced run)", reported);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": ",
              correct ? "true" : "false", result.attempted, result.failed);
  PrintMetricsJson(reported);
  std::printf("}\n");
  std::fflush(stdout);
  return 0;
}
