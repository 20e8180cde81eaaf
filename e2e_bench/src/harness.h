// Shared plumbing of the end-to-end benchmark: command line, workload
// inputs, answer canonicalization, span recording, statistics and the
// result line.
//
// Everything here lives outside the library: spans are recorded around the
// calls the benchmark makes into libdcs, never inside it.

#ifndef DCS_E2E_HARNESS_H_
#define DCS_E2E_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/mining.h"
#include "gen/coauthor.h"
#include "gen/keywords.h"

namespace dcs::e2e {

// ---------------------------------------------------------------- options

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and few jobs: the benchmark's own tests.
  bool short_mode = false;
  /// Flip one bit of one reference answer, so the answer check must fail.
  bool perturb_reference = false;
  /// Directory under which per-run temporary directories and trace files
  /// are created (the caller's build directory).
  std::string work_root = ".";
};

/// Parses the command line; exits with a usage message on bad input.
Args ParseArgs(int argc, char** argv);

/// Unwraps a library result; a failed call ends the run (exit code 1).
template <typename T>
T MustOk(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

// ------------------------------------------------------------------ clock

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

// ----------------------------------------------------------------- inputs

/// The DBLP co-author analog (two eras over `num_authors` authors).
CoauthorData MakeDblpAnalog(uint64_t seed, VertexId num_authors);

/// The DM keyword analog; `short_mode` shrinks the title count.
KeywordData MakeDmAnalog(uint64_t seed, bool short_mode);

/// A graph pair as the edge lists the library is handed at set-up.
struct EdgePair {
  VertexId num_vertices = 0;
  std::vector<WeightedEdge> g1;
  std::vector<WeightedEdge> g2;
};
EdgePair EdgesOf(const Graph& g1, const Graph& g2);

/// BuildGraphFromEdges for both sides — the first library calls of every
/// set-up. Adds their wall time to `*ms` when non-null.
std::pair<Graph, Graph> BuildPair(const EdgePair& edges, double* ms);

// ---------------------------------------------------------------- answers

/// Canonical byte image of a response's mined content: both rankings, every
/// vertex, and the exact bits of every double. Telemetry is excluded.
std::string CanonicalAnswer(const MiningResponse& response);

/// The first place where two responses' mined content differ: ranking,
/// rank, whether the vertex sets agree, and both value bit patterns.
std::string FirstDifference(const MiningResponse& got,
                            const MiningResponse& expected);

/// Flips the lowest bit of the first ranked value — the reference
/// perturbation of --perturb-reference.
void PerturbAnswer(MiningResponse* response);

// ------------------------------------------------------------------ spans

/// One recorded interval. `parent` indexes the same SpanBuffer (-1 = root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t job = 0;
  uint32_t track = 0;
};

/// Spans of one thread, kept in memory until the run ends.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint32_t track = 0) : track_(track) {}
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint64_t job);
  const std::vector<Span>& spans() const { return spans_; }
  /// Moves `other`'s spans in, re-basing their parent indices.
  void Absorb(SpanBuffer&& other);

 private:
  uint32_t track_;
  std::vector<Span> spans_;
};

/// The layer a span belongs to: the name's first dotted component mapped to
/// the repository module ("service" -> "api.service", ...).
const char* LayerOf(const char* span_name);

/// Per-layer self time of each span tree rooted at a "job" span: for every
/// layer, the median over jobs of the summed self time (duration minus the
/// union of its children) of that layer's spans in the job's tree. Spans
/// outside a job tree (replays, setup) are not counted.
std::map<std::string, double> MedianSelfMsPerLayer(const SpanBuffer& buffer);

/// Writes the spans as Chrome trace-event JSON ("X" complete events) to
/// `path`, creating its directory; returns a note naming the file.
std::string WriteChromeTrace(const SpanBuffer& buffer, const std::string& path);

// ------------------------------------------------------------- statistics

/// Nearest-rank percentile (p in [0, 100]); 0 when empty.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// A tail latency: the value, the percentile it is, and how many samples of
/// each window lie beyond it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  size_t beyond = 0;
};

// ------------------------------------------------------------ host & phase

/// Process CPU time (user + sys, all threads) in ms.
double ProcessCpuMs();

/// Ids of the threads of this process.
std::set<int> ThreadIds();

/// Wall time of a fixed single-thread integer loop: the host's speed, never
/// the program's. Used to explain a shift in every metric, never to
/// normalise one.
double HostProbeMs();

/// The clocks of one measured phase: wall, process CPU, the host's steal
/// time (/proc/stat), the CPU time of every thread of the process, and host
/// probes taken just before and just after.
class PhaseMeter {
 public:
  /// Probes the host, then starts the clocks.
  void Start();
  /// Stops the clocks, then probes the host again.
  void Stop();

  int64_t begin_ns() const { return begin_ns_; }
  double wall_s() const { return static_cast<double>(end_ns_ - begin_ns_) / 1e9; }
  double cpu_ms() const { return cpu_end_ms_ - cpu_begin_ms_; }
  /// Steal ÷ total of the host's CPU time over the phase.
  double steal_frac() const;
  /// Median of the probes before and after the phase.
  double probe_ms() const { return Median(probes_ms_); }
  /// CPU time of each thread of the process over the phase ÷ the phase's
  /// wall time, descending.
  std::vector<double> thread_shares() const;
  /// CPU time over the phase of the threads with ids in `tids`, in ms.
  double cpu_ms_of(const std::set<int>& tids) const;

 private:
  std::vector<double> probes_ms_;
  int64_t begin_ns_ = 0;
  int64_t end_ns_ = 0;
  double cpu_begin_ms_ = 0.0;
  double cpu_end_ms_ = 0.0;
  std::vector<uint64_t> stat_begin_, stat_end_;
  std::map<int, int64_t> threads_begin_ns_, threads_end_ns_;
};

/// Peak resident set tracking over a phase: Reset() clears the kernel's
/// high-water mark (where permitted), PeakMb() reads it.
void ResetPeakRss();
double PeakRssMb();

// ----------------------------------------------------------------- output

/// Metrics by name, in insertion order, with their units.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// What one workload run reports.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  /// Human-readable notes printed before the result line.
  std::vector<std::string> notes;
};

/// Creates `<root>/tmp/run-XXXXXX` and removes it (recursively) on
/// destruction, so a run never reads another run's store or journal.
class TempDir {
 public:
  explicit TempDir(const std::string& root);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  std::string File(const std::string& name) const { return path_ + "/" + name; }
  /// A note naming the directory and its filesystem: the journal's fsync
  /// costs what the program pays only on a real disk, not on tmpfs.
  std::string Describe() const;

 private:
  std::string path_;
};

/// The job count of a fixed-work run: `nominal_jobs_per_s` × seconds, so
/// both commits of a comparison do identical work.
uint64_t JobCount(const Args& args, double nominal_jobs_per_s,
                  uint64_t short_jobs);

/// Hardware threads, as std::thread::hardware_concurrency (at least 1).
unsigned HardwareThreads();

/// Latency and completion time of every job of a measured phase.
struct JobTimes {
  int64_t begin_ns = 0;  ///< phase start
  std::vector<double> latency_ms;
  std::vector<int64_t> done_ns;
  void Add(int64_t start_ns, int64_t end_ns) {
    latency_ms.push_back(MsBetween(start_ns, end_ns));
    done_ns.push_back(end_ns);
  }
};

/// Throughput of a phase: jobs ÷ wall time from the phase start to the last
/// completion.
double JobsPerS(const JobTimes& times);

/// The mean of the middle half of `samples` (the quarter below and the
/// quarter above left out); 0 when empty.
double InterquartileMean(std::vector<double> samples);

/// Latencies of a phase in completion order.
std::vector<double> InCompletionOrder(const JobTimes& times);

/// The tail as the interquartile mean over consecutive windows of
/// `window_jobs` samples of `in_order` (time order), of each window's highest
/// percentile that leaves ten samples beyond it (p90 of 100, p98 of 500).
/// A burst of interference from the rest of a shared host then moves only
/// the windows it falls in, and those are left out, while a slowdown of the
/// whole run still moves every window. Fewer samples than one window make
/// one window of all of them (with fewer beyond its percentile when there
/// are at most ten).
Tail WindowedTail(const std::vector<double>& in_order, size_t window_jobs,
                  size_t* windows = nullptr);

/// Fills the end-to-end metrics of a measured phase shared by every
/// workload: jobs_per_s, job_p50_ms and cpu_ms_per_job over the whole phase,
/// job_tail_ms over windows of `tail_window_jobs` jobs; notes the host
/// probe, steal share and busy threads beside them.
void SetPhaseMetrics(const JobTimes& times, const PhaseMeter& meter,
                     size_t tail_window_jobs, RunResult* result);

/// host.probe_ms, host.steal_frac and threads.busy of a traced phase.
void SetHostMetrics(const PhaseMeter& meter, Metrics* per_layer);

}  // namespace dcs::e2e

#endif  // DCS_E2E_HARNESS_H_
