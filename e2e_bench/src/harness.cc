#include "harness.h"

#include <dirent.h>
#include <malloc.h>
#include <stdlib.h>
#include <sys/vfs.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <thread>

#include "util/rng.h"

namespace dcs::e2e {

namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "dcs_e2e: %s\n"
               "usage: dcs_e2e --workload serve_mixed|cold_prepare|"
               "stream_refresh --seed N --seconds S --trace 0|1\n"
               "               [--short] [--perturb-reference] "
               "[--work-root DIR]\n",
               message);
  std::exit(2);
}

}  // namespace

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
      have_workload = true;
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
      if (!(args.seconds > 0.0) || !std::isfinite(args.seconds)) {
        Usage("--seconds must be positive");
      }
    } else if (flag == "--trace" && has_value) {
      const std::string_view value = argv[++i];
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--short") {
      args.short_mode = true;
    } else if (flag == "--perturb-reference") {
      args.perturb_reference = true;
    } else if (flag == "--work-root" && has_value) {
      args.work_root = argv[++i];
    } else {
      Usage("unknown or incomplete flag");
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

// ------------------------------------------------------------------ inputs

CoauthorData MakeDblpAnalog(uint64_t seed, VertexId num_authors) {
  Rng rng(seed);
  CoauthorConfig config;
  config.num_authors = num_authors;
  config.emerging_sizes = {4, 7};
  config.disappearing_sizes = {6, 2, 8};
  Result<CoauthorData> data = GenerateCoauthorData(config, &rng);
  if (!data.ok()) {
    std::fprintf(stderr, "co-author generator failed: %s\n",
                 data.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(data).value();
}

KeywordData MakeDmAnalog(uint64_t seed, bool short_mode) {
  Rng rng(seed);
  KeywordConfig config;
  config.noise_vocabulary = short_mode ? 300 : 1200;
  config.titles_per_era = short_mode ? 3000 : 15'000;
  Result<KeywordData> data = GenerateKeywordData(config, &rng);
  if (!data.ok()) {
    std::fprintf(stderr, "keyword generator failed: %s\n",
                 data.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(data).value();
}

EdgePair EdgesOf(const Graph& g1, const Graph& g2) {
  EdgePair out;
  out.num_vertices = g1.NumVertices();
  for (const auto& [g, edges] : {std::pair{&g1, &out.g1}, std::pair{&g2, &out.g2}}) {
    edges->reserve(g->NumEdges());
    for (VertexId u = 0; u < g->NumVertices(); ++u) {
      for (const Neighbor& n : g->NeighborsOf(u)) {
        if (u < n.to) edges->push_back(WeightedEdge{u, n.to, n.weight});
      }
    }
  }
  return out;
}

std::pair<Graph, Graph> BuildPair(const EdgePair& edges, double* ms) {
  const int64_t t0 = NowNs();
  Graph g1 = MustOk(BuildGraphFromEdges(edges.num_vertices, edges.g1),
                    "BuildGraphFromEdges");
  Graph g2 = MustOk(BuildGraphFromEdges(edges.num_vertices, edges.g2),
                    "BuildGraphFromEdges");
  if (ms != nullptr) *ms += MsBetween(t0, NowNs());
  return {std::move(g1), std::move(g2)};
}

// ----------------------------------------------------------------- answers

namespace {

void AppendBits(double value, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                std::bit_cast<uint64_t>(value));
  *out += buf;
}

void AppendRanking(const char* tag, const std::vector<RankedSubgraph>& list,
                   std::string* out) {
  *out += tag;
  for (const RankedSubgraph& s : list) {
    *out += '[';
    for (const VertexId v : s.vertices) {
      *out += std::to_string(v);
      *out += ',';
    }
    *out += "|v=";
    AppendBits(s.value, out);
    *out += "|r=";
    AppendBits(s.ratio_bound, out);
    *out += s.positive_clique ? "|c" : "|n";
    *out += "|w=";
    for (const double w : s.weights) {
      AppendBits(w, out);
      *out += ',';
    }
    *out += ']';
  }
}

}  // namespace

std::string CanonicalAnswer(const MiningResponse& response) {
  std::string out;
  AppendRanking("AD", response.average_degree, &out);
  AppendRanking(";GA", response.graph_affinity, &out);
  return out;
}

std::string FirstDifference(const MiningResponse& got,
                            const MiningResponse& expected) {
  auto bits = [](double value) {
    std::string out;
    AppendBits(value, &out);
    return out;
  };
  const char* tags[] = {"AD", "GA"};
  const std::vector<RankedSubgraph>* lists[][2] = {
      {&got.average_degree, &expected.average_degree},
      {&got.graph_affinity, &expected.graph_affinity}};
  for (size_t m = 0; m < 2; ++m) {
    const std::vector<RankedSubgraph>& a = *lists[m][0];
    const std::vector<RankedSubgraph>& b = *lists[m][1];
    const std::string where = std::string(tags[m]) + " rank ";
    for (size_t r = 0; r < std::max(a.size(), b.size()); ++r) {
      if (r >= a.size() || r >= b.size()) {
        return where + std::to_string(r) +
               (r >= a.size() ? ": missing" : ": unexpected") + " entry";
      }
      if (a[r].vertices != b[r].vertices || a[r].weights != b[r].weights ||
          bits(a[r].value) != bits(b[r].value)) {
        return where + std::to_string(r) + ": vertices " +
               (a[r].vertices == b[r].vertices ? "same" : "differ") +
               ", value bits " + bits(a[r].value) + " expected " +
               bits(b[r].value) + ", weights " +
               (a[r].weights == b[r].weights ? "same" : "differ");
      }
    }
  }
  return "rankings differ in a ratio bound or clique flag";
}

void PerturbAnswer(MiningResponse* response) {
  std::vector<RankedSubgraph>& list = response->graph_affinity.empty()
                                          ? response->average_degree
                                          : response->graph_affinity;
  if (list.empty()) {
    list.push_back(RankedSubgraph{});
    return;
  }
  list.front().value = std::bit_cast<double>(
      std::bit_cast<uint64_t>(list.front().value) ^ uint64_t{1});
}

// ------------------------------------------------------------------- spans

int32_t SpanBuffer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                        int32_t parent, uint64_t job) {
  spans_.push_back(Span{name, start_ns, std::max(start_ns, end_ns), parent,
                        job, track_});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanBuffer::Absorb(SpanBuffer&& other) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
  other.spans_.clear();
}

const char* LayerOf(const char* span_name) {
  static const std::pair<std::string_view, const char*> kLayers[] = {
      {"job", "bench"},           {"service", "api.service"},
      {"session", "api.session"}, {"graph", "graph"},
      {"core", "core"},           {"newsea", "core.newsea"},
      {"dcsad", "core.dcs_greedy"}, {"journal", "store.journal"},
      {"store", "store.artifact"},
  };
  const std::string_view name = span_name;
  const std::string_view head = name.substr(0, name.find('.'));
  for (const auto& [prefix, layer] : kLayers) {
    if (head == prefix) return layer;
  }
  return "other";
}

std::map<std::string, double> MedianSelfMsPerLayer(const SpanBuffer& buffer) {
  const std::vector<Span>& spans = buffer.spans();
  std::vector<std::vector<int32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(i);
  }
  // Self time of span i: its duration minus the union of its children's
  // intervals clipped to it.
  auto self_ns = [&](size_t i) {
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (const int32_t c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, spans[i].start_ns);
      const int64_t hi = std::min(spans[c].end_ns, spans[i].end_ns);
      if (hi > lo) covered.push_back({lo, hi});
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : covered) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) union_ns += hi - from;
      reach = std::max(reach, hi);
    }
    return spans[i].end_ns - spans[i].start_ns - union_ns;
  };
  std::map<std::string, std::vector<double>> per_layer;  // one entry per job
  size_t jobs = 0;
  for (size_t root = 0; root < spans.size(); ++root) {
    if (spans[root].parent >= 0 || std::string_view(spans[root].name) != "job") {
      continue;
    }
    std::map<std::string, double> sums;
    std::vector<size_t> stack = {root};
    while (!stack.empty()) {
      const size_t i = stack.back();
      stack.pop_back();
      sums[LayerOf(spans[i].name)] += static_cast<double>(self_ns(i)) / 1e6;
      for (const int32_t c : children[i]) stack.push_back(c);
    }
    for (auto& [layer, samples] : per_layer) samples.push_back(sums[layer]);
    for (const auto& [layer, ms] : sums) {
      if (!per_layer.count(layer)) {
        // First job touching this layer: earlier jobs spent nothing in it.
        per_layer[layer].assign(jobs, 0.0);
        per_layer[layer].push_back(ms);
      }
    }
    ++jobs;
  }
  std::map<std::string, double> out;
  for (auto& [layer, samples] : per_layer) out[layer] = Median(samples);
  return out;
}

std::string WriteChromeTrace(const SpanBuffer& buffer, const std::string& path) {
  std::error_code ignored;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ignored);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return "could not write trace " + path;
  const std::vector<Span>& spans = buffer.spans();
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"span\": %zu, \"parent\": %d, \"job\": %" PRIu64
                 "}}",
                 i == 0 ? "" : ",", s.name, LayerOf(s.name),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.track, i,
                 s.parent, s.job);
  }
  std::fprintf(out, "\n]}\n");
  const bool ok = std::fclose(out) == 0;
  return (ok ? "trace written to " : "could not write trace ") + path + " (" +
         std::to_string(spans.size()) + " spans)";
}

// -------------------------------------------------------------- statistics

namespace {

// 1-based nearest rank ceil(p/100 · n), computed in tenths of a percent so
// that e.g. p99.9 of 10 000 samples is rank 9 990, not 9 991.
size_t NearestRank(size_t n, double p) {
  const uint64_t tenths = static_cast<uint64_t>(std::llround(p * 10.0));
  const uint64_t rank = (tenths * n + 999) / 1000;
  return static_cast<size_t>(std::clamp<uint64_t>(rank, 1, std::max<size_t>(n, 1)));
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), p) - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

// ------------------------------------------------------------ host & phase

namespace {

// The cumulative CPU counters of /proc/stat's "cpu" line: user, nice,
// system, idle, iowait, irq, softirq, steal.
std::vector<uint64_t> ReadProcStat() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  std::vector<uint64_t> fields(8, 0);
  for (uint64_t& field : fields) stat >> field;
  return fields;
}

// CPU time of every thread of this process, by thread id. Linux encodes a
// thread's CPU clock as ~tid << 3 | CPUCLOCK_PERTHREAD | CPUCLOCK_SCHED (the
// id pthread_getcpuclockid returns), which reads any thread of the calling
// process with nanosecond resolution.
std::map<int, int64_t> ThreadCpuNs() {
  std::map<int, int64_t> out;
  for (const int tid : ThreadIds()) {
    const clockid_t clock = static_cast<clockid_t>((~tid) * 8 + 4 + 2);
    timespec ts{};
    if (clock_gettime(clock, &ts) == 0) {
      out[tid] = int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
    }
  }
  return out;
}

constexpr size_t kProbes = 3;

}  // namespace

std::set<int> ThreadIds() {
  std::set<int> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) out.insert(tid);
  }
  closedir(dir);
  return out;
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double HostProbeMs() {
  // A dependent chain of multiply-adds: about 15 ms of one core, with no
  // memory traffic, so it reads the host's speed only.
  const int64_t t0 = NowNs();
  volatile uint64_t sink = 0;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint32_t i = 0; i < 10'000'000; ++i) x = x * 6364136223846793005ull + i;
  sink = x;
  (void)sink;
  return MsBetween(t0, NowNs());
}

void PhaseMeter::Start() {
  for (size_t i = 0; i < kProbes; ++i) probes_ms_.push_back(HostProbeMs());
  stat_begin_ = ReadProcStat();
  threads_begin_ns_ = ThreadCpuNs();
  cpu_begin_ms_ = ProcessCpuMs();
  begin_ns_ = NowNs();
}

void PhaseMeter::Stop() {
  end_ns_ = NowNs();
  cpu_end_ms_ = ProcessCpuMs();
  threads_end_ns_ = ThreadCpuNs();
  stat_end_ = ReadProcStat();
  for (size_t i = 0; i < kProbes; ++i) probes_ms_.push_back(HostProbeMs());
}

double PhaseMeter::steal_frac() const {
  uint64_t total = 0;
  for (size_t i = 0; i < stat_end_.size(); ++i) total += stat_end_[i] - stat_begin_[i];
  return total == 0 ? 0.0
                    : static_cast<double>(stat_end_[7] - stat_begin_[7]) /
                          static_cast<double>(total);
}

std::vector<double> PhaseMeter::thread_shares() const {
  std::vector<double> shares;
  for (const auto& [tid, ns] : threads_end_ns_) {
    const auto it = threads_begin_ns_.find(tid);
    const int64_t used = ns - (it == threads_begin_ns_.end() ? 0 : it->second);
    shares.push_back(static_cast<double>(used) /
                     static_cast<double>(std::max<int64_t>(end_ns_ - begin_ns_, 1)));
  }
  std::sort(shares.rbegin(), shares.rend());
  return shares;
}

double PhaseMeter::cpu_ms_of(const std::set<int>& tids) const {
  int64_t used = 0;
  for (const int tid : tids) {
    const auto end = threads_end_ns_.find(tid);
    if (end == threads_end_ns_.end()) continue;
    const auto begin = threads_begin_ns_.find(tid);
    used += end->second - (begin == threads_begin_ns_.end() ? 0 : begin->second);
  }
  return static_cast<double>(used) / 1e6;
}

void ResetPeakRss() {
  // Hand freed heap back first, so the baseline does not depend on how much
  // the untimed preparation left cached in the allocator's arenas.
  malloc_trim(0);
  // "5" resets the VmHWM high-water mark (Linux >= 4.0). Where the write is
  // not permitted the peak stays process-lifetime.
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ------------------------------------------------------------------ output

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

double Metrics::Get(const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.first == name) return entry.second.first;
  }
  return 0.0;
}

TempDir::TempDir(const std::string& root) {
  const std::filesystem::path base = std::filesystem::path(root) / "tmp";
  std::filesystem::create_directories(base);
  std::string pattern = (base / "run-XXXXXX").string();
  if (mkdtemp(pattern.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a temporary directory under %s\n",
                 base.c_str());
    std::exit(1);
  }
  path_ = pattern;
}

std::string TempDir::Describe() const {
  constexpr long kTmpfsMagic = 0x01021994;
  struct statfs fs {};
  const bool known = statfs(path_.c_str(), &fs) == 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "0x%lx", known ? static_cast<long>(fs.f_type) : 0L);
  return "work directory {\"tmpfs\": " +
         std::string(known && fs.f_type == kTmpfsMagic ? "true" : "false") +
         ", \"f_type\": \"" + buf + "\"}";
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

uint64_t JobCount(const Args& args, double nominal_jobs_per_s,
                  uint64_t short_jobs) {
  if (args.short_mode) return short_jobs;
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(args.seconds * nominal_jobs_per_s)));
}

unsigned HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double JobsPerS(const JobTimes& times) {
  if (times.done_ns.empty()) return 0.0;
  const int64_t last = *std::max_element(times.done_ns.begin(), times.done_ns.end());
  const double seconds =
      std::max<double>(static_cast<double>(last - times.begin_ns), 1.0) / 1e9;
  return static_cast<double>(times.done_ns.size()) / seconds;
}

double InterquartileMean(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t quarter = samples.size() / 4;
  double sum = 0.0;
  for (size_t i = quarter; i < samples.size() - quarter; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * quarter);
}

std::vector<double> InCompletionOrder(const JobTimes& times) {
  std::vector<size_t> order(times.latency_ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return times.done_ns[a] < times.done_ns[b];
  });
  std::vector<double> out;
  out.reserve(order.size());
  for (const size_t i : order) out.push_back(times.latency_ms[i]);
  return out;
}

Tail WindowedTail(const std::vector<double>& in_order, size_t window_jobs,
                  size_t* windows) {
  constexpr size_t kBeyond = 10;
  const size_t n = in_order.size();
  if (windows != nullptr) *windows = 0;
  if (n == 0) return Tail{};
  const size_t width = std::clamp<size_t>(window_jobs, 1, n);
  const size_t beyond = std::min(kBeyond, width - 1);
  std::vector<double> tails;
  for (size_t first = 0; first + width <= n; first += width) {
    std::vector<double> window(in_order.begin() + first,
                               in_order.begin() + first + width);
    // The sample with exactly `beyond` samples above it.
    const auto nth = window.end() - (beyond + 1);
    std::nth_element(window.begin(), nth, window.end());
    tails.push_back(*nth);
  }
  if (windows != nullptr) *windows = tails.size();
  Tail tail;
  tail.percentile = 100.0 * static_cast<double>(width - beyond) /
                    static_cast<double>(width);
  tail.beyond = beyond;
  tail.value = InterquartileMean(std::move(tails));
  return tail;
}

namespace {

// Threads whose CPU time over the phase was at least 10 % of its wall time.
size_t BusyThreads(const PhaseMeter& meter) {
  const std::vector<double> shares = meter.thread_shares();
  return static_cast<size_t>(std::count_if(
      shares.begin(), shares.end(), [](double s) { return s >= 0.10; }));
}

}  // namespace

void SetPhaseMetrics(const JobTimes& times, const PhaseMeter& meter,
                     size_t tail_window_jobs, RunResult* result) {
  size_t windows = 0;
  const Tail tail =
      WindowedTail(InCompletionOrder(times), tail_window_jobs, &windows);
  const double jobs = static_cast<double>(std::max<size_t>(times.latency_ms.size(), 1));
  result->end_to_end.Set("jobs_per_s", JobsPerS(times), "jobs/s");
  result->end_to_end.Set("job_p50_ms", Median(times.latency_ms), "ms");
  result->end_to_end.Set("job_tail_ms", tail.value, "ms");
  result->end_to_end.Set("cpu_ms_per_job", meter.cpu_ms() / jobs, "ms");
  char note[512];
  std::snprintf(note, sizeof(note),
                "job_tail_ms is the interquartile mean of the p%g of %zu "
                "windows over %zu jobs (%zu samples beyond it in each)",
                tail.percentile, windows, times.latency_ms.size(), tail.beyond);
  result->notes.push_back(note);
  std::string shares;
  for (const double share : meter.thread_shares()) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%s%.2f", shares.empty() ? "" : " ", share);
    shares += buf;
  }
  std::snprintf(note, sizeof(note),
                "host {\"probe_ms\": %.4f, \"steal_frac\": %.5f, "
                "\"busy_threads\": %zu, \"thread_cpu_shares\": \"%s\"}",
                meter.probe_ms(), meter.steal_frac(), BusyThreads(meter),
                shares.c_str());
  result->notes.push_back(note);
}

void SetHostMetrics(const PhaseMeter& meter, Metrics* per_layer) {
  per_layer->Set("host.probe_ms", meter.probe_ms(), "ms");
  per_layer->Set("host.steal_frac", meter.steal_frac(), "fraction");
  per_layer->Set("threads.busy", static_cast<double>(BusyThreads(meter)), "count");
}

}  // namespace dcs::e2e
