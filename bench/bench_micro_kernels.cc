// Micro-benchmark of the kernel layer (core/kernels.h): cycles-per-edge for
// each kernel that has a second path to compare — difference-graph merge,
// discretize map, positive part, seed-order sort, the gradient-extremes
// scan and the greedy peel on GD and GD+ — measured twice per record, once
// through the scalar reference and once through the library's kernel under
// automatic dispatch, plus an end-to-end mine row per dataset (reference
// builders + forced-scalar solve vs. kernel builders + dispatched solve on
// the same pair). The scalar-only kernels (AxpyScatter, SupportReduce) have
// no row: they show up only in the end-to-end mine.
//
// DCSGreedy's pooled peels get two more kinds of rows, at threads = 2: a
// dcs_greedy row per dataset (sequential vs pooled RunDcsGreedy, wall time)
// and a peel_pair sweep over small DBLP analogs (the two candidate peels
// back to back vs as two pool tasks), which locates the size at which the
// pool dispatch starts to pay — kDcsGreedyPooledMinSize.
//
// Every bench cycle asserts the exactness contract before it counts: the
// dispatched output must be bit-identical to the scalar reference (memcmp on
// packed arrays, ContentFingerprint on graphs, full-precision serialization
// on solver results). A cycle that diverges aborts the bench — the committed
// BENCH_micro_kernels.json can never carry a speedup bought with drift.
//
// `--json out.json` emits the BENCH_micro_kernels.json record tracked in the
// repo; `--smoke` shrinks the dataset and repetition counts for the ctest
// `bench_smoke_kernels` wiring.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "bench_util.h"
#include "core/dcs_greedy.h"
#include "core/kernels.h"
#include "core/newsea.h"
#include "densest/peel.h"
#include "graph/difference.h"
#include "graph/graph.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace dcs;
using namespace dcs::bench;

// TSC on x86-64 (what "cycles" means in the report); monotonic nanoseconds
// elsewhere, so cycles-per-edge stays a meaningful relative measure.
inline uint64_t CyclesNow() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

struct MicroResult {
  double scalar_cycles = 0.0;  ///< total cycles across reps, forced scalar
  double kernel_cycles = 0.0;  ///< total cycles across reps, dispatched
  double kernel_ms = 0.0;      ///< wall ms of the dispatched reps
  uint64_t edges = 0;          ///< elements processed per rep
  bool bit_identical = true;   ///< every cycle's outputs matched bitwise
};

void AddRecord(JsonReporter* reporter, TablePrinter* table,
               const std::string& dataset, const std::string& kernel,
               uint32_t reps, const MicroResult& r, uint32_t threads = 1) {
  DCS_CHECK(r.bit_identical) << kernel << " on " << dataset
                             << ": dispatched output diverged from scalar";
  const double denom = static_cast<double>(r.edges) * reps;
  const double cpe = denom > 0 ? r.kernel_cycles / denom : 0.0;
  const double cpe_scalar = denom > 0 ? r.scalar_cycles / denom : 0.0;
  const double speedup = r.kernel_cycles > 0
                             ? r.scalar_cycles / r.kernel_cycles
                             : 1.0;
  BenchRecord record;
  record.dataset = dataset + " / " + kernel;
  record.threads = threads;
  record.wall_ms = r.kernel_ms;
  record.extra = {
      {"edges", static_cast<double>(r.edges)},
      {"cycles_per_edge", cpe},
      {"cycles_per_edge_scalar", cpe_scalar},
      {"speedup", speedup},
      {"bit_identical", r.bit_identical ? 1.0 : 0.0},
  };
  reporter->Add(record);
  table->AddRow({dataset, kernel, TablePrinter::Fmt(uint64_t{r.edges}),
                 TablePrinter::Fmt(cpe_scalar, 2), TablePrinter::Fmt(cpe, 2),
                 TablePrinter::Fmt(speedup, 2),
                 r.bit_identical ? "Yes" : "No"});
}

// --- difference-graph merge -------------------------------------------------

MicroResult BenchDifferenceMerge(const Graph& g1, const Graph& g2,
                                 uint32_t reps) {
  MicroResult r;
  r.edges = g1.NumEdges() + g2.NumEdges();
  Result<Graph> reference = BuildDifferenceGraph(g1, g2);
  DCS_CHECK(reference.ok());
  const uint64_t want = reference->ContentFingerprint();
  WallTimer timer;
  for (uint32_t i = 0; i < reps; ++i) {
    const uint64_t t0 = CyclesNow();
    Result<Graph> ref_run = BuildDifferenceGraph(g1, g2);
    const uint64_t t1 = CyclesNow();
    Result<Graph> kernel_run = GraphKernels::BuildDifferenceGraph(g1, g2);
    const uint64_t t2 = CyclesNow();
    DCS_CHECK(ref_run.ok() && kernel_run.ok());
    r.scalar_cycles += static_cast<double>(t1 - t0);
    r.kernel_cycles += static_cast<double>(t2 - t1);
    r.bit_identical = r.bit_identical &&
                      ref_run->ContentFingerprint() == want &&
                      kernel_run->ContentFingerprint() == want &&
                      kernel_run->NumEdges() == ref_run->NumEdges();
  }
  r.kernel_ms = 0.0;  // folded into the cycle counts; wall kept for e2e rows
  return r;
}

MicroResult BenchPositivePart(const Graph& gd, uint32_t reps) {
  MicroResult r;
  r.edges = gd.NumEdges();
  const uint64_t want = gd.PositivePart().ContentFingerprint();
  for (uint32_t i = 0; i < reps; ++i) {
    const uint64_t t0 = CyclesNow();
    const Graph reference = gd.PositivePart();
    const uint64_t t1 = CyclesNow();
    const Graph kernel = GraphKernels::PositivePart(gd);
    const uint64_t t2 = CyclesNow();
    r.scalar_cycles += static_cast<double>(t1 - t0);
    r.kernel_cycles += static_cast<double>(t2 - t1);
    r.bit_identical = r.bit_identical &&
                      reference.ContentFingerprint() == want &&
                      kernel.ContentFingerprint() == want &&
                      kernel.NumEdges() == reference.NumEdges();
  }
  r.kernel_ms = 0.0;
  return r;
}

// --- packed elementwise kernels ---------------------------------------------

std::vector<double> PackedWeights(const Graph& gd) {
  std::vector<VertexId> targets;
  std::vector<double> weights;
  StageAdjacencySoa(gd, &targets, &weights);
  return weights;
}

MicroResult BenchDiscretizeMap(const std::vector<double>& packed,
                               uint32_t reps) {
  DiscretizeSpec spec;
  MicroResult r;
  r.edges = packed.size();
  std::vector<double> scalar_out(packed.size());
  std::vector<double> kernel_out(packed.size());
  for (uint32_t i = 0; i < reps; ++i) {
    ForceKernelIsa(KernelIsa::kScalar);
    const uint64_t t0 = CyclesNow();
    DiscretizeMapPacked(packed.data(), scalar_out.data(), packed.size(), spec);
    const uint64_t t1 = CyclesNow();
    ResetForcedKernelIsa();
    const uint64_t t2 = CyclesNow();
    DiscretizeMapPacked(packed.data(), kernel_out.data(), packed.size(), spec);
    const uint64_t t3 = CyclesNow();
    r.scalar_cycles += static_cast<double>(t1 - t0);
    r.kernel_cycles += static_cast<double>(t3 - t2);
    r.bit_identical =
        r.bit_identical &&
        std::memcmp(scalar_out.data(), kernel_out.data(),
                    packed.size() * sizeof(double)) == 0;
  }
  return r;
}

MicroResult BenchSeedOrderSort(const std::vector<double>& mu, uint32_t reps) {
  MicroResult r;
  r.edges = mu.size();
  std::vector<VertexId> scalar_order;
  std::vector<VertexId> kernel_order;
  for (uint32_t i = 0; i < reps; ++i) {
    ForceKernelIsa(KernelIsa::kScalar);
    const uint64_t t0 = CyclesNow();
    SeedOrderSort(mu, &scalar_order);
    const uint64_t t1 = CyclesNow();
    ResetForcedKernelIsa();
    const uint64_t t2 = CyclesNow();
    SeedOrderSort(mu, &kernel_order);
    const uint64_t t3 = CyclesNow();
    r.scalar_cycles += static_cast<double>(t1 - t0);
    r.kernel_cycles += static_cast<double>(t3 - t2);
    r.bit_identical = r.bit_identical && scalar_order == kernel_order;
  }
  return r;
}

// --- gradient-extremes scan -------------------------------------------------

MicroResult BenchExtremesScan(VertexId n, uint32_t reps) {
  Rng rng(78);
  std::vector<VertexId> candidates(n);
  std::vector<double> x(n), dx(n);
  for (VertexId v = 0; v < n; ++v) {
    candidates[v] = v;
    const uint64_t bucket = rng.Next() % 4;
    x[v] = bucket == 0 ? 1.0 : (bucket == 1 ? 0.0 : rng.NextDouble());
    dx[v] = (rng.NextDouble() - 0.5) * 4.0;
  }
  MicroResult r;
  r.edges = n;
  for (uint32_t i = 0; i < reps; ++i) {
    GradExtremes scalar_ext, kernel_ext;
    ForceKernelIsa(KernelIsa::kScalar);
    const uint64_t t0 = CyclesNow();
    const bool scalar_ok = ScanGradientExtremes(
        candidates.data(), candidates.size(), x.data(), dx.data(),
        &scalar_ext);
    const uint64_t t1 = CyclesNow();
    ResetForcedKernelIsa();
    const uint64_t t2 = CyclesNow();
    const bool kernel_ok = ScanGradientExtremes(
        candidates.data(), candidates.size(), x.data(), dx.data(),
        &kernel_ext);
    const uint64_t t3 = CyclesNow();
    r.scalar_cycles += static_cast<double>(t1 - t0);
    r.kernel_cycles += static_cast<double>(t3 - t2);
    r.bit_identical =
        r.bit_identical && scalar_ok == kernel_ok &&
        scalar_ext.argmax == kernel_ext.argmax &&
        scalar_ext.argmin == kernel_ext.argmin &&
        std::memcmp(&scalar_ext.max_grad, &kernel_ext.max_grad,
                    sizeof(double)) == 0 &&
        std::memcmp(&scalar_ext.min_grad, &kernel_ext.min_grad,
                    sizeof(double)) == 0;
  }
  return r;
}

// --- greedy peel: heap twin vs segment-tree reference ----------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SamePeel(const PeelResult& a, const PeelResult& b) {
  return a.peel_order == b.peel_order && a.subset == b.subset &&
         SameBits(a.density, b.density);
}

// `positive` peels GD+. Its reference is GreedyPeel(gd.PositivePart()) —
// copy included, as DCSGreedy ran it before the twin read GD+ in place.
MicroResult BenchGreedyPeel(const Graph& gd, bool positive, uint32_t reps) {
  MicroResult r;
  r.edges = gd.NumEdges();
  for (uint32_t i = 0; i < reps; ++i) {
    const uint64_t t0 = CyclesNow();
    const PeelResult reference =
        positive ? GreedyPeel(gd.PositivePart()) : GreedyPeel(gd);
    const uint64_t t1 = CyclesNow();
    const PeelResult twin = GreedyPeelHeap(gd, positive);
    const uint64_t t2 = CyclesNow();
    r.scalar_cycles += static_cast<double>(t1 - t0);
    r.kernel_cycles += static_cast<double>(t2 - t1);
    r.bit_identical = r.bit_identical && SamePeel(reference, twin);
  }
  return r;
}

bool SameDcsad(const DcsadResult& a, const DcsadResult& b) {
  bool same = a.subset == b.subset && SameBits(a.density, b.density) &&
              SameBits(a.ratio_bound, b.ratio_bound) &&
              a.component_refined == b.component_refined;
  for (int c = 0; c < 3; ++c) {
    same = same && SameBits(a.candidate_densities[c], b.candidate_densities[c]);
  }
  return same;
}

// The pool rows keep per-rep cycle counts and report the median rep
// (scaled by reps, as AddRecord divides by them): on a shared host a
// descheduled worker stalls the odd rep for milliseconds, which a sum
// would charge to the pooled path.
double MedianTimesReps(std::vector<double> cycles) {
  std::nth_element(cycles.begin(), cycles.begin() + cycles.size() / 2,
                   cycles.end());
  return cycles[cycles.size() / 2] * static_cast<double>(cycles.size());
}

// Sequential ("scalar" columns) vs pooled RunDcsGreedy on a two-slot pool;
// kernel_ms is the pooled wall time of the median rep.
MicroResult BenchDcsGreedyPooled(const Graph& gd, ThreadPool* pool,
                                 uint32_t reps) {
  MicroResult r;
  r.edges = gd.NumEdges();
  std::vector<double> sequential_cycles, pooled_cycles, pooled_ms;
  for (uint32_t i = 0; i < reps; ++i) {
    const uint64_t t0 = CyclesNow();
    Result<DcsadResult> sequential = RunDcsGreedy(gd);
    const uint64_t t1 = CyclesNow();
    WallTimer timer;
    Result<DcsadResult> pooled = RunDcsGreedy(gd, pool);
    pooled_ms.push_back(timer.Millis());
    const uint64_t t2 = CyclesNow();
    DCS_CHECK(sequential.ok() && pooled.ok());
    sequential_cycles.push_back(static_cast<double>(t1 - t0));
    pooled_cycles.push_back(static_cast<double>(t2 - t1));
    r.bit_identical = r.bit_identical && SameDcsad(*sequential, *pooled);
  }
  r.scalar_cycles = MedianTimesReps(std::move(sequential_cycles));
  r.kernel_cycles = MedianTimesReps(std::move(pooled_cycles));
  r.kernel_ms = MedianTimesReps(std::move(pooled_ms)) / reps;
  return r;
}

// The crossover probe: DCSGreedy's two candidate peels back to back vs as
// two pool tasks, at any size (RunDcsGreedy itself only dispatches above
// kDcsGreedyPooledMinSize).
MicroResult BenchPeelPair(const Graph& gd, ThreadPool* pool, uint32_t reps) {
  MicroResult r;
  r.edges = gd.NumEdges();
  PeelResult pooled[2];
  const auto peel = [&](size_t which) {
    pooled[which] = GreedyPeelHeap(gd, /*positive_edges_only=*/which == 1);
  };
  std::vector<double> sequential_cycles, pooled_cycles;
  for (uint32_t i = 0; i < reps; ++i) {
    const uint64_t t0 = CyclesNow();
    const PeelResult gd_peel = GreedyPeelHeap(gd);
    const PeelResult plus_peel = GreedyPeelHeap(gd, true);
    const uint64_t t1 = CyclesNow();
    pool->RunTasks(2, peel);
    const uint64_t t2 = CyclesNow();
    sequential_cycles.push_back(static_cast<double>(t1 - t0));
    pooled_cycles.push_back(static_cast<double>(t2 - t1));
    r.bit_identical = r.bit_identical && SamePeel(gd_peel, pooled[0]) &&
                      SamePeel(plus_peel, pooled[1]);
  }
  r.scalar_cycles = MedianTimesReps(std::move(sequential_cycles));
  r.kernel_cycles = MedianTimesReps(std::move(pooled_cycles));
  return r;
}

// --- end-to-end mine: reference pipeline vs kernel pipeline -----------------

std::string SerializeSolve(const DcsgaResult& result) {
  std::string out;
  char buf[64];
  for (const VertexId v : result.support) {
    std::snprintf(buf, sizeof(buf), "%u,", v);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "|%.17g", result.affinity);
  out += buf;
  return out;
}

struct EndToEnd {
  double reference_ms = 0.0;
  double kernel_ms = 0.0;
  bool bit_identical = true;
  MicroResult as_micro;  ///< cycles view of the same runs
  DcsgaResult last;      ///< affinity column source
  uint64_t initializations = 0;
  uint64_t pruned_seeds = 0;
};

// One full mine of the pair: difference graph, Discrete mapping, GD+ and the
// smart-init NewSEA solve — the pipeline MinerSession::PreparePipeline runs
// for a Discrete-setting request. `use_kernels` switches both the builders
// (GraphKernels twins vs. graph/difference.h references) and the solver's
// dispatched ISA (automatic vs. pinned scalar).
DcsgaResult MineOnce(const Graph& g1, const Graph& g2, bool use_kernels,
                     uint64_t* inits, uint64_t* pruned) {
  const DiscretizeSpec spec;
  Result<Graph> gd = use_kernels ? GraphKernels::BuildDifferenceGraph(g1, g2)
                                 : BuildDifferenceGraph(g1, g2);
  DCS_CHECK(gd.ok());
  Result<Graph> mapped = use_kernels ? GraphKernels::DiscretizeWeights(*gd, spec)
                                     : DiscretizeWeights(*gd, spec);
  DCS_CHECK(mapped.ok());
  const Graph gd_plus = use_kernels ? GraphKernels::PositivePart(*mapped)
                                    : mapped->PositivePart();
  const SmartInitBounds bounds = ComputeSmartInitBounds(gd_plus);
  Result<DcsgaResult> solved = RunNewSea(gd_plus, bounds);
  DCS_CHECK(solved.ok());
  if (inits != nullptr) *inits = solved->initializations;
  if (pruned != nullptr) *pruned = solved->pruned_seeds;
  return std::move(*solved);
}

EndToEnd BenchEndToEnd(const Graph& g1, const Graph& g2, uint32_t reps) {
  EndToEnd e;
  e.as_micro.edges = g1.NumEdges() + g2.NumEdges();
  for (uint32_t i = 0; i < reps; ++i) {
    ForceKernelIsa(KernelIsa::kScalar);
    WallTimer ref_timer;
    const uint64_t t0 = CyclesNow();
    const DcsgaResult reference =
        MineOnce(g1, g2, /*use_kernels=*/false, nullptr, nullptr);
    const uint64_t t1 = CyclesNow();
    e.reference_ms += ref_timer.Seconds() * 1e3;
    ResetForcedKernelIsa();
    WallTimer kernel_timer;
    const uint64_t t2 = CyclesNow();
    DcsgaResult kernel = MineOnce(g1, g2, /*use_kernels=*/true,
                                  &e.initializations, &e.pruned_seeds);
    const uint64_t t3 = CyclesNow();
    e.kernel_ms += kernel_timer.Seconds() * 1e3;
    e.as_micro.scalar_cycles += static_cast<double>(t1 - t0);
    e.as_micro.kernel_cycles += static_cast<double>(t3 - t2);
    e.bit_identical = e.bit_identical &&
                      SerializeSolve(reference) == SerializeSolve(kernel);
    e.last = std::move(kernel);
  }
  e.reference_ms /= reps;
  e.kernel_ms /= reps;
  e.as_micro.kernel_ms = e.kernel_ms;
  e.as_micro.bit_identical = e.bit_identical;
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  const uint64_t seed = 20180416;
  std::printf("seed = %llu, hardware_concurrency = %u, dispatch = %s%s\n\n",
              static_cast<unsigned long long>(seed),
              std::thread::hardware_concurrency(),
              KernelIsaName(ActiveKernelIsa()), args.smoke ? " (smoke mode)" : "");

  struct PairDataset {
    std::string label;
    Graph g1;
    Graph g2;
  };
  std::vector<PairDataset> datasets;
  if (args.smoke) {
    const CoauthorData tiny = MakeDblpAnalog(seed, /*num_authors=*/600);
    datasets.push_back({"DBLP-tiny", tiny.g1, tiny.g2});
  } else {
    const CoauthorData dblp = MakeDblpAnalog(seed);
    datasets.push_back({"DBLP", dblp.g1, dblp.g2});
    const CoauthorData dblp_c = MakeDblpCAnalog(seed + 4);
    datasets.push_back({"DBLP-C", dblp_c.g1, dblp_c.g2});
  }
  const uint32_t reps = args.smoke ? 3 : 20;

  JsonReporter reporter("micro_kernels", seed);
  TablePrinter table(
      "Kernel layer: cycles/edge, scalar reference vs dispatched",
      {"Data", "Kernel", "Edges", "Scalar c/e", "Kernel c/e", "Speedup",
       "Bit-identical?"});
  ThreadPool pool(1);  // two slots: the caller and one worker
  for (const PairDataset& dataset : datasets) {
    Result<Graph> gd = BuildDifferenceGraph(dataset.g1, dataset.g2);
    DCS_CHECK(gd.ok());
    const std::vector<double> packed = PackedWeights(*gd);
    const Graph gd_plus = gd->PositivePart();

    AddRecord(&reporter, &table, dataset.label, "difference_merge", reps,
              BenchDifferenceMerge(dataset.g1, dataset.g2, reps));
    AddRecord(&reporter, &table, dataset.label, "discretize_map", reps,
              BenchDiscretizeMap(packed, reps));
    AddRecord(&reporter, &table, dataset.label, "positive_part", reps,
              BenchPositivePart(*gd, reps));
    AddRecord(&reporter, &table, dataset.label, "seed_order_sort", reps,
              BenchSeedOrderSort(ComputeSmartInitBounds(gd_plus).mu, reps));
    AddRecord(&reporter, &table, dataset.label, "extremes_scan", reps,
              BenchExtremesScan(gd_plus.NumVertices(), reps));
    AddRecord(&reporter, &table, dataset.label, "greedy_peel_gd", reps,
              BenchGreedyPeel(*gd, /*positive=*/false, reps));
    AddRecord(&reporter, &table, dataset.label, "greedy_peel_gd_plus", reps,
              BenchGreedyPeel(*gd, /*positive=*/true, reps));
    AddRecord(&reporter, &table, dataset.label, "dcs_greedy", reps,
              BenchDcsGreedyPooled(*gd, &pool, reps), /*threads=*/2);

    const EndToEnd e2e = BenchEndToEnd(dataset.g1, dataset.g2, reps);
    DCS_CHECK(e2e.bit_identical)
        << dataset.label << ": kernel mine diverged from the reference mine";
    BenchRecord record;
    record.dataset = dataset.label + " / mine_end_to_end";
    record.threads = 1;
    record.wall_ms = e2e.kernel_ms;
    record.initializations = e2e.initializations;
    record.pruned_seeds = e2e.pruned_seeds;
    record.affinity = e2e.last.affinity;
    const double denom =
        static_cast<double>(e2e.as_micro.edges) * reps;
    record.extra = {
        {"edges", static_cast<double>(e2e.as_micro.edges)},
        {"cycles_per_edge",
         denom > 0 ? e2e.as_micro.kernel_cycles / denom : 0.0},
        {"cycles_per_edge_scalar",
         denom > 0 ? e2e.as_micro.scalar_cycles / denom : 0.0},
        {"speedup", e2e.kernel_ms > 0 ? e2e.reference_ms / e2e.kernel_ms : 1.0},
        {"bit_identical", e2e.bit_identical ? 1.0 : 0.0},
        {"reference_ms", e2e.reference_ms},
        {"kernel_ms", e2e.kernel_ms},
    };
    reporter.Add(record);
    table.AddRow(
        {dataset.label, "mine_end_to_end",
         TablePrinter::Fmt(uint64_t{e2e.as_micro.edges}),
         TablePrinter::Fmt(e2e.reference_ms, 2) + " ms",
         TablePrinter::Fmt(e2e.kernel_ms, 2) + " ms",
         TablePrinter::Fmt(
             e2e.kernel_ms > 0 ? e2e.reference_ms / e2e.kernel_ms : 1.0, 2),
         e2e.bit_identical ? "Yes" : "No"});
    std::fflush(stdout);
  }
  // Crossover sweep: |V| + |E| of GD from a few hundred to a few thousand.
  const std::vector<VertexId> sweep_authors =
      args.smoke ? std::vector<VertexId>{60, 240}
                 : std::vector<VertexId>{60, 120, 240, 480, 960};
  const uint32_t sweep_reps = args.smoke ? 20 : 400;
  for (const VertexId authors : sweep_authors) {
    const CoauthorData small = MakeDblpAnalog(seed + authors, authors);
    Result<Graph> gd = BuildDifferenceGraph(small.g1, small.g2);
    DCS_CHECK(gd.ok());
    const std::string label =
        "DBLP-" + std::to_string(gd->NumVertices() + gd->NumEdges());
    AddRecord(&reporter, &table, label, "peel_pair", sweep_reps,
              BenchPeelPair(*gd, &pool, sweep_reps), /*threads=*/2);
  }
  table.Print();

  if (!args.json_path.empty()) {
    DCS_CHECK(reporter.WriteTo(args.json_path))
        << "cannot write " << args.json_path;
    std::printf("\nwrote %s\n", args.json_path.c_str());
  }
  return 0;
}
