// Direct layer replays and the per-layer metric helpers the workloads share.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "graph/difference.h"
#include "workloads.h"

namespace dcs::e2e {

namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

void PhaseSnapshot::Begin(const PipelineCache& cache) {
  cache_before = cache.stats();
  kernels_before = KernelCountersSnapshot();
  meter.Start();
}

void PhaseSnapshot::End(const PipelineCache& cache) {
  meter.Stop();
  kernels_after = KernelCountersSnapshot();
  cache_after = cache.stats();
}

std::shared_ptr<ThreadPool> MakePool(size_t workers, std::set<int>* worker_tids) {
  const std::set<int> before = ThreadIds();
  auto pool = std::make_shared<ThreadPool>(workers);
  worker_tids->clear();
  for (const int tid : ThreadIds()) {
    if (before.count(tid) == 0) worker_tids->insert(tid);
  }
  return pool;
}

ReplayPipeline ReplayPrepare(const Graph& g1, const Graph& g2,
                             const MiningRequest& request) {
  ReplayPipeline out;
  const Graph& first = request.flip ? g2 : g1;
  const Graph& second = request.flip ? g1 : g2;
  int64_t t0 = NowNs();
  out.difference = MustOk(BuildDifferenceGraph(first, second, request.alpha),
                          "BuildDifferenceGraph");
  int64_t t1 = NowNs();
  out.difference_ms = MsBetween(t0, t1);
  if (request.discretize) {
    t0 = NowNs();
    out.difference = MustOk(DiscretizeWeights(out.difference, *request.discretize),
                            "DiscretizeWeights");
    out.discretize_ms = MsBetween(t0, NowNs());
  }
  if (request.clamp_weights_above) {
    t0 = NowNs();
    out.difference = out.difference.WeightsClampedAbove(*request.clamp_weights_above);
    out.clamp_ms = MsBetween(t0, NowNs());
  }
  t0 = NowNs();
  out.positive_part = out.difference.PositivePart();
  t1 = NowNs();
  out.bounds = ComputeSmartInitBounds(out.positive_part);
  const int64_t t2 = NowNs();
  out.positive_part_ms = MsBetween(t0, t1);
  out.bounds_ms = MsBetween(t1, t2);
  return out;
}

bool GaAgrees(const DcsgaResult& result, const MiningRequest& request,
              const RankedSubgraph* top) {
  if (!(result.affinity > request.min_affinity)) return top == nullptr;
  if (top == nullptr || top->vertices != result.support ||
      !SameBits(top->value, result.affinity) ||
      top->weights.size() != result.support.size()) {
    return false;
  }
  for (size_t i = 0; i < result.support.size(); ++i) {
    if (!SameBits(top->weights[i], result.x.x[result.support[i]])) return false;
  }
  return true;
}

bool AdAgrees(const DcsadResult& result, const MiningRequest& request,
              const RankedSubgraph* top) {
  if (!(result.density > request.min_density)) return top == nullptr;
  std::vector<VertexId> subset = result.subset;
  std::sort(subset.begin(), subset.end());
  return top != nullptr && top->vertices == subset &&
         SameBits(top->value, result.density) &&
         SameBits(top->ratio_bound, result.ratio_bound);
}

std::string GaSolveReplays::Replay(const ReplayPipeline& pipeline,
                                   const MiningRequest& request, ThreadPool* pool,
                                   const RankedSubgraph* top, uint64_t job,
                                   SpanBuffer* spans) {
  DcsgaOptions options = request.ga_solver;
  options.assume_nonnegative = true;
  if (pool == nullptr) options.parallelism = 1;
  const double cpu0 = ProcessCpuMs();
  const int64_t t0 = NowNs();
  const DcsgaResult as_run = MustOk(
      RunNewSea(pipeline.positive_part, pipeline.bounds, options, pool), "RunNewSea");
  const int64_t t1 = NowNs();
  as_run_cpu_ms_ += ProcessCpuMs() - cpu0;
  as_run_wall_ms_ += MsBetween(t0, t1);
  as_run_ms_.push_back(MsBetween(t0, t1));
  spans->Add("newsea.solve", t0, t1, -1, job);
  const bool as_run_agrees = GaAgrees(as_run, request, top);
  if (pool == nullptr) {
    sequential_ms_.push_back(MsBetween(t0, t1));
    mismatches_ += !as_run_agrees;
    return as_run_agrees ? "" : "1-thread differs";
  }
  options.parallelism = 1;
  const DcsgaResult sequential =
      MustOk(RunNewSea(pipeline.positive_part, pipeline.bounds, options), "RunNewSea");
  const int64_t t2 = NowNs();
  sequential_ms_.push_back(MsBetween(t1, t2));
  spans->Add("newsea.solve_1t", t1, t2, -1, job);
  const bool sequential_agrees = GaAgrees(sequential, request, top);
  if (as_run_agrees && sequential_agrees) return "";
  ++mismatches_;
  return std::string("sharded ") + (as_run_agrees ? "agrees" : "differs") +
         ", 1-thread " + (sequential_agrees ? "agrees" : "differs");
}

void GaSolveReplays::SetMetrics(Metrics* per_layer) const {
  const double solve = Median(as_run_ms_);
  const double solve_1t = Median(sequential_ms_);
  per_layer->Set("newsea.solve_ms", solve, "ms");
  per_layer->Set("newsea.solve_1t_ms", solve_1t, "ms");
  per_layer->Set("newsea.parallel_speedup", solve > 0 ? solve_1t / solve : 0.0, "x");
  per_layer->Set("newsea.cpu_per_wall",
                 as_run_wall_ms_ > 0 ? as_run_cpu_ms_ / as_run_wall_ms_ : 0.0,
                 "ratio");
}

void SetCacheMetrics(const PipelineCacheStats& before,
                     const PipelineCacheStats& after, Metrics* per_layer) {
  const uint64_t hits = after.hits - before.hits;
  const uint64_t lookups = hits + (after.misses - before.misses) +
                           (after.upgrades - before.upgrades);
  per_layer->Set("cache.hit_ratio",
                 lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                             : 0.0,
                 "ratio");
  per_layer->Set("cache.misses", static_cast<double>(after.misses - before.misses),
                 "count");
  per_layer->Set("cache.republishes",
                 static_cast<double>(after.republishes - before.republishes), "count");
  per_layer->Set("cache.bytes", static_cast<double>(after.bytes), "bytes");
}

void SetNewseaCounters(uint64_t inits, uint64_t pruned, uint64_t cd_iterations,
                       uint64_t ga_jobs, Metrics* per_layer) {
  const double n = static_cast<double>(std::max<uint64_t>(ga_jobs, 1));
  per_layer->Set("newsea.inits", static_cast<double>(inits) / n, "count");
  per_layer->Set("newsea.pruned", static_cast<double>(pruned) / n, "count");
  per_layer->Set("newsea.prune_ratio",
                 inits + pruned > 0 ? static_cast<double>(pruned) /
                                          static_cast<double>(inits + pruned)
                                    : 0.0,
                 "ratio");
  per_layer->Set("newsea.cd_iterations", static_cast<double>(cd_iterations) / n,
                 "count");
}

void SetKernelMetrics(const KernelCounters& before, const KernelCounters& after,
                      uint64_t jobs, Metrics* per_layer) {
  const double n = static_cast<double>(std::max<uint64_t>(jobs, 1));
  auto per_job = [&](uint64_t KernelCounters::*field) {
    return static_cast<double>(after.*field - before.*field) / n;
  };
  per_layer->Set("kernels.avx2_calls", per_job(&KernelCounters::avx2_calls),
                 "count");
  per_layer->Set("kernels.scalar_calls",
                 per_job(&KernelCounters::scalar_calls), "count");
  const double axpy = per_job(&KernelCounters::axpy_elements);
  per_layer->Set("kernels.axpy_elements", axpy, "count");
  per_layer->Set("kernels.difference_rows",
                 per_job(&KernelCounters::difference_rows), "count");
  // Computed, not measured: each axpy element reads one staged u32 target
  // and one f64 weight (12 bytes of the SoA adjacency).
  per_layer->Set("kernels.axpy_bytes", axpy * 12.0, "bytes");
}

void SetPoolCpuMetric(const PhaseMeter& meter, const std::set<int>& worker_tids,
                      uint64_t jobs, Metrics* per_layer) {
  per_layer->Set("pool.worker_cpu_ms_per_job",
                 meter.cpu_ms_of(worker_tids) /
                     static_cast<double>(std::max<uint64_t>(jobs, 1)),
                 "ms");
}

double PoolDispatchUs(ThreadPool* pool, size_t tasks, size_t repetitions) {
  std::vector<double> samples;
  samples.reserve(repetitions);
  const std::function<void(size_t)> empty = [](size_t) {};
  for (size_t i = 0; i < repetitions; ++i) {
    const int64_t t0 = NowNs();
    pool->RunTasks(tasks, empty);
    samples.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Median(std::move(samples));
}

void SetTraceMetrics(const SpanBuffer& spans, double traced_p50_ms,
                     double traced_jobs_per_s, double untraced_jobs_per_s,
                     Metrics* per_layer) {
  const std::map<std::string, double> self = MedianSelfMsPerLayer(spans);
  double attributed = 0.0;
  for (const auto& [layer, ms] : self) {
    if (layer != "bench") attributed += ms;
  }
  auto self_of = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  per_layer->Set("self.bench_ms", self_of("bench"), "ms");
  per_layer->Set("self.api.service_ms", self_of("api.service"), "ms");
  per_layer->Set("self.api.session_ms", self_of("api.session"), "ms");
  per_layer->Set("self.graph_ms", self_of("graph"), "ms");
  per_layer->Set("self.core_ms", self_of("core"), "ms");
  per_layer->Set("trace.coverage",
                 traced_p50_ms > 0.0 ? attributed / traced_p50_ms : 0.0,
                 "ratio");
  per_layer->Set("trace.overhead",
                 untraced_jobs_per_s > 0.0
                     ? traced_jobs_per_s / untraced_jobs_per_s
                     : 0.0,
                 "ratio");
}

}  // namespace dcs::e2e
