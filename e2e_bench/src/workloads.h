// The three closed-loop workloads of the end-to-end benchmark, and the
// direct layer replays their traced runs share.

#ifndef DCS_E2E_WORKLOADS_H_
#define DCS_E2E_WORKLOADS_H_

#include <memory>
#include <set>
#include <string>

#include "api/mining.h"
#include "api/pipeline_cache.h"
#include "core/dcs_greedy.h"
#include "core/kernels.h"
#include "core/newsea.h"
#include "harness.h"
#include "util/thread_pool.h"

namespace dcs::e2e {

/// MiningService with 4 tenants (weights 3:1:1:1), 1 executor, a shared
/// pool of nproc − 2 workers and a shared cache, a group-commit journal and a warm-booted artifact store;
/// one closed-loop client per tenant.
RunResult RunServeMixed(const Args& args);

/// One caller making synchronous MinerSession::Mine calls, each on a
/// pipeline key never used before (every request misses the cache).
RunResult RunColdPrepare(const Args& args);

/// One caller applying 16 streaming updates and then mining, per job, on a
/// session whose updates stay on the O(Δ) patch path.
RunResult RunStreamRefresh(const Args& args);

/// The clocks and library counters around one measured phase.
struct PhaseSnapshot {
  PhaseMeter meter;
  PipelineCacheStats cache_before, cache_after;
  KernelCounters kernels_before, kernels_after;
  /// Reads the counters, then starts the clocks.
  void Begin(const PipelineCache& cache);
  /// Stops the clocks, then reads the counters.
  void End(const PipelineCache& cache);
};

/// A pool of `workers` worker threads, and the ids of those threads in
/// `*worker_tids` (their CPU time is the pool's share of a phase).
std::shared_ptr<ThreadPool> MakePool(size_t workers, std::set<int>* worker_tids);

/// The pipeline a request mines, rebuilt by calling the graph layer's
/// public functions directly, with the time of each step.
struct ReplayPipeline {
  Graph difference{0};
  Graph positive_part{0};
  SmartInitBounds bounds;
  double difference_ms = 0.0;
  double discretize_ms = 0.0;
  double clamp_ms = 0.0;
  double positive_part_ms = 0.0;
  double bounds_ms = 0.0;
};
ReplayPipeline ReplayPrepare(const Graph& g1, const Graph& g2,
                             const MiningRequest& request);

/// True when a direct solver result equals the job's top-ranked subgraph
/// (null when the job ranked nothing) bit for bit.
bool GaAgrees(const DcsgaResult& result, const MiningRequest& request,
              const RankedSubgraph* top);
bool AdAgrees(const DcsadResult& result, const MiningRequest& request,
              const RankedSubgraph* top);

inline const RankedSubgraph* TopOf(const std::vector<RankedSubgraph>& list) {
  return list.empty() ? nullptr : &list.front();
}

/// Direct RunNewSea replays of GA jobs on their replayed pipelines: each
/// solved as the job ran it (sharded over `pool`) and on one thread, both
/// checked bit for bit against the job's answer. Without a pool the job ran
/// sequentially, so one solve is both and the speedup is 1.
class GaSolveReplays {
 public:
  /// Replays one job; returns "" when every solve agrees with `top`, else
  /// which did not.
  std::string Replay(const ReplayPipeline& pipeline, const MiningRequest& request,
                     ThreadPool* pool, const RankedSubgraph* top, uint64_t job,
                     SpanBuffer* spans);
  uint64_t mismatches() const { return mismatches_; }
  /// newsea.solve_ms, newsea.solve_1t_ms, newsea.parallel_speedup and
  /// newsea.cpu_per_wall (process CPU ÷ wall of the solves as the job ran).
  void SetMetrics(Metrics* per_layer) const;

 private:
  std::vector<double> as_run_ms_, sequential_ms_;
  double as_run_cpu_ms_ = 0.0;
  double as_run_wall_ms_ = 0.0;
  uint64_t mismatches_ = 0;
};

/// Cache metrics over a phase: hit ratio of its lookups, its misses and
/// republishes, and the resident bytes at its end.
void SetCacheMetrics(const PipelineCacheStats& before,
                     const PipelineCacheStats& after, Metrics* per_layer);

/// NewSEA work counters summed over `ga_jobs` GA solves, as per-job averages
/// and the share of candidate seeds pruned.
void SetNewseaCounters(uint64_t inits, uint64_t pruned, uint64_t cd_iterations,
                       uint64_t ga_jobs, Metrics* per_layer);

/// Kernel work counters summed over a phase, as per-job averages.
void SetKernelMetrics(const KernelCounters& before, const KernelCounters& after,
                      uint64_t jobs, Metrics* per_layer);

/// CPU time of the pool's worker threads over a phase, per job.
void SetPoolCpuMetric(const PhaseMeter& meter, const std::set<int>& worker_tids,
                      uint64_t jobs, Metrics* per_layer);

/// p50 of ThreadPool::RunTasks over `tasks` empty tasks on `pool`, in µs.
double PoolDispatchUs(ThreadPool* pool, size_t tasks, size_t repetitions);

/// Per-layer self times, coverage and tracing overhead from a traced phase.
void SetTraceMetrics(const SpanBuffer& spans, double traced_p50_ms,
                     double traced_jobs_per_s, double untraced_jobs_per_s,
                     Metrics* per_layer);

}  // namespace dcs::e2e

#endif  // DCS_E2E_WORKLOADS_H_
