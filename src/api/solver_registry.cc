#include "api/solver_registry.h"

#include <algorithm>
#include <utility>

#include "core/dcs_greedy.h"
#include "core/embedding.h"
#include "core/refinement.h"
#include "core/seacd.h"
#include "core/topk.h"
#include "graph/stats.h"
#include "util/logging.h"

namespace dcs {
namespace {

// Builtin "dcsad": DCSGreedy (Algorithm 2) for top_k == 1, iterated
// peel-and-remove (core/topk.h) beyond. DCSGreedy's two candidate peels take
// the pool when the session's budget grants a second thread.
Result<std::vector<RankedSubgraph>> SolveDcsadBuiltin(
    const SolverContext& context, const MiningRequest& request,
    MiningTelemetry* telemetry) {
  (void)telemetry;
  if (context.difference == nullptr) {
    return Status::Internal("dcsad solver invoked without a difference graph");
  }
  const Graph& gd = *context.difference;
  ThreadPool* pool = context.parallelism_budget >= 2 ? context.pool : nullptr;
  std::vector<RankedSubgraph> out;
  if (request.top_k == 1) {
    DCS_ASSIGN_OR_RETURN(DcsadResult best, RunDcsGreedy(gd, pool));
    if (best.density > request.min_density) {
      RankedSubgraph ranked;
      ranked.vertices = std::move(best.subset);
      std::sort(ranked.vertices.begin(), ranked.vertices.end());
      ranked.value = best.density;
      ranked.ratio_bound = best.ratio_bound;
      ranked.positive_clique = IsPositiveClique(gd, ranked.vertices);
      out.push_back(std::move(ranked));
    }
    return out;
  }
  TopkDcsadOptions options;
  options.k = request.top_k;
  options.min_density = request.min_density;
  DCS_ASSIGN_OR_RETURN(std::vector<RankedDcsad> rounds,
                       MineTopKDcsad(gd, options, pool));
  out.reserve(rounds.size());
  for (RankedDcsad& round : rounds) {
    RankedSubgraph ranked;
    ranked.vertices = std::move(round.subset);
    std::sort(ranked.vertices.begin(), ranked.vertices.end());
    ranked.value = round.density;
    ranked.ratio_bound = round.ratio_bound;
    ranked.positive_clique = IsPositiveClique(gd, ranked.vertices);
    out.push_back(std::move(ranked));
  }
  return out;
}

// Builtin "dcsga": NewSEA (Algorithm 5) with optional warm-start seed for
// top_k == 1, the all-initializations clique harvest beyond.
Result<std::vector<RankedSubgraph>> SolveDcsgaBuiltin(
    const SolverContext& context, const MiningRequest& request,
    MiningTelemetry* telemetry) {
  if (context.positive_part == nullptr || context.difference == nullptr) {
    return Status::Internal("dcsga solver invoked without GD+/GD");
  }
  const Graph& gd_plus = *context.positive_part;
  const Graph& gd = *context.difference;
  std::vector<RankedSubgraph> out;

  // Resolve the session-granted knobs into the solver options: "auto"
  // parallelism (0) becomes the session's thread budget, and
  // the per-solve non-negativity scan is skipped once the session has
  // validated the cached pipeline's GD+.
  DcsgaOptions solver_options = request.ga_solver;
  if (solver_options.parallelism == 0) {
    solver_options.parallelism = std::max(context.parallelism_budget, 1u);
  }
  solver_options.assume_nonnegative =
      solver_options.assume_nonnegative || context.positive_part_validated;
  // The explicit per-solve token (Mine's `cancel` argument, the
  // async service's per-job token) always wins over a request-embedded
  // DcsgaOptions::cancel — otherwise an embedded token would make the
  // documented cancel argument unreachable for the seed loop. The embedded
  // token still applies when no per-solve token is given.
  if (context.cancel != nullptr) {
    solver_options.cancel = context.cancel;
  }

  if (request.top_k == 1) {
    Result<DcsgaResult> fresh =
        context.smart_bounds != nullptr
            ? RunNewSea(gd_plus, *context.smart_bounds, solver_options,
                        context.pool)
            : RunNewSea(gd_plus, ComputeSmartInitBounds(gd_plus),
                        solver_options, context.pool);
    if (!fresh.ok()) return fresh.status();
    DcsgaResult best = std::move(*fresh);
    telemetry->initializations += best.initializations;
    telemetry->pruned_seeds += best.pruned_seeds;
    telemetry->cd_iterations += best.cd_iterations;
    telemetry->replicator_sweeps += best.replicator_sweeps;
    telemetry->expansion_errors += best.expansion_errors;

    bool warm_valid = !context.warm_support.empty();
    for (VertexId v : context.warm_support) {
      warm_valid &= v < gd_plus.NumVertices();
    }
    if (warm_valid) {
      // One extra initialization from the previous solution's support; kept
      // only when it strictly beats the fresh solve, so warm starting never
      // degrades the answer.
      AffinityState state(gd_plus);
      const Status reset = state.ResetToEmbedding(Embedding::UniformOn(
          gd_plus.NumVertices(), context.warm_support));
      if (reset.ok()) {
        telemetry->warm_start_used = true;
        telemetry->initializations += 1;
        const SeacdRunStats shrink =
            RunSeacdInPlace(&state, solver_options.seacd);
        const RefinementRunStats refined =
            RefineInPlace(&state, solver_options.refinement_descent);
        telemetry->cd_iterations +=
            shrink.cd_iterations + refined.cd_iterations;
        if (refined.affinity > best.affinity) {
          best.affinity = refined.affinity;
          best.x = state.ToEmbedding();
          best.support = best.x.Support();
        }
      }
    }

    if (best.affinity > request.min_affinity) {
      RankedSubgraph ranked;
      ranked.vertices = std::move(best.support);
      ranked.weights.reserve(ranked.vertices.size());
      for (VertexId v : ranked.vertices) ranked.weights.push_back(best.x.x[v]);
      ranked.value = best.affinity;
      ranked.positive_clique = IsPositiveClique(gd, ranked.vertices);
      out.push_back(std::move(ranked));
    }
    return out;
  }

  TopkDcsgaOptions options;
  options.k = request.top_k;
  options.disjoint = request.disjoint;
  options.min_affinity = request.min_affinity;
  options.solver = solver_options;
  DCS_ASSIGN_OR_RETURN(std::vector<CliqueRecord> cliques,
                       MineTopKDcsga(gd_plus, options));
  out.reserve(cliques.size());
  for (CliqueRecord& clique : cliques) {
    RankedSubgraph ranked;
    ranked.vertices = std::move(clique.members);
    ranked.weights = std::move(clique.weights);
    ranked.value = clique.affinity;
    ranked.positive_clique = IsPositiveClique(gd, ranked.vertices);
    out.push_back(std::move(ranked));
  }
  return out;
}

}  // namespace

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    DCS_CHECK(r->Register("dcsad", &SolveDcsadBuiltin).ok());
    DCS_CHECK(r->Register("dcsga", &SolveDcsgaBuiltin).ok());
    return r;
  }();
  return *registry;
}

Status SolverRegistry::Register(const std::string& name, SolverFn fn) {
  if (name.empty()) {
    return Status::InvalidArgument("solver name must be non-empty");
  }
  if (fn == nullptr) {
    return Status::InvalidArgument("solver function must be non-null");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!solvers_.emplace(name, fn).second) {
    return Status::AlreadyExists("solver '" + name + "' already registered");
  }
  return Status::OK();
}

SolverFn SolverRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = solvers_.find(name);
  return it == solvers_.end() ? nullptr : it->second;
}

std::vector<std::string> SolverRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(solvers_.size());
  for (const auto& [name, fn] : solvers_) names.push_back(name);
  return names;
}

}  // namespace dcs
