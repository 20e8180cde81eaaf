#include "core/dcs_greedy.h"

#include <algorithm>

#include "core/kernels.h"
#include "graph/components.h"
#include "graph/difference.h"
#include "graph/stats.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace dcs {

Result<DcsadResult> RunDcsGreedy(const Graph& gd, ThreadPool* pool) {
  const VertexId n = gd.NumVertices();
  if (n == 0) return Status::InvalidArgument("empty graph");

  // Case 1 of §IV-B: no positive edge — any singleton is optimal (ρ = 0).
  Edge heaviest{0, 0, 0.0};
  for (VertexId u = 0; u < n; ++u) {
    for (const Neighbor& nb : gd.NeighborsOf(u)) {
      if (u < nb.to && nb.weight > heaviest.weight) {
        heaviest = Edge{u, nb.to, nb.weight};
      }
    }
  }
  DcsadResult result;
  if (heaviest.weight <= 0.0) {
    result.subset = {0};
    result.density = 0.0;
    result.ratio_bound = 1.0;
    return result;
  }

  // Candidate 1: the heaviest edge. ρ_D({u,v}) = D(u,v).
  std::vector<VertexId> best = {heaviest.u, heaviest.v};
  result.candidate_densities[0] = heaviest.weight;
  double best_density = heaviest.weight;

  // Candidates 2 and 3: greedy peels of GD and of GD+. They are independent,
  // so a pool runs them side by side.
  PeelResult peel_gd;
  PeelResult peel_gd_plus;
  const auto peel = [&](size_t candidate) {
    if (candidate == 0) {
      peel_gd = GreedyPeelHeap(gd);
    } else {
      peel_gd_plus = GreedyPeelHeap(gd, /*positive_edges_only=*/true);
    }
  };
  if (pool != nullptr && pool->concurrency() >= 2 &&
      n + gd.NumEdges() >= kDcsGreedyPooledMinSize) {
    pool->RunTasks(2, peel);
  } else {
    peel(0);
    peel(1);
  }

  result.candidate_densities[1] = peel_gd.density;
  if (peel_gd.density > best_density) {
    best_density = peel_gd.density;
    best = peel_gd.subset;
  }

  // Candidate 3 is evaluated under ρ_D. Its ρ_{D+} value also powers the
  // Theorem 2 ratio bound.
  const double candidate3_in_gd = AverageDegreeDensity(gd, peel_gd_plus.subset);
  result.candidate_densities[2] = candidate3_in_gd;
  if (candidate3_in_gd > best_density) {
    best_density = candidate3_in_gd;
    best = peel_gd_plus.subset;
  }

  // Lines 8–9: a disconnected winner is replaced by its best component.
  std::vector<std::vector<VertexId>> components = InducedComponents(gd, best);
  if (components.size() > 1) {
    result.component_refined = true;
    double best_component_density = 0.0;
    size_t best_component = 0;
    for (size_t c = 0; c < components.size(); ++c) {
      const double density = AverageDegreeDensity(gd, components[c]);
      if (c == 0 || density > best_component_density) {
        best_component_density = density;
        best_component = c;
      }
    }
    best = components[best_component];
    // Property 1: the best component's density is >= the whole set's.
    DCS_CHECK(best_component_density >= best_density - 1e-9);
    best_density = best_component_density;
  }

  std::sort(best.begin(), best.end());
  result.subset = std::move(best);
  result.density = AverageDegreeDensity(gd, result.subset);
  // Theorem 2: OPT ≤ 2·ρ_{D+}(S2), so β = 2·ρ_{D+}(S2)/ρ_D(S).
  DCS_CHECK(result.density > 0.0);
  result.ratio_bound = 2.0 * peel_gd_plus.density / result.density;
  return result;
}

Result<DcsadResult> RunDcsGreedy(const Graph& g1, const Graph& g2) {
  DCS_ASSIGN_OR_RETURN(Graph gd, BuildDifferenceGraph(g1, g2));
  return RunDcsGreedy(gd);
}

}  // namespace dcs
