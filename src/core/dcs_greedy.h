// DCSGreedy (Algorithm 2) — the O(n)-approximation for DCSAD (§IV-B).
//
// DCSAD (max_S W_D(S)/|S| on a signed difference graph) is NP-hard and
// O(n^{1−ε})-inapproximable (Theorem 1, Corollary 1), so DCSGreedy assembles
// three cheap candidates and keeps the best:
//   1. the heaviest single edge {u,v}  — a 1/(n−1)-optimal fallback,
//   2. Greedy peel of GD,
//   3. Greedy peel of GD+,
// then, if the winner is disconnected in GD, its best-density connected
// component (Property 1). It also reports the data-dependent ratio
// β = 2·ρ_{D+}(S2)/ρ_D(S) of Theorem 2: the optimum is provably ≤ β·ρ_D(S).
//
// Both peels run on GreedyPeelHeap (core/kernels.h), the heap twin of the
// segment-tree GreedyPeel; GD+ is peeled in place from GD's rows, never
// copied. Given a pool, the two peels run as two pool tasks on graphs large
// enough to pay for the dispatch. Every DcsadResult field is bit-identical
// to the sequential reference composition either way.

#ifndef DCS_CORE_DCS_GREEDY_H_
#define DCS_CORE_DCS_GREEDY_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace dcs {

class ThreadPool;  // util/thread_pool.h

/// Smallest |V| + |E| of GD for which RunDcsGreedy runs its two candidate
/// peels as two pool tasks. Below it one pool dispatch costs more than the
/// overlap saves (bench_micro_kernels' peel_pair rows).
inline constexpr size_t kDcsGreedyPooledMinSize = 2048;

/// Outcome of DCSGreedy.
struct DcsadResult {
  /// The contrast subgraph (non-empty; a singleton when GD has no positive
  /// edge).
  std::vector<VertexId> subset;
  /// ρ_D(subset) = W_D(subset)/|subset| (Table I doubled convention).
  double density = 0.0;
  /// Data-dependent approximation ratio β of Theorem 2 (>= 1 whenever
  /// density > 0; 1 exactly when GD has no positive edge).
  double ratio_bound = 1.0;
  /// Densities of the three candidates, for diagnostics / tests:
  /// [heaviest edge, Greedy(GD), Greedy(GD+)] evaluated under ρ_D.
  double candidate_densities[3] = {0.0, 0.0, 0.0};
  /// True iff the winning candidate was replaced by one of its connected
  /// components (Algorithm 2, lines 8–9).
  bool component_refined = false;
};

/// \brief Runs Algorithm 2 on a prebuilt difference graph GD.
///
/// Accepts any signed weighted graph (§III-D generalization). Fails only on
/// an empty vertex set. With a `pool` of at least two slots and
/// |V| + |E| ≥ kDcsGreedyPooledMinSize, the GD and GD+ peels run as two
/// tasks on it (a pool.dispatch fault then throws out of RunTasks); the
/// result is bit-identical to the sequential run.
Result<DcsadResult> RunDcsGreedy(const Graph& gd, ThreadPool* pool = nullptr);

/// \brief Convenience overload: builds GD = G2 − G1 first.
Result<DcsadResult> RunDcsGreedy(const Graph& g1, const Graph& g2);

}  // namespace dcs

#endif  // DCS_CORE_DCS_GREEDY_H_
