#include "core/newsea.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "core/kernels.h"
#include "core/refinement.h"
#include "graph/kcore.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dcs {
namespace {

// Hash of a sorted vertex set, for clique deduplication.
uint64_t HashMembers(const std::vector<VertexId>& members) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (VertexId v : members) {
    uint64_t state = h ^ (static_cast<uint64_t>(v) + 0x517CC1B727220A95ull);
    h = SplitMix64(&state);
  }
  return h;
}

// Shared multi-init machinery: one AffinityState reused across seeds.
class MultiInitDriver {
 public:
  MultiInitDriver(const Graph& gd_plus, const DcsgaOptions& options)
      : gd_plus_(gd_plus), options_(options), state_(gd_plus) {}

  // Runs one initialization from e_seed: Shrink/Expand then Refinement.
  // Updates the running best and (optionally) the clique collection.
  void RunSeed(VertexId seed, DcsgaResult* result) {
    ++result->initializations;
    state_.ResetToVertex(seed);
    if (options_.shrink == ShrinkKind::kCoordinateDescent) {
      const SeacdRunStats stats = RunSeacdInPlace(&state_, options_.seacd);
      result->cd_iterations += stats.cd_iterations;
    } else {
      const SeaRunStats stats = RunSeaInPlace(&state_, options_.sea);
      result->replicator_sweeps += stats.replicator_sweeps;
      result->expansion_errors += stats.expansion_errors;
    }
    const RefinementRunStats refined =
        RefineInPlace(&state_, options_.refinement_descent);
    result->cd_iterations += refined.cd_iterations;

    if (refined.affinity > result->affinity) {
      result->affinity = refined.affinity;
      result->x = state_.ToEmbedding();
      result->support = result->x.Support();
    }
    if (options_.collect_cliques) {
      std::vector<VertexId> members(state_.support().begin(),
                                    state_.support().end());
      std::sort(members.begin(), members.end());
      const uint64_t key = HashMembers(members);
      if (seen_cliques_.insert(key).second) {
        CliqueRecord record;
        record.weights.reserve(members.size());
        for (VertexId v : members) record.weights.push_back(state_.x(v));
        record.members = std::move(members);
        record.affinity = refined.affinity;
        result->cliques.push_back(std::move(record));
      }
    }
  }

 private:
  const Graph& gd_plus_;
  const DcsgaOptions& options_;
  AffinityState state_;
  std::unordered_set<uint64_t> seen_cliques_;
};

// Fallback solution when the graph has no positive edge: a single vertex,
// affinity 0 (§III-B).
DcsgaResult TrivialResult(const Graph& gd_plus) {
  DcsgaResult result;
  result.x = Embedding::UnitVector(gd_plus.NumVertices(), 0);
  result.support = {0};
  result.affinity = 0.0;
  return result;
}

// Monotone lower-bound publication for the shared Theorem 6 bound.
void FetchMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current && !target->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

// Number of shard workers a RunNewSea call actually uses.
size_t ResolveShards(uint32_t requested, const ThreadPool* pool) {
  if (requested == 1) return 1;
  size_t shards = requested != 0 ? requested
                  : pool != nullptr ? pool->concurrency()
                                    : ThreadPool::DefaultConcurrency();
  if (pool != nullptr) shards = std::min(shards, pool->concurrency());
  return std::max<size_t>(shards, 1);
}

// One seed's Shrink (SEACD) + Refine on `state`; returns the refined
// affinity. A pure function of (gd_plus, seed, options): the reset is exact,
// so the descent runs bit-identically on any thread and any state.
double DescendSeed(AffinityState* state, VertexId seed,
                   const DcsgaOptions& inner, uint64_t* cd_iterations) {
  state->ResetToVertex(seed);
  *cd_iterations += RunSeacdInPlace(state, inner.seacd).cd_iterations;
  const RefinementRunStats refined =
      RefineInPlace(state, inner.refinement_descent);
  *cd_iterations += refined.cd_iterations;
  return refined.affinity;
}

// Seed-sharded multi-init (the parallel Algorithm 5 loop).
//
// `order` is the μ-descending seed order. Contiguous chunks of it are handed
// out through an atomic cursor, and every shard owns an AffinityState.
// Shards skip a seed when μ_u < best_lb, the best refined affinity any
// shard has published so far. That is only a work filter, not the answer:
// μ_u bounds the affinity of the clique SEACD reaches from u, but not what
// refinement makes of it, so a seed can refine above its own μ. Shards
// therefore descend seeds the sequential `μ_u ≤ running best` stop never
// reaches, and such a seed can win — or raise best_lb past seeds the
// sequential loop does descend.
//
// The answer is the sequential loop's by construction: each shard records
// the refined affinity of every position it descended, and after the
// parallel phase the sequential rule is replayed in μ-order — stop at the
// first μ_u ≤ running best, take a recorded affinity or descend a position
// the shards skipped, and improve on strict `>`. The winner's embedding is
// a shard's kept best when one holds it, and is re-descended once
// otherwise. Every descent is exact, so the result is bit-identical to the
// sequential one.
DcsgaResult RunNewSeaSharded(const Graph& gd_plus,
                             const SmartInitBounds& bounds,
                             const std::vector<VertexId>& order,
                             const DcsgaOptions& inner, size_t shards,
                             ThreadPool* pool) {
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  struct ShardState {
    uint64_t cd_iterations = 0;
    // (order position, refined affinity) of every seed this shard descended.
    std::vector<std::pair<size_t, double>> descended;
    double best_affinity = 0.0;
    size_t best_pos = kNone;
    Embedding best_x;
  };
  // Chunked hand-out. Small chunks win here: a descent costs microseconds
  // against a ~20ns cursor bump, and the pruning overshoot — seeds claimed
  // before the first strong affinity is published — is bounded by
  // shards × chunk, which matters on datasets where the bound kills almost
  // everything after a handful of seeds.
  constexpr size_t kChunkSize = 4;
  std::atomic<size_t> cursor{0};
  std::atomic<double> best_lb{0.0};  // affinity of the trivial solution
  // Chunks are claimed in μ-order, so once one chunk's best μ falls strictly
  // below the bound every later chunk's does too: stop handing out work.
  std::atomic<bool> exhausted{false};

  std::vector<ShardState> locals(shards);
  pool->RunTasks(shards, [&](size_t shard) {
    ShardState& local = locals[shard];
    AffinityState state(gd_plus);
    while (!exhausted.load(std::memory_order_relaxed)) {
      // Cooperative cancellation, polled once per seed chunk: shards stop
      // claiming work and the caller reports Status::Cancelled. On an
      // uncancelled run this check never alters the claimed-chunk sequence.
      if (inner.cancel != nullptr && inner.cancel->cancelled()) break;
      const size_t begin = cursor.fetch_add(kChunkSize);
      if (begin >= order.size()) break;
      const size_t end = std::min(begin + kChunkSize, order.size());
      const double chunk_mu = bounds.mu[order[begin]];
      if (chunk_mu <= 0.0 ||
          chunk_mu < best_lb.load(std::memory_order_relaxed)) {
        exhausted.store(true, std::memory_order_relaxed);
        break;
      }
      for (size_t pos = begin; pos < end; ++pos) {
        const VertexId seed = order[pos];
        const double mu = bounds.mu[seed];
        // μ ≤ 0 seeds never pass the sequential stop (the running best
        // starts at the trivial solution's 0).
        if (mu <= 0.0 || mu < best_lb.load(std::memory_order_relaxed)) {
          continue;
        }
        const double affinity =
            DescendSeed(&state, seed, inner, &local.cd_iterations);
        local.descended.emplace_back(pos, affinity);
        if (affinity > local.best_affinity ||
            (affinity == local.best_affinity && pos < local.best_pos)) {
          local.best_affinity = affinity;
          local.best_pos = pos;
          local.best_x = state.ToEmbedding();
        }
        FetchMax(&best_lb, affinity);
      }
    }
  });

  DcsgaResult result = TrivialResult(gd_plus);
  // A fired token aborts the solve; the caller reports Status::Cancelled.
  if (inner.cancel != nullptr && inner.cancel->cancelled()) return result;
  std::vector<std::pair<size_t, double>> descended;
  for (ShardState& local : locals) {
    result.cd_iterations += local.cd_iterations;
    descended.insert(descended.end(), local.descended.begin(),
                     local.descended.end());
  }
  std::sort(descended.begin(), descended.end());
  result.initializations = descended.size();

  // Replay the sequential rule over the recorded affinities.
  std::optional<AffinityState> state;  // only for seeds the shards skipped
  auto descend = [&](size_t pos) {
    if (!state) state.emplace(gd_plus);
    return DescendSeed(&*state, order[pos], inner, &result.cd_iterations);
  };
  size_t winner = kNone;
  bool have_x = false;  // result.x already holds the winner's embedding
  auto recorded = descended.begin();
  for (size_t pos = 0; pos < order.size(); ++pos) {
    if (bounds.mu[order[pos]] <= result.affinity) break;  // Theorem 6 stop
    double affinity = 0.0;
    const bool shard_descended =
        recorded != descended.end() && recorded->first == pos;
    if (shard_descended) {
      affinity = (recorded++)->second;
    } else {
      affinity = descend(pos);
      ++result.initializations;
    }
    if (affinity > result.affinity) {
      result.affinity = affinity;
      winner = pos;
      have_x = !shard_descended;
      if (have_x) result.x = state->ToEmbedding();
    }
  }
  if (winner != kNone && !have_x) {
    const auto kept =
        std::find_if(locals.begin(), locals.end(), [winner](const auto& local) {
          return local.best_pos == winner;
        });
    if (kept != locals.end()) {
      result.x = std::move(kept->best_x);
    } else {
      descend(winner);
      result.x = state->ToEmbedding();
    }
  }
  if (winner != kNone) result.support = result.x.Support();
  result.pruned_seeds = order.size() - result.initializations;
  return result;
}

}  // namespace

Status ValidateNonNegativeWeights(const Graph& gd_plus) {
  for (VertexId u = 0; u < gd_plus.NumVertices(); ++u) {
    for (const Neighbor& nb : gd_plus.NeighborsOf(u)) {
      if (nb.weight < 0.0) {
        return Status::InvalidArgument(
            "DCSGA drivers run on GD+; found a negative edge weight");
      }
    }
  }
  return Status::OK();
}

namespace {

// The scalar formulas the full pass and the delta path share; keeping them
// in one place is what makes the delta path bit-identical by construction.
double SmartBoundW(const Graph& gd_plus, const std::vector<double>& max_incident,
                   VertexId u) {
  double w = max_incident[u];
  for (const Neighbor& nb : gd_plus.NeighborsOf(u)) {
    w = std::max(w, max_incident[nb.to]);
  }
  return w;
}

double SmartBoundMu(uint32_t tau_u, double w_u) {
  if (tau_u == 0 || !std::isfinite(w_u)) {
    return 0.0;  // isolated in GD+: best possible affinity is 0
  }
  const double tau = static_cast<double>(tau_u);
  return tau * w_u / (tau + 1.0);
}

double MaxIncidentOf(const Graph& gd_plus, VertexId u) {
  double best = -std::numeric_limits<double>::infinity();
  for (const Neighbor& nb : gd_plus.NeighborsOf(u)) {
    best = std::max(best, nb.weight);
  }
  return best;
}

// The unique total seed order: descending μ, ties by ascending id. Being
// total (no equal elements) is what lets the delta path reproduce a full
// sort exactly via remove-and-merge.
bool SeedOrderLess(const std::vector<double>& mu, VertexId a, VertexId b) {
  return mu[a] != mu[b] ? mu[a] > mu[b] : a < b;
}

}  // namespace

SmartInitBounds ComputeSmartInitBounds(const Graph& gd_plus) {
  const VertexId n = gd_plus.NumVertices();
  SmartInitBounds bounds;
  // Step 1: max incident weight per vertex (kept for the delta path).
  bounds.max_incident = gd_plus.MaxIncidentWeightPerVertex();
  // Step 2: w_u = max over the closed neighborhood T_u of max_incident —
  // an upper bound on the heaviest edge with an endpoint in T_u.
  bounds.w.assign(n, -std::numeric_limits<double>::infinity());
  for (VertexId u = 0; u < n; ++u) {
    bounds.w[u] = SmartBoundW(gd_plus, bounds.max_incident, u);
  }
  // Step 3: τ_u (core numbers) and μ_u = τ_u·w_u/(τ_u+1) (Theorem 6 with the
  // clique size bound k_u ≤ τ_u + 1).
  bounds.tau = CoreNumbers(gd_plus);
  bounds.mu.assign(n, 0.0);
  for (VertexId u = 0; u < n; ++u) {
    bounds.mu[u] = SmartBoundMu(bounds.tau[u], bounds.w[u]);
  }
  // Step 4: the seed order, paid once here instead of on every solve. The
  // comparator sort is this function's hot spot on large graphs, so it runs
  // through the kernel layer (SeedOrderSort: radix over packed μ keys on
  // the dispatched path, the same order bit for bit).
  SeedOrderSort(bounds.mu, &bounds.order);
  return bounds;
}

void ApplySmartInitBoundsDelta(const Graph& old_gd_plus,
                               const Graph& new_gd_plus,
                               std::span<const PositivePairDelta> changes,
                               SmartInitBounds* bounds) {
  const VertexId n = new_gd_plus.NumVertices();
  DCS_CHECK(old_gd_plus.NumVertices() == n && bounds->mu.size() == n &&
            bounds->max_incident.size() == n)
      << "bounds were computed for a different graph";
  if (changes.empty()) return;

  // --- τ: incremental core maintenance on the structural changes ----------
  // Past this many insert/delete traversals one bucket-peeling pass over the
  // new graph is cheaper (and trivially exact), so fall back.
  constexpr size_t kMaxIncrementalCoreEdges = 32;
  std::vector<uint64_t> inserted_pairs;
  std::vector<uint64_t> removed_pairs;
  for (const PositivePairDelta& change : changes) {
    if (change.old_weight == 0.0 && change.new_weight != 0.0) {
      inserted_pairs.push_back(PackVertexPair(change.u, change.v));
    } else if (change.old_weight != 0.0 && change.new_weight == 0.0) {
      removed_pairs.push_back(PackVertexPair(change.u, change.v));
    }
  }
  std::vector<VertexId> tau_changed;
  if (inserted_pairs.size() + removed_pairs.size() >
      kMaxIncrementalCoreEdges) {
    std::vector<uint32_t> fresh = CoreNumbers(new_gd_plus);
    for (VertexId u = 0; u < n; ++u) {
      if (fresh[u] != bounds->tau[u]) tau_changed.push_back(u);
    }
    bounds->tau = std::move(fresh);
  } else if (!inserted_pairs.empty() || !removed_pairs.empty()) {
    // Replay one edge at a time against the two CSR snapshots we hold:
    // removals run on the old graph with the already-removed pairs hidden,
    // insertions then run on the new graph with the not-yet-applied
    // insertions hidden — at every step the visible adjacency is exactly
    // the intermediate graph the single-edge traversal requires.
    std::unordered_set<uint64_t> hidden;
    for (const uint64_t key : removed_pairs) {
      hidden.insert(key);
      const VertexPair pair = UnpackVertexPair(key);
      CoreNumbersAfterRemove(old_gd_plus, pair.u, pair.v, hidden,
                             &bounds->tau, &tau_changed);
    }
    hidden.clear();
    hidden.insert(inserted_pairs.begin(), inserted_pairs.end());
    for (const uint64_t key : inserted_pairs) {
      hidden.erase(key);
      const VertexPair pair = UnpackVertexPair(key);
      CoreNumbersAfterInsert(new_gd_plus, pair.u, pair.v, hidden,
                             &bounds->tau, &tau_changed);
    }
  }

  // --- max_incident: recompute at the changed pairs' endpoints ------------
  std::vector<VertexId> endpoints;
  endpoints.reserve(changes.size() * 2);
  for (const PositivePairDelta& change : changes) {
    endpoints.push_back(change.u);
    endpoints.push_back(change.v);
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());
  std::vector<VertexId> incident_changed;
  for (const VertexId e : endpoints) {
    const double fresh = MaxIncidentOf(new_gd_plus, e);
    if (std::bit_cast<uint64_t>(fresh) !=
        std::bit_cast<uint64_t>(bounds->max_incident[e])) {
      bounds->max_incident[e] = fresh;
      incident_changed.push_back(e);
    }
  }

  // --- w: recompute over the closed neighborhoods that could have moved ---
  // w_x changes only when x's row membership changed (x is an endpoint of a
  // structural pair) or some y in x's closed neighborhood changed its
  // max_incident (x is y or one of y's current neighbors; a *former*
  // neighbor lost the edge, making x a structural endpoint — covered).
  std::vector<VertexId> w_targets = endpoints;
  for (const VertexId y : incident_changed) {
    for (const Neighbor& nb : new_gd_plus.NeighborsOf(y)) {
      w_targets.push_back(nb.to);
    }
  }
  std::sort(w_targets.begin(), w_targets.end());
  w_targets.erase(std::unique(w_targets.begin(), w_targets.end()),
                  w_targets.end());
  for (const VertexId x : w_targets) {
    bounds->w[x] = SmartBoundW(new_gd_plus, bounds->max_incident, x);
  }

  // --- μ: re-derive wherever τ or w may have moved ------------------------
  std::vector<VertexId> mu_targets = std::move(w_targets);
  mu_targets.insert(mu_targets.end(), tau_changed.begin(), tau_changed.end());
  std::sort(mu_targets.begin(), mu_targets.end());
  mu_targets.erase(std::unique(mu_targets.begin(), mu_targets.end()),
                   mu_targets.end());
  for (const VertexId x : mu_targets) {
    bounds->mu[x] = SmartBoundMu(bounds->tau[x], bounds->w[x]);
  }

  // --- seed order: remove the re-derived vertices, merge them back --------
  // The untouched vertices keep their relative order (their sort keys are
  // unchanged), and the order is a unique total order, so this remove-and-
  // merge reproduces a from-scratch sort bit for bit in O(n + c log c).
  if (bounds->order.size() == n && !mu_targets.empty()) {
    std::vector<char> is_target(n, 0);
    for (const VertexId x : mu_targets) is_target[x] = 1;
    std::vector<VertexId> reinsert = mu_targets;
    std::sort(reinsert.begin(), reinsert.end(),
              [&](VertexId a, VertexId b) {
                return SeedOrderLess(bounds->mu, a, b);
              });
    std::vector<VertexId> merged;
    merged.reserve(n);
    size_t ri = 0;
    for (const VertexId x : bounds->order) {
      if (is_target[x]) continue;  // re-inserted from `reinsert` instead
      while (ri < reinsert.size() &&
             SeedOrderLess(bounds->mu, reinsert[ri], x)) {
        merged.push_back(reinsert[ri++]);
      }
      merged.push_back(x);
    }
    while (ri < reinsert.size()) merged.push_back(reinsert[ri++]);
    bounds->order = std::move(merged);
  }
}

Result<DcsgaResult> RunNewSea(const Graph& gd_plus,
                              const DcsgaOptions& options) {
  return RunNewSea(gd_plus, ComputeSmartInitBounds(gd_plus), options);
}

Result<DcsgaResult> RunNewSea(const Graph& gd_plus,
                              const SmartInitBounds& bounds,
                              const DcsgaOptions& options) {
  return RunNewSea(gd_plus, bounds, options, /*pool=*/nullptr);
}

Result<DcsgaResult> RunNewSea(const Graph& gd_plus,
                              const SmartInitBounds& bounds,
                              const DcsgaOptions& options, ThreadPool* pool) {
  if (!options.assume_nonnegative) {
    DCS_RETURN_NOT_OK(ValidateNonNegativeWeights(gd_plus));
  }
  const VertexId n = gd_plus.NumVertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (gd_plus.NumEdges() == 0) return TrivialResult(gd_plus);
  if (bounds.mu.size() != n) {
    return Status::InvalidArgument(
        "smart-init bounds were computed for a different graph");
  }

  // A cached pipeline's bounds carry the seed order precomputed (and
  // delta-maintained); fall back to sorting only for hand-built bounds.
  std::vector<VertexId> local_order;
  const std::vector<VertexId>* order_ptr = &bounds.order;
  if (bounds.order.size() != n) {
    local_order.resize(n);
    std::iota(local_order.begin(), local_order.end(), VertexId{0});
    std::sort(local_order.begin(), local_order.end(),
              [&](VertexId a, VertexId b) {
                return SeedOrderLess(bounds.mu, a, b);
              });
    order_ptr = &local_order;
  }
  const std::vector<VertexId>& order = *order_ptr;

  DcsgaOptions inner = options;
  inner.shrink = ShrinkKind::kCoordinateDescent;  // NewSEA is CD by definition

  const size_t shards = ResolveShards(options.parallelism, pool);
  if (shards > 1 && !options.collect_cliques) {
    DcsgaResult sharded;
    if (pool != nullptr) {
      sharded = RunNewSeaSharded(gd_plus, bounds, order, inner, shards, pool);
    } else {
      ThreadPool transient(shards - 1);
      sharded =
          RunNewSeaSharded(gd_plus, bounds, order, inner, shards, &transient);
    }
    // A fired token aborts the whole solve — no partial result escapes, so
    // a cancelled job can simply be resubmitted for the exact full answer.
    if (inner.cancel != nullptr && inner.cancel->cancelled()) {
      return Status::Cancelled("NewSEA solve cancelled");
    }
    return sharded;
  }

  DcsgaResult result = TrivialResult(gd_plus);
  MultiInitDriver driver(gd_plus, inner);
  size_t seeds_run = 0;
  for (VertexId u : order) {
    if (inner.cancel != nullptr && inner.cancel->cancelled()) {
      return Status::Cancelled("NewSEA solve cancelled");
    }
    if (bounds.mu[u] <= result.affinity) break;  // Theorem 6 early stop
    ++seeds_run;
    driver.RunSeed(u, &result);
  }
  result.pruned_seeds = order.size() - seeds_run;
  return result;
}

Result<DcsgaResult> RunDcsgaAllInits(const Graph& gd_plus,
                                     const DcsgaOptions& options) {
  if (!options.assume_nonnegative) {
    DCS_RETURN_NOT_OK(ValidateNonNegativeWeights(gd_plus));
  }
  const VertexId n = gd_plus.NumVertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (gd_plus.NumEdges() == 0) return TrivialResult(gd_plus);

  DcsgaResult result = TrivialResult(gd_plus);
  MultiInitDriver driver(gd_plus, options);
  for (VertexId u = 0; u < n; ++u) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      return Status::Cancelled("DCSGA all-inits solve cancelled");
    }
    // Isolated vertices cannot improve on the trivial solution.
    if (gd_plus.Degree(u) == 0) {
      ++result.pruned_seeds;
      continue;
    }
    driver.RunSeed(u, &result);
  }
  return result;
}

std::vector<CliqueRecord> FilterMaximalCliques(std::vector<CliqueRecord> in) {
  // Sort indices by size descending so that possible supersets come first.
  std::vector<size_t> order(in.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return in[a].members.size() > in[b].members.size();
  });
  // For every kept clique, index it by its smallest member: any superset of
  // a clique C contains C's first vertex, so looking up that one bucket
  // suffices for the subset test. The index is a flat epoch-stamped vector
  // over the vertex range rather than a hash map: bucket lookups become one
  // array access, and the scratch persists across calls (thread_local, like
  // AffinityState::Renormalize's visited set) — a stale bucket (stamp !=
  // current epoch) reads as empty, so repeated top-k harvests pay neither
  // rehashing nor O(n) clearing.
  VertexId max_vertex = 0;
  for (const CliqueRecord& record : in) {
    for (VertexId v : record.members) max_vertex = std::max(max_vertex, v);
  }
  thread_local std::vector<std::vector<size_t>> buckets;
  thread_local std::vector<uint32_t> bucket_epoch;
  thread_local uint32_t epoch = 0;
  if (++epoch == 0) {
    // Stamp wrap-around: every stale stamp could alias the fresh epoch, so
    // reset once per 2^32 calls.
    std::fill(bucket_epoch.begin(), bucket_epoch.end(), 0u);
    epoch = 1;
  }
  const uint32_t kEpoch = epoch;
  if (buckets.size() <= max_vertex) {
    buckets.resize(static_cast<size_t>(max_vertex) + 1);
    bucket_epoch.resize(static_cast<size_t>(max_vertex) + 1, 0);
  }
  std::vector<char> kept(in.size(), 0);
  for (size_t idx : order) {
    const std::vector<VertexId>& members = in[idx].members;
    bool subsumed = false;
    if (!members.empty()) {
      // One bucket is enough: supersets contain every member, so checking
      // the first member's bucket covers them all.
      const VertexId first = members.front();
      if (bucket_epoch[first] == kEpoch) {
        for (size_t candidate : buckets[first]) {
          const std::vector<VertexId>& big = in[candidate].members;
          if (big.size() < members.size()) continue;
          if (std::includes(big.begin(), big.end(), members.begin(),
                            members.end())) {
            subsumed = true;
            break;
          }
        }
      }
    }
    if (!subsumed) {
      kept[idx] = 1;
      for (VertexId v : in[idx].members) {
        if (bucket_epoch[v] != kEpoch) {
          bucket_epoch[v] = kEpoch;
          buckets[v].clear();
        }
        buckets[v].push_back(idx);
      }
    }
  }
  std::vector<CliqueRecord> out;
  out.reserve(in.size());
  for (size_t idx = 0; idx < in.size(); ++idx) {
    if (kept[idx]) out.push_back(std::move(in[idx]));
  }
  return out;
}

}  // namespace dcs
