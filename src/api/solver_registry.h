// Solver registry of the mining facade.
//
// MinerSession dispatches each measure of a MiningRequest to a solver
// function looked up by name ("dcsad" → DCSGreedy / iterated peeling,
// "dcsga" → NewSEA / all-inits harvest). New measures or experimental
// solver variants plug in by registering a function — callers keep using
// MinerSession::Mine unchanged and select the variant through
// MiningRequest::{ad,ga}_solver_name.
//
// Ownership: the registry stores bare function pointers; it owns nothing.
// A SolverContext only *borrows* session state — every pointer in it is
// owned by the session (or its PipelineCache snapshot) and outlives the
// solver call; solvers must not retain any of them past their return.
//
// Thread safety: Register/Find/Names are mutex-guarded and callable from
// any thread. Registration is global and permanent (no unregister), so
// Find'ing a function pointer once published is always safe to call.
//
// Determinism: a registered solver must be a pure function of
// (context, request) — a multi-executor MiningService invokes solvers from
// several executor threads concurrently, and the facade's bit-identical
// multi-tenant / shared-cache guarantees only extend to solvers that honor
// this.

#ifndef DCS_API_SOLVER_REGISTRY_H_
#define DCS_API_SOLVER_REGISTRY_H_

#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "api/mining.h"
#include "core/newsea.h"  // SmartInitBounds
#include "graph/graph.h"
#include "util/status.h"

namespace dcs {

class ThreadPool;  // util/thread_pool.h

/// \brief Read-only view of the session's prepared pipeline artifacts that a
/// solver may consume. Pointers are owned by the session and outlive the
/// solver call; `positive_part` and `smart_bounds` are set whenever the
/// request mines graph affinity (or names a non-builtin solver).
struct SolverContext {
  /// The full signed difference graph after discretize/clamp.
  const Graph* difference = nullptr;
  /// GD+ (Graph::PositivePart of `difference`), or nullptr.
  const Graph* positive_part = nullptr;
  /// §V-D smart-initialization bounds of `positive_part`, or nullptr.
  const SmartInitBounds* smart_bounds = nullptr;
  /// True once the session has run the non-negativity scan on
  /// `positive_part`; solvers may then skip their own per-solve scan.
  bool positive_part_validated = false;
  /// The session's shared worker pool for intra-request parallelism; may be
  /// null (solvers must degrade to sequential or spawn transiently).
  ThreadPool* pool = nullptr;
  /// Intra-request worker budget the session grants this solve (>= 1):
  /// the session's whole thread budget. The builtin "dcsga" solver honors it
  /// when the request's own parallelism knob says "auto" (0); the builtin
  /// "dcsad" solver runs DCSGreedy's two peels on `pool` only when it is 2
  /// or more.
  uint32_t parallelism_budget = 1;
  /// Previous solution's support for warm starting; empty unless the request
  /// opted in and the session has one.
  std::span<const VertexId> warm_support;
  /// Cooperative cancellation token of this solve, or nullptr. Solvers
  /// should poll it at coarse safe points and abort with Status::Cancelled;
  /// the builtin "dcsga" solver threads it into the NewSEA seed loop. A
  /// solver that ignores the token just cancels less promptly.
  const CancelToken* cancel = nullptr;
};

/// A solver: prepared inputs + request → ranked subgraphs. Must be pure
/// (no shared mutable state) — a multi-executor MiningService invokes
/// solvers from several threads concurrently.
using SolverFn = Result<std::vector<RankedSubgraph>> (*)(
    const SolverContext& context, const MiningRequest& request,
    MiningTelemetry* telemetry);

/// \brief Name → SolverFn map; thread-safe.
class SolverRegistry {
 public:
  /// The process-wide registry, with the builtin solvers ("dcsad", "dcsga")
  /// pre-registered.
  static SolverRegistry& Global();

  /// Registers `fn` under `name`; fails with AlreadyExists on a duplicate
  /// name and InvalidArgument on an empty name or null fn.
  Status Register(const std::string& name, SolverFn fn);

  /// The solver registered under `name`, or nullptr.
  SolverFn Find(const std::string& name) const;

  /// Registered names, ascending.
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, SolverFn> solvers_;
};

}  // namespace dcs

#endif  // DCS_API_SOLVER_REGISTRY_H_
