// The measured kernel layer: the hot loops every DCSGA solve runs —
// difference-graph row merge, discretize map, GD+ compaction, dx (affinity)
// accumulation, gradient-extremes scan, support reduction and the smart-init
// seed-order sort — plus DCSGreedy's candidate peel, with SIMD,
// data-structure or memory-layout variants only where they were measured to
// beat the reference on the library's path.
//
// Which kernels dispatch on the ISA:
//  * AVX2 vs scalar: DiscretizeMapPacked, ScanGradientExtremes (candidate
//    sets of 8 or more) and SeedOrderSort.
//  * Scalar only: AxpyScatter and SupportReduce, whose AVX2 variants
//    measured at or below the ordered loops in bench_micro_kernels.
//    BuildDifferenceGraph and PositivePart are layout rewrites with no ISA
//    split; GreedyPeelHeap swaps the reference's segment tree for a heap.
//
// Exactness contract: every kernel is *bit-identical* to the scalar
// reference it replaced, on every ISA and at every thread count.
// Elementwise work (compare/select discretize, the strict-first-wins
// extremes scan) vectorizes exactly; floating-point sums never reassociate.
// No FMA contraction anywhere: the SIMD paths use explicit intrinsics and
// the build sets -ffp-contract=off, so -DDCS_NATIVE cannot silently fuse
// the scalar reference either.
//
// Dispatch: AVX2 variants are compiled with per-function target attributes
// (no global -mavx2 needed) and selected at runtime via CPUID; tests and
// benches can pin the ISA with ForceKernelIsa. The -DDCS_NATIVE CMake
// toggle additionally compiles the whole library with -march=native.
//
// Counters: every kernel bumps thread-local work counters (aggregated
// process-wide by KernelCountersSnapshot) that the api/ layer surfaces as
// MiningTelemetry kernel fields. Telemetry only — never part of a result.

#ifndef DCS_CORE_KERNELS_H_
#define DCS_CORE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "densest/peel.h"
#include "graph/difference.h"
#include "graph/graph.h"
#include "util/status.h"

namespace dcs {

/// Instruction set a kernel call executes with.
enum class KernelIsa : uint8_t {
  kScalar = 0,  ///< portable reference path (also the bit-identity oracle)
  kAvx2 = 1,    ///< AVX2 vector path (x86-64 with runtime CPUID support)
};

/// "scalar" or "avx2".
const char* KernelIsaName(KernelIsa isa);

/// True iff this process's CPU can execute the AVX2 variants.
bool KernelCpuHasAvx2();

/// The ISA kernel calls currently dispatch to: the forced override when one
/// is set, otherwise the best ISA the CPU supports.
KernelIsa ActiveKernelIsa();

/// \brief Pins dispatch to `isa` for the whole process — the tests/bench
/// override that makes "scalar vs vectorized" directly comparable. Checks
/// that the CPU supports the requested ISA.
void ForceKernelIsa(KernelIsa isa);

/// Returns dispatch to automatic CPU detection.
void ResetForcedKernelIsa();

/// \brief Process-lifetime kernel work counters, summed over all threads.
///
/// Element counts tally the work each kernel family processed; the
/// avx2_calls / scalar_calls pair splits kernel invocations by the ISA that
/// served them. Monotone; sample before/after a region to attribute work.
struct KernelCounters {
  uint64_t difference_rows = 0;      ///< rows merged by the difference build
  uint64_t discretize_elements = 0;  ///< weights pushed through the map
  uint64_t axpy_elements = 0;        ///< edge visits in dx accumulation
  uint64_t extremes_scans = 0;       ///< gradient-extremes scans
  uint64_t support_reductions = 0;   ///< support-sum reductions
  uint64_t staged_lookups = 0;       ///< staged-row edge-weight lookups
  uint64_t avx2_calls = 0;           ///< kernel calls served by AVX2 code
  uint64_t scalar_calls = 0;         ///< kernel calls served by scalar code
};

/// Sums the per-thread counter blocks (live threads + exited ones).
KernelCounters KernelCountersSnapshot();

/// \brief Structure-of-arrays staging of a CSR adjacency: `targets` and
/// `weights` hold the same entries as the Graph's Neighbor array, row order
/// preserved, but split into dense u32 / f64 streams (16-byte AoS stride →
/// 4+8 byte SoA) so the per-seed kernels stream at full cache-line density.
void StageAdjacencySoa(const Graph& graph, std::vector<VertexId>* targets,
                       std::vector<double>* weights);

/// \brief Applies DiscretizeSpec::Map elementwise: out[i] = spec.Map(in[i]).
/// Exact on every ISA (compare/select only). In-place (out == in) allowed.
void DiscretizeMapPacked(const double* in, double* out, size_t count,
                         const DiscretizeSpec& spec);

/// \brief dx[targets[i]] += weights[i] * delta for i in [0, count) — the
/// AffinityState::SetX inner loop over one staged row, in row order with
/// one rounding per product. Scalar on every ISA.
void AxpyScatter(const VertexId* targets, const double* weights, size_t count,
                 double delta, double* dx);

/// Result of ScanGradientExtremes (mirrors
/// AffinityState::GradientExtremes).
struct GradExtremes {
  VertexId argmax = 0;
  VertexId argmin = 0;
  double max_grad = 0.0;
  double min_grad = 0.0;
};

/// \brief The CD pair-selection scan: over `candidates`, the largest
/// gradient 2·dx[k] among {x[k] < 1} and the smallest among {x[k] > 0},
/// each with the *first* index attaining it (strict first-wins, matching
/// the scalar running-max exactly — the vector path recomputes the returned
/// gradients from the winning indices, so even signed-zero bits match).
/// Returns false when either candidate set is empty.
bool ScanGradientExtremes(const VertexId* candidates, size_t count,
                          const double* x, const double* dx,
                          GradExtremes* out);

/// \brief f = Σ_i x[support[i]] · dx[support[i]], summed in support order
/// with one rounding per term. Scalar on every ISA.
double SupportReduce(const VertexId* support, size_t count, const double* x,
                     const double* dx);

/// \brief Binary search of `v` in a sorted staged row; returns the paired
/// weight or 0.0 when absent. Identical to Graph::EdgeWeight on the same
/// row, minus the AoS stride.
double StagedRowLookup(const VertexId* targets, const double* weights,
                       size_t count, VertexId v);

/// \brief Fills `order` with the vertex ids 0..mu.size()-1 sorted by the
/// smart-init seed order: descending mu, ties by ascending id (newsea's
/// SeedOrderLess). The scalar reference is the comparator introsort; the
/// dispatched path LSD-radix-sorts packed keys — each mu's IEEE bits with
/// −0 collapsed to +0, sign-flipped into a monotone unsigned integer and
/// complemented for descending order — skipping byte columns that are
/// constant across all keys (discretized pipelines concentrate mu on a
/// handful of values). Radix passes are stable and ids enter in ascending
/// order, so ties land exactly where the comparator puts them: the two
/// paths return the same order for every NaN-free input.
void SeedOrderSort(const std::vector<double>& mu,
                   std::vector<VertexId>* order);

/// \brief Kernel twin of GreedyPeel (densest/peel.h), the candidate peel
/// DCSGreedy runs twice per solve. Same peel: repeatedly remove the vertex
/// of minimum current weighted degree, ties to the smaller id, and keep the
/// best-density prefix. The reference finds the minimum with a min segment
/// tree; the twin keeps an indexed binary min-heap keyed on (degree, id),
/// whose order is exactly the tree's `<=` pull. A vertex with no kept edge
/// has degree 0.0 for the whole peel, so it stays out of the heap in an
/// id-ordered side stream that is merged in at pop time.
///
/// With `positive_edges_only` the peel reads only the strictly positive
/// entries of `graph`'s rows — GD+ peeled in place, with the row-order
/// degree sums and updates of GreedyPeel(graph.PositivePart()) and no copy.
///
/// Bit-identical to GreedyPeel(graph) (resp. GreedyPeel(graph.
/// PositivePart())): the same peel_order, subset and density bits.
PeelResult GreedyPeelHeap(const Graph& graph, bool positive_edges_only = false);

/// \brief The graph-producing kernels. A friend of Graph so the fast paths
/// can emit CSR arrays directly (two-pass / single-pass construction)
/// instead of routing already-sorted rows through GraphBuilder's
/// sort-and-merge. Each is bit-identical — same vertices, edges and weight
/// bit patterns, hence equal ContentFingerprint — to the builder-based
/// reference implementation it shadows (graph/difference.h, graph/graph.h),
/// which the kernel tests and bench_micro_kernels assert every cycle.
class GraphKernels {
 public:
  /// Kernel twin of BuildDifferenceGraph (graph/difference.h): one merge
  /// pass over the paired sorted rows, emitting the symmetric CSR directly.
  static Result<Graph> BuildDifferenceGraph(const Graph& g1, const Graph& g2,
                                            double alpha = 1.0);

  /// Kernel twin of DiscretizeWeights (graph/difference.h): stages the
  /// weights packed, maps them with DiscretizeMapPacked, then compacts the
  /// surviving entries row by row.
  static Result<Graph> DiscretizeWeights(const Graph& gd,
                                         const DiscretizeSpec& spec);

  /// Kernel twin of Graph::PositivePart: one branchless compaction pass
  /// writing the kept rows straight into the output CSR (the reference does
  /// a count pass plus a push_back pass). Same keep rule (weight > 0.0),
  /// same order, same bits.
  static Graph PositivePart(const Graph& gd);
};

}  // namespace dcs

#endif  // DCS_CORE_KERNELS_H_
