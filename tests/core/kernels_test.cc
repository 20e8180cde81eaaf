// Golden bit-identity suite for the kernel layer (core/kernels.h). Every
// dispatched kernel must produce the same bits under forced-scalar and
// forced-AVX2 dispatch — on elementwise kernels, on the graph-producing
// twins of the reference builders, and end-to-end through RunNewSea at
// thread counts {1,2,4,7}. The scalar-only kernels (AxpyScatter,
// SupportReduce) must match an inline ordered loop bit for bit. AVX2 halves
// skip on hardware without AVX2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/kernels.h"
#include "core/newsea.h"
#include "densest/peel.h"
#include "gen/random_graphs.h"
#include "graph/difference.h"
#include "graph/graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::MakeGraph;

// Restores automatic dispatch no matter how the test exits.
struct ScopedIsa {
  explicit ScopedIsa(KernelIsa isa) { ForceKernelIsa(isa); }
  ~ScopedIsa() { ResetForcedKernelIsa(); }
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

#define SKIP_WITHOUT_AVX2()                              \
  if (!KernelCpuHasAvx2()) {                             \
    GTEST_SKIP() << "CPU has no AVX2; scalar-only host"; \
  }

void ExpectGraphsBitIdentical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.ContentFingerprint(), b.ContentFingerprint());
  for (VertexId u = 0; u < a.NumVertices(); ++u) {
    const auto row_a = a.NeighborsOf(u);
    const auto row_b = b.NeighborsOf(u);
    ASSERT_EQ(row_a.size(), row_b.size()) << "row " << u;
    for (size_t i = 0; i < row_a.size(); ++i) {
      EXPECT_EQ(row_a[i].to, row_b[i].to) << "row " << u;
      EXPECT_TRUE(SameBits(row_a[i].weight, row_b[i].weight)) << "row " << u;
    }
  }
}

// Mixed magnitudes, signs, exact threshold hits, signed zeros and the
// values a discretize/reduce kernel could round differently.
std::vector<double> AdversarialDoubles(const DiscretizeSpec& spec) {
  std::vector<double> values = {
      0.0,
      -0.0,
      spec.weak_pos,
      spec.strong_pos,
      spec.strong_neg,
      std::nextafter(spec.weak_pos, 0.0),
      std::nextafter(spec.weak_pos, 1e300),
      std::nextafter(spec.strong_pos, 0.0),
      std::nextafter(spec.strong_pos, 1e300),
      std::nextafter(spec.strong_neg, 0.0),
      std::nextafter(spec.strong_neg, -1e300),
      -1e-300,
      1e-300,
      -1e300,
      1e300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      1.0 / 3.0,
      -2.0 / 3.0,
  };
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    values.push_back((rng.NextDouble() - 0.5) * 20.0);
  }
  return values;
}

TEST(KernelDispatchTest, ForceAndResetControlActiveIsa) {
  {
    ScopedIsa scalar(KernelIsa::kScalar);
    EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kScalar);
  }
  const KernelIsa automatic = ActiveKernelIsa();
  EXPECT_EQ(automatic,
            KernelCpuHasAvx2() ? KernelIsa::kAvx2 : KernelIsa::kScalar);
  EXPECT_STREQ(KernelIsaName(KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(KernelIsaName(KernelIsa::kAvx2), "avx2");
}

TEST(KernelDispatchTest, CountersAdvanceWhenKernelsRun) {
  const KernelCounters before = KernelCountersSnapshot();
  std::vector<double> values(64, 1.5);
  DiscretizeSpec spec;
  DiscretizeMapPacked(values.data(), values.data(), values.size(), spec);
  const KernelCounters middle = KernelCountersSnapshot();
  EXPECT_EQ(middle.discretize_elements - before.discretize_elements, 64u);
  EXPECT_GE((middle.avx2_calls + middle.scalar_calls) -
                (before.avx2_calls + before.scalar_calls),
            1u);

  // The scalar-only kernels still report every call as a scalar call.
  const std::vector<VertexId> ids = {0, 1, 2};
  std::vector<double> x = {0.5, 0.25, 0.25}, dx(3, 0.0);
  AxpyScatter(ids.data(), x.data(), ids.size(), 2.0, dx.data());
  SupportReduce(ids.data(), ids.size(), x.data(), dx.data());
  const KernelCounters after = KernelCountersSnapshot();
  EXPECT_EQ(after.scalar_calls - middle.scalar_calls, 2u);
  EXPECT_EQ(after.avx2_calls, middle.avx2_calls);
  EXPECT_EQ(after.axpy_elements - middle.axpy_elements, 3u);
  EXPECT_EQ(after.support_reductions - middle.support_reductions, 1u);
}

TEST(KernelBitIdentityTest, DiscretizeMapMatchesScalarReference) {
  SKIP_WITHOUT_AVX2();
  DiscretizeSpec spec;
  const std::vector<double> input = AdversarialDoubles(spec);
  std::vector<double> scalar_out(input.size()), avx2_out(input.size());
  {
    ScopedIsa isa(KernelIsa::kScalar);
    DiscretizeMapPacked(input.data(), scalar_out.data(), input.size(), spec);
  }
  {
    ScopedIsa isa(KernelIsa::kAvx2);
    DiscretizeMapPacked(input.data(), avx2_out.data(), input.size(), spec);
  }
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_TRUE(SameBits(scalar_out[i], spec.Map(input[i]))) << input[i];
    EXPECT_TRUE(SameBits(scalar_out[i], avx2_out[i])) << input[i];
  }
}

TEST(KernelBitIdentityTest, DiscretizeMapHandlesNonDefaultSpec) {
  SKIP_WITHOUT_AVX2();
  DiscretizeSpec spec;
  spec.strong_pos = 0.75;
  spec.weak_pos = 0.75;  // weak == strong: the >= chain must pick level_two
  spec.strong_neg = -1.0 / 3.0;
  spec.level_one = 0.5;
  spec.level_two = 7.0;
  ASSERT_TRUE(spec.Validate().ok());
  const std::vector<double> input = AdversarialDoubles(spec);
  std::vector<double> scalar_out(input.size()), avx2_out(input.size());
  {
    ScopedIsa isa(KernelIsa::kScalar);
    DiscretizeMapPacked(input.data(), scalar_out.data(), input.size(), spec);
  }
  {
    ScopedIsa isa(KernelIsa::kAvx2);
    DiscretizeMapPacked(input.data(), avx2_out.data(), input.size(), spec);
  }
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_TRUE(SameBits(scalar_out[i], avx2_out[i])) << input[i];
  }
}

TEST(KernelBitIdentityTest, AxpyScatterMatchesScalarLoop) {
  Rng rng(7);
  const size_t n = 500;
  for (const size_t count : {0ul, 1ul, 3ul, 4ul, 7ul, 64ul, 333ul}) {
    std::vector<VertexId> targets(count);
    std::vector<double> weights(count);
    std::vector<double> dx_loop(n), dx_kernel(n);
    for (size_t i = 0; i < count; ++i) {
      // Random targets repeat, so the in-order scatter adds are exercised.
      targets[i] = static_cast<VertexId>(rng.Next() % n);
      weights[i] = (rng.NextDouble() - 0.5) * 6.0;
    }
    for (size_t i = 0; i < n; ++i) {
      dx_loop[i] = (rng.NextDouble() - 0.5);
      dx_kernel[i] = dx_loop[i];
    }
    const double delta = 0.37;
    for (size_t i = 0; i < count; ++i) {
      dx_loop[targets[i]] += weights[i] * delta;
    }
    AxpyScatter(targets.data(), weights.data(), count, delta,
                dx_kernel.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(SameBits(dx_loop[i], dx_kernel[i])) << "count " << count;
    }
  }
}

TEST(KernelBitIdentityTest, GradientExtremesMatchesScalarFirstWins) {
  SKIP_WITHOUT_AVX2();
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 64 + trial;
    std::vector<double> x(n, 0.0), dx(n, 0.0);
    std::vector<VertexId> candidates;
    for (size_t v = 0; v < n; ++v) {
      candidates.push_back(static_cast<VertexId>(v));
      // Ternary buckets force ties, signed zeros and ineligible lanes: some
      // x pinned at 1.0 (max-ineligible), some at 0.0 (min-ineligible), dx
      // drawn from a tiny set so duplicates are guaranteed.
      const uint64_t bucket = rng.Next() % 5;
      x[v] = bucket == 0 ? 1.0 : (bucket == 1 ? 0.0 : 0.25);
      const uint64_t grad_bucket = rng.Next() % 4;
      dx[v] = grad_bucket == 0   ? 0.0
              : grad_bucket == 1 ? -0.0
              : grad_bucket == 2 ? 0.5
                                 : -0.5;
    }
    GradExtremes scalar_ext, avx2_ext;
    bool scalar_ok, avx2_ok;
    {
      ScopedIsa isa(KernelIsa::kScalar);
      scalar_ok = ScanGradientExtremes(candidates.data(), candidates.size(),
                                       x.data(), dx.data(), &scalar_ext);
    }
    {
      ScopedIsa isa(KernelIsa::kAvx2);
      avx2_ok = ScanGradientExtremes(candidates.data(), candidates.size(),
                                     x.data(), dx.data(), &avx2_ext);
    }
    ASSERT_EQ(scalar_ok, avx2_ok);
    if (!scalar_ok) continue;
    EXPECT_EQ(scalar_ext.argmax, avx2_ext.argmax);
    EXPECT_EQ(scalar_ext.argmin, avx2_ext.argmin);
    EXPECT_TRUE(SameBits(scalar_ext.max_grad, avx2_ext.max_grad));
    EXPECT_TRUE(SameBits(scalar_ext.min_grad, avx2_ext.min_grad));
  }
}

TEST(KernelBitIdentityTest, SupportReduceExactMatchesOrderedSum) {
  Rng rng(13);
  for (const size_t count : {0ul, 1ul, 5ul, 8ul, 64ul, 1001ul}) {
    const size_t n = count + 10;
    std::vector<VertexId> support(count);
    std::vector<double> x(n), dx(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.NextDouble();
      dx[i] = (rng.NextDouble() - 0.5) * 4.0;
    }
    for (size_t i = 0; i < count; ++i) {
      support[i] = static_cast<VertexId>(rng.Next() % n);
    }
    double ordered = 0.0;
    for (size_t i = 0; i < count; ++i) {
      ordered += x[support[i]] * dx[support[i]];
    }
    EXPECT_TRUE(SameBits(
        ordered, SupportReduce(support.data(), count, x.data(), dx.data())))
        << count;
  }
}

TEST(KernelBitIdentityTest, StagedRowLookupMatchesGraphEdgeWeight) {
  Rng rng(17);
  Result<Graph> graph = ErdosRenyiWeighted(120, 0.1, 0.5, 3.0, &rng);
  ASSERT_TRUE(graph.ok());
  std::vector<VertexId> targets;
  std::vector<double> weights;
  StageAdjacencySoa(*graph, &targets, &weights);
  size_t offset = 0;
  for (VertexId u = 0; u < graph->NumVertices(); ++u) {
    const size_t degree = graph->Degree(u);
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      EXPECT_TRUE(SameBits(
          StagedRowLookup(targets.data() + offset, weights.data() + offset,
                          degree, v),
          graph->EdgeWeight(u, v)))
          << u << "," << v;
    }
    offset += degree;
  }
}

// --- Graph-producing kernel twins ------------------------------------------

TEST(GraphKernelsTest, DifferenceTwinMatchesReferenceOnRandomPairs) {
  for (const uint64_t seed : {3u, 21u, 77u}) {
    Rng rng(seed);
    Result<Graph> g1 = ErdosRenyiWeighted(200, 0.05, 0.5, 3.0, &rng);
    Result<Graph> g2 = ErdosRenyiWeighted(200, 0.05, 0.5, 3.0, &rng);
    ASSERT_TRUE(g1.ok() && g2.ok());
    for (const double alpha : {1.0, 0.5, 1.0 / 3.0}) {
      Result<Graph> reference = BuildDifferenceGraph(*g1, *g2, alpha);
      Result<Graph> kernel = GraphKernels::BuildDifferenceGraph(*g1, *g2, alpha);
      ASSERT_TRUE(reference.ok() && kernel.ok());
      ExpectGraphsBitIdentical(*reference, *kernel);
    }
  }
}

TEST(GraphKernelsTest, DifferenceTwinDropsCancellationsLikeTheBuilder) {
  // Identical edge in both graphs with alpha=1 cancels to exactly 0; a
  // near-identical one leaves a residue below the builder's zero_eps. Both
  // must be absent from both implementations.
  const Graph g1 = MakeGraph(4, {{0, 1, 2.0}, {1, 2, 1.0}, {2, 3, 1e-13}});
  const Graph g2 = MakeGraph(4, {{0, 1, 2.0}, {1, 2, 3.0}, {2, 3, 2e-13}});
  Result<Graph> reference = BuildDifferenceGraph(g1, g2, 1.0);
  Result<Graph> kernel = GraphKernels::BuildDifferenceGraph(g1, g2, 1.0);
  ASSERT_TRUE(reference.ok() && kernel.ok());
  ExpectGraphsBitIdentical(*reference, *kernel);
  EXPECT_FALSE(kernel->HasEdge(0, 1));
  EXPECT_FALSE(kernel->HasEdge(2, 3));
  EXPECT_TRUE(kernel->HasEdge(1, 2));
}

TEST(GraphKernelsTest, DifferenceTwinMirrorsReferenceErrors) {
  const Graph small = MakeGraph(3, {{0, 1, 1.0}});
  const Graph large = MakeGraph(4, {{0, 1, 1.0}});
  EXPECT_TRUE(GraphKernels::BuildDifferenceGraph(small, large, 1.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GraphKernels::BuildDifferenceGraph(small, small, 0.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GraphKernels::BuildDifferenceGraph(small, small, -2.0)
                  .status()
                  .IsInvalidArgument());
}

TEST(GraphKernelsTest, DiscretizeTwinMatchesReference) {
  for (const uint64_t seed : {5u, 31u}) {
    Rng rng(seed);
    Result<Graph> g1 = ErdosRenyiWeighted(150, 0.06, 0.5, 3.0, &rng);
    Result<Graph> g2 = ErdosRenyiWeighted(150, 0.06, 0.5, 3.0, &rng);
    ASSERT_TRUE(g1.ok() && g2.ok());
    Result<Graph> gd = BuildDifferenceGraph(*g1, *g2, 1.0);
    ASSERT_TRUE(gd.ok());
    DiscretizeSpec spec;
    spec.strong_pos = 2.0;
    spec.weak_pos = 1.0;
    spec.strong_neg = -1.5;
    Result<Graph> reference = DiscretizeWeights(*gd, spec);
    Result<Graph> kernel = GraphKernels::DiscretizeWeights(*gd, spec);
    ASSERT_TRUE(reference.ok() && kernel.ok());
    ExpectGraphsBitIdentical(*reference, *kernel);
  }
  DiscretizeSpec invalid;
  invalid.weak_pos = -1.0;
  const Graph g = MakeGraph(2, {{0, 1, 1.0}});
  EXPECT_TRUE(
      GraphKernels::DiscretizeWeights(g, invalid).status().IsInvalidArgument());
}

TEST(KernelBitIdentityTest, SeedOrderSortMatchesComparatorSort) {
  SKIP_WITHOUT_AVX2();
  // Duplicate-heavy, signed, zero-laden mu vectors: the radix path must
  // reproduce the comparator sort's order exactly, including the
  // ascending-id tie-break and −0 == +0 ties.
  Rng rng(314159);
  for (int round = 0; round < 6; ++round) {
    std::vector<double> mu(237);
    for (double& m : mu) {
      switch (rng.NextBounded(5)) {
        case 0: m = 0.0; break;
        case 1: m = -0.0; break;
        case 2: m = static_cast<double>(rng.NextBounded(4)); break;
        case 3: m = -rng.Uniform(0.0, 3.0); break;
        default: m = rng.Uniform(0.0, 8.0); break;
      }
    }
    std::vector<VertexId> expected(mu.size());
    std::iota(expected.begin(), expected.end(), VertexId{0});
    std::stable_sort(expected.begin(), expected.end(),
                     [&](VertexId a, VertexId b) {
                       return mu[a] != mu[b] ? mu[a] > mu[b] : a < b;
                     });
    std::vector<VertexId> scalar_order;
    std::vector<VertexId> kernel_order;
    {
      ScopedIsa isa(KernelIsa::kScalar);
      SeedOrderSort(mu, &scalar_order);
    }
    {
      ScopedIsa isa(KernelIsa::kAvx2);
      SeedOrderSort(mu, &kernel_order);
    }
    EXPECT_EQ(scalar_order, expected);
    EXPECT_EQ(kernel_order, expected);
  }
  // All-distinct mu past the counting table's capacity exercises the radix
  // fallback; it must agree with the comparator sort too.
  std::vector<double> distinct(3000);
  for (double& m : distinct) m = rng.NextDouble() * 16.0 - 4.0;
  std::vector<VertexId> expected(distinct.size());
  std::iota(expected.begin(), expected.end(), VertexId{0});
  std::stable_sort(expected.begin(), expected.end(),
                   [&](VertexId a, VertexId b) {
                     return distinct[a] != distinct[b]
                                ? distinct[a] > distinct[b]
                                : a < b;
                   });
  std::vector<VertexId> radix_order;
  {
    ScopedIsa isa(KernelIsa::kAvx2);
    SeedOrderSort(distinct, &radix_order);
  }
  EXPECT_EQ(radix_order, expected);

  // Degenerate sizes.
  std::vector<VertexId> order;
  SeedOrderSort({}, &order);
  EXPECT_TRUE(order.empty());
  SeedOrderSort({7.5}, &order);
  EXPECT_EQ(order, std::vector<VertexId>{0});
}

TEST(GraphKernelsTest, PositivePartTwinMatchesReference) {
  for (const uint64_t seed : {11u, 47u}) {
    Rng rng(seed);
    Result<Graph> gd = RandomSignedGraph(250, 2000, 0.6, 0.5, 4.0, &rng);
    ASSERT_TRUE(gd.ok());
    ExpectGraphsBitIdentical(gd->PositivePart(),
                             GraphKernels::PositivePart(*gd));
  }
  // Edge cases: empty graph, all-negative rows (everything dropped) and an
  // isolated middle vertex.
  ExpectGraphsBitIdentical(Graph(5).PositivePart(),
                           GraphKernels::PositivePart(Graph(5)));
  const Graph negative =
      MakeGraph(4, {{0, 1, -2.0}, {1, 2, -0.5}, {2, 3, -1.0}});
  ExpectGraphsBitIdentical(negative.PositivePart(),
                           GraphKernels::PositivePart(negative));
  EXPECT_EQ(GraphKernels::PositivePart(negative).NumEdges(), 0u);
  const Graph mixed = MakeGraph(5, {{0, 1, 3.0}, {0, 3, -1.0}, {3, 4, 2.0}});
  ExpectGraphsBitIdentical(mixed.PositivePart(),
                           GraphKernels::PositivePart(mixed));
}

// --- Greedy peel: heap twin vs segment-tree reference ----------------------

void ExpectPeelsBitIdentical(const PeelResult& want, const PeelResult& got,
                             const std::string& label) {
  EXPECT_EQ(got.peel_order, want.peel_order) << label;
  EXPECT_EQ(got.subset, want.subset) << label;
  EXPECT_TRUE(SameBits(got.density, want.density))
      << label << ": " << got.density << " vs " << want.density;
}

// The twin on GD against GreedyPeel(GD), and in positive_edges_only mode
// against GreedyPeel(GD.PositivePart()).
void ExpectPeelTwinMatchesReference(const Graph& gd, const std::string& label) {
  ExpectPeelsBitIdentical(GreedyPeel(gd), GreedyPeelHeap(gd), label + " GD");
  ExpectPeelsBitIdentical(GreedyPeel(gd.PositivePart()),
                          GreedyPeelHeap(gd, /*positive_edges_only=*/true),
                          label + " GD+");
}

// Weights drawn from {±1, ±2}, so degrees collide constantly and the
// smaller-id tie-break decides most pops.
Graph TiedWeightGraph(VertexId n, size_t m, uint64_t seed) {
  Rng rng(seed);
  std::set<std::pair<VertexId, VertexId>> seen;
  std::vector<std::tuple<VertexId, VertexId, double>> edges;
  while (edges.size() < m) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert({u, v}).second) continue;
    const double magnitude = 1.0 + static_cast<double>(rng.NextBounded(2));
    edges.emplace_back(u, v, rng.NextBounded(2) == 0 ? magnitude : -magnitude);
  }
  return MakeGraph(n, edges);
}

TEST(GreedyPeelTwinTest, MatchesReferenceOnRandomSignedGraphs) {
  for (const uint64_t seed : {3u, 19u, 58u, 101u}) {
    Rng rng(seed);
    Result<Graph> dense = RandomSignedGraph(300, 2400, 0.6, 0.5, 4.0, &rng);
    ASSERT_TRUE(dense.ok());
    ExpectPeelTwinMatchesReference(*dense, "dense seed " + std::to_string(seed));
    // Fewer edges than vertices: many vertices have no edge at all, more
    // have no positive one.
    Result<Graph> sparse = RandomSignedGraph(400, 180, 0.5, 0.5, 4.0, &rng);
    ASSERT_TRUE(sparse.ok());
    ExpectPeelTwinMatchesReference(*sparse,
                                   "sparse seed " + std::to_string(seed));
  }
}

TEST(GreedyPeelTwinTest, MatchesReferenceUnderDegreeTies) {
  for (const uint64_t seed : {5u, 6u, 7u}) {
    ExpectPeelTwinMatchesReference(TiedWeightGraph(120, 300, seed),
                                   "tied seed " + std::to_string(seed));
    ExpectPeelTwinMatchesReference(TiedWeightGraph(200, 120, seed),
                                   "tied sparse seed " + std::to_string(seed));
  }
}

TEST(GreedyPeelTwinTest, MatchesReferenceOnEdgeCases) {
  ExpectPeelTwinMatchesReference(Graph(0), "empty");
  ExpectPeelTwinMatchesReference(Graph(1), "one vertex");
  ExpectPeelTwinMatchesReference(Graph(6), "edgeless");
  ExpectPeelTwinMatchesReference(
      MakeGraph(5, {{0, 1, -2.0}, {1, 2, -0.5}, {2, 3, -1.0}}),
      "all negative");
  // Vertex 2's and 4's rows are all negative; 5 and 6 are isolated.
  ExpectPeelTwinMatchesReference(
      MakeGraph(7, {{0, 1, 3.0}, {0, 2, -1.0}, {1, 2, -2.0}, {1, 3, 1.0},
                    {2, 4, -1.5}, {3, 4, -0.5}}),
      "negative rows");
  ExpectPeelTwinMatchesReference(MakeGraph(2, {{0, 1, 1.0}}), "one edge");
  ExpectPeelTwinMatchesReference(::dcs::testing::Fig1Gd(), "Fig. 1");
}

TEST(GreedyPeelTwinTest, PositiveModeMatchesPeelOfPositivePart) {
  // The GD+ peel read in place must equal the twin run on the copy too.
  Rng rng(77);
  Result<Graph> gd = RandomSignedGraph(500, 3000, 0.5, 0.5, 4.0, &rng);
  ASSERT_TRUE(gd.ok());
  ExpectPeelsBitIdentical(GreedyPeelHeap(gd->PositivePart()),
                          GreedyPeelHeap(*gd, /*positive_edges_only=*/true),
                          "copy vs in place");
}

// --- End-to-end: solver bit-identity across ISA × thread count -------------

Graph SolverFixtureGdPlus(uint64_t seed) {
  Rng rng(seed);
  Result<Graph> gd =
      RandomSignedGraph(/*n=*/300, /*m=*/2400, /*positive_fraction=*/0.7,
                        /*magnitude_lo=*/0.5, /*magnitude_hi=*/3.0, &rng);
  DCS_CHECK(gd.ok());
  return gd->PositivePart();
}

TEST(KernelSolverTest, NewSeaBitIdenticalAcrossIsaAndThreads) {
  SKIP_WITHOUT_AVX2();
  const Graph gd_plus = SolverFixtureGdPlus(41);
  const SmartInitBounds bounds = ComputeSmartInitBounds(gd_plus);
  DcsgaOptions reference_options;  // parallelism = 1
  DcsgaResult reference;
  {
    ScopedIsa isa(KernelIsa::kScalar);
    Result<DcsgaResult> ref_run = RunNewSea(gd_plus, bounds, reference_options);
    ASSERT_TRUE(ref_run.ok());
    reference = std::move(*ref_run);
  }
  for (const KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
    for (const uint32_t threads : {1u, 2u, 4u, 7u}) {
      ScopedIsa scoped(isa);
      DcsgaOptions options;
      options.parallelism = threads;
      Result<DcsgaResult> run = RunNewSea(gd_plus, bounds, options);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(run->affinity, reference.affinity)
          << KernelIsaName(isa) << " x" << threads;
      EXPECT_EQ(run->support, reference.support)
          << KernelIsaName(isa) << " x" << threads;
      EXPECT_EQ(run->x.x, reference.x.x)
          << KernelIsaName(isa) << " x" << threads;
    }
  }
}

}  // namespace
}  // namespace dcs
