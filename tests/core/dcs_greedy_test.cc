#include "core/dcs_greedy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "densest/exact.h"
#include "densest/peel.h"
#include "gen/random_graphs.h"
#include "graph/components.h"
#include "graph/stats.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1G1;
using ::dcs::testing::Fig1G2;
using ::dcs::testing::Fig1Gd;
using ::dcs::testing::MakeGraph;
using ::dcs::testing::MakeHardnessReduction;

TEST(DcsGreedyTest, EmptyGraphRejected) {
  EXPECT_FALSE(RunDcsGreedy(Graph(0)).ok());
}

TEST(DcsGreedyTest, NoPositiveEdgeYieldsSingleton) {
  Graph gd = MakeGraph(3, {{0, 1, -1.0}, {1, 2, -2.0}});
  auto result = RunDcsGreedy(gd);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->subset.size(), 1u);
  EXPECT_DOUBLE_EQ(result->density, 0.0);
  EXPECT_DOUBLE_EQ(result->ratio_bound, 1.0);
}

TEST(DcsGreedyTest, EdgelessGraphYieldsSingleton) {
  auto result = RunDcsGreedy(Graph(4));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->subset.size(), 1u);
  EXPECT_DOUBLE_EQ(result->density, 0.0);
}

TEST(DcsGreedyTest, SinglepositiveEdge) {
  Graph gd = MakeGraph(4, {{1, 2, 3.0}, {0, 3, -1.0}});
  auto result = RunDcsGreedy(gd);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->subset, (std::vector<VertexId>{1, 2}));
  EXPECT_DOUBLE_EQ(result->density, 3.0);
}

TEST(DcsGreedyTest, Fig1DifferenceGraph) {
  auto result = RunDcsGreedy(Fig1Gd());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->density, 0.0);
  // Reported density matches the subset.
  EXPECT_NEAR(AverageDegreeDensity(Fig1Gd(), result->subset), result->density,
              1e-9);
  // Candidate 1 is the heaviest edge (weight 4).
  EXPECT_DOUBLE_EQ(result->candidate_densities[0], 4.0);
  EXPECT_GE(result->ratio_bound, 1.0);
}

TEST(DcsGreedyTest, TwoGraphOverloadMatchesDifferenceGraph) {
  auto via_pair = RunDcsGreedy(Fig1G1(), Fig1G2());
  auto via_gd = RunDcsGreedy(Fig1Gd());
  ASSERT_TRUE(via_pair.ok());
  ASSERT_TRUE(via_gd.ok());
  EXPECT_EQ(via_pair->subset, via_gd->subset);
  EXPECT_DOUBLE_EQ(via_pair->density, via_gd->density);
}

TEST(DcsGreedyTest, ResultIsConnectedInGd) {
  Rng rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    auto gd = RandomSignedGraph(30, 90, 0.6, 0.5, 4.0, &rng);
    ASSERT_TRUE(gd.ok());
    auto result = RunDcsGreedy(*gd);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(IsInducedConnected(*gd, result->subset));
  }
}

TEST(DcsGreedyTest, DensityAtLeastHeaviestEdge) {
  // The heaviest-edge candidate guarantees ρ(S) >= max weight.
  Rng rng(43);
  for (int trial = 0; trial < 8; ++trial) {
    auto gd = RandomSignedGraph(25, 70, 0.5, 0.5, 5.0, &rng);
    ASSERT_TRUE(gd.ok());
    const WeightStats stats = gd->ComputeWeightStats();
    if (stats.num_positive_edges == 0) continue;
    auto result = RunDcsGreedy(*gd);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->density, stats.max_weight - 1e-9);
  }
}

TEST(DcsGreedyTest, HardnessReductionRecoversPlantedClique) {
  // Theorem 1 construction on a graph whose maximum clique is {0,1,2,3}:
  // optimal DCSAD density is k−1 = 3 and the greedy should find it (the
  // max-clique edges are the only positive edges and form the densest set).
  std::vector<std::pair<VertexId, VertexId>> edges{
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},  // K4
      {4, 5}, {5, 6},                                  // stray path
  };
  auto reduction = MakeHardnessReduction(7, edges);
  auto result = RunDcsGreedy(reduction.g1, reduction.g2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->subset, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(result->density, 3.0);
}

class DcsGreedyOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DcsGreedyOracleTest, NeverExceedsExactAndRatioBoundHolds) {
  Rng rng(GetParam());
  auto gd = RandomSignedGraph(13, 34, 0.6, 0.5, 4.0, &rng);
  ASSERT_TRUE(gd.ok());
  auto greedy = RunDcsGreedy(*gd);
  auto exact = ExactDcsadBruteForce(*gd);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(exact.ok());
  // Feasibility.
  EXPECT_LE(greedy->density, exact->density + 1e-9);
  // Theorem 2: OPT <= ratio_bound · ρ(S).
  if (greedy->density > 0.0) {
    EXPECT_LE(exact->density,
              greedy->ratio_bound * greedy->density + 1e-6);
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameDcsad(const DcsadResult& want, const DcsadResult& got,
                     const std::string& label) {
  EXPECT_EQ(got.subset, want.subset) << label;
  EXPECT_TRUE(SameBits(got.density, want.density)) << label;
  EXPECT_TRUE(SameBits(got.ratio_bound, want.ratio_bound)) << label;
  for (int c = 0; c < 3; ++c) {
    EXPECT_TRUE(SameBits(got.candidate_densities[c],
                         want.candidate_densities[c]))
        << label << " candidate " << c;
  }
  EXPECT_EQ(got.component_refined, want.component_refined) << label;
}

// Every DcsadResult field is the same with and without a pool, and the
// peel candidates carry the segment-tree reference's bits. The 13-vertex
// oracle graph stays below the pooled crossover; the second graph is above
// it, so the two peels really run as pool tasks.
TEST_P(DcsGreedyOracleTest, PooledRunMatchesSequentialAndReferencePeels) {
  ThreadPool pool(1);
  Rng rng(GetParam());
  Result<Graph> small = RandomSignedGraph(13, 34, 0.6, 0.5, 4.0, &rng);
  Result<Graph> large = RandomSignedGraph(1500, 4000, 0.6, 0.5, 4.0, &rng);
  ASSERT_TRUE(small.ok() && large.ok());
  ASSERT_GE(large->NumVertices() + large->NumEdges(), kDcsGreedyPooledMinSize);
  for (const Graph* gd : {&*small, &*large}) {
    const std::string label = "n=" + std::to_string(gd->NumVertices());
    Result<DcsadResult> sequential = RunDcsGreedy(*gd);
    Result<DcsadResult> pooled = RunDcsGreedy(*gd, &pool);
    ASSERT_TRUE(sequential.ok() && pooled.ok());
    ExpectSameDcsad(*sequential, *pooled, label);
    if (sequential->density == 0.0) continue;  // no positive edge: no peels
    const PeelResult reference_gd = GreedyPeel(*gd);
    const PeelResult reference_plus = GreedyPeel(gd->PositivePart());
    EXPECT_TRUE(SameBits(sequential->candidate_densities[1],
                         reference_gd.density))
        << label;
    EXPECT_TRUE(SameBits(
        sequential->candidate_densities[2],
        AverageDegreeDensity(*gd, reference_plus.subset)))
        << label;
    EXPECT_TRUE(SameBits(sequential->ratio_bound,
                         2.0 * reference_plus.density / sequential->density))
        << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DcsGreedyOracleTest,
                         ::testing::Values(71, 72, 73, 74, 75, 76, 77, 78, 79,
                                           80, 81, 82, 83, 84, 85));

TEST(DcsGreedyTest, CandidateDensitiesAreConsistent) {
  Rng rng(4141);
  auto gd = RandomSignedGraph(20, 60, 0.6, 0.5, 4.0, &rng);
  ASSERT_TRUE(gd.ok());
  auto result = RunDcsGreedy(*gd);
  ASSERT_TRUE(result.ok());
  // The final density is at least every candidate's density (component
  // refinement can only improve it, by Property 1).
  for (double candidate : result->candidate_densities) {
    EXPECT_GE(result->density, candidate - 1e-9);
  }
}

}  // namespace
}  // namespace dcs
