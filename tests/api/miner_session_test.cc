// MinerSession tests: construction, AD/GA parity with the direct core
// calls, pipeline-cache behavior, streaming invalidation, and warm starts.

#include "api/miner_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "core/dcs_greedy.h"
#include "core/newsea.h"
#include "gen/coauthor.h"
#include "gen/random_graphs.h"
#include "graph/difference.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1G1;
using ::dcs::testing::Fig1G2;
using ::dcs::testing::Fig1Gd;
using ::dcs::testing::MakeGraph;

TEST(MinerSessionTest, CreateRejectsMismatchedOrEmptyGraphs) {
  EXPECT_TRUE(MinerSession::Create(MakeGraph(3, {}), MakeGraph(4, {}))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MinerSession::Create(Graph(0), Graph(0))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      MinerSession::CreateStreaming(0).status().IsInvalidArgument());
  EXPECT_TRUE(MinerSession::Create(Fig1G1(), Fig1G2()).ok());
}

TEST(MinerSessionTest, CreateRejectsInvalidNumericOptions) {
  SessionOptions nan_eps;
  nan_eps.zero_eps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(MinerSession::Create(Fig1G1(), Fig1G2(), nan_eps)
                  .status()
                  .IsInvalidArgument());
  SessionOptions negative_eps;
  negative_eps.zero_eps = -1.0;
  EXPECT_TRUE(MinerSession::CreateStreaming(4, negative_eps)
                  .status()
                  .IsInvalidArgument());
  SessionOptions nan_ratio;
  nan_ratio.patch_rebuild_ratio = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(MinerSession::Create(Fig1G1(), Fig1G2(), nan_ratio)
                  .status()
                  .IsInvalidArgument());
  SessionOptions negative_ratio;
  negative_ratio.patch_rebuild_ratio = -0.5;
  EXPECT_TRUE(MinerSession::CreateStreaming(4, negative_ratio)
                  .status()
                  .IsInvalidArgument());
}

TEST(MinerSessionTest, MineValidatesTheRequest) {
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.alpha = -1.0;
  EXPECT_TRUE(session->Mine(request).status().IsInvalidArgument());
  request = MiningRequest{};
  request.top_k = 0;
  EXPECT_TRUE(session->Mine(request).status().IsInvalidArgument());
}

TEST(MinerSessionTest, AverageDegreeParityWithDcsGreedy) {
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  Result<MiningResponse> response = session->Mine(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->average_degree.size(), 1u);

  Result<DcsadResult> direct = RunDcsGreedy(Fig1Gd());
  ASSERT_TRUE(direct.ok());
  std::vector<VertexId> expected = direct->subset;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(response->average_degree[0].vertices, expected);
  EXPECT_DOUBLE_EQ(response->average_degree[0].value, direct->density);
  EXPECT_DOUBLE_EQ(response->average_degree[0].ratio_bound,
                   direct->ratio_bound);
}

TEST(MinerSessionTest, GraphAffinityParityWithNewSea) {
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kGraphAffinity;
  Result<MiningResponse> response = session->Mine(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->graph_affinity.size(), 1u);

  Result<DcsgaResult> direct = RunNewSea(Fig1Gd().PositivePart());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(response->graph_affinity[0].vertices, direct->support);
  EXPECT_DOUBLE_EQ(response->graph_affinity[0].value, direct->affinity);
  ASSERT_EQ(response->graph_affinity[0].weights.size(),
            direct->support.size());
  for (size_t i = 0; i < direct->support.size(); ++i) {
    EXPECT_DOUBLE_EQ(response->graph_affinity[0].weights[i],
                     direct->x.x[direct->support[i]]);
  }
  EXPECT_TRUE(response->graph_affinity[0].positive_clique);
  EXPECT_EQ(response->telemetry.initializations, direct->initializations);
}

TEST(MinerSessionTest, ParityOnPlantedCoauthorFixture) {
  Rng rng(101);
  CoauthorConfig config;
  config.num_authors = 1500;
  config.emerging_sizes = {5, 7};
  config.disappearing_sizes = {6};
  Result<CoauthorData> data = GenerateCoauthorData(config, &rng);
  ASSERT_TRUE(data.ok());

  Result<MinerSession> session = MinerSession::Create(data->g1, data->g2);
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kBoth;
  Result<MiningResponse> response = session->Mine(request);
  ASSERT_TRUE(response.ok());

  Result<Graph> gd = BuildDifferenceGraph(data->g1, data->g2);
  ASSERT_TRUE(gd.ok());
  Result<DcsadResult> ad = RunDcsGreedy(*gd);
  Result<DcsgaResult> ga = RunNewSea(gd->PositivePart());
  ASSERT_TRUE(ad.ok());
  ASSERT_TRUE(ga.ok());

  ASSERT_EQ(response->average_degree.size(), 1u);
  std::vector<VertexId> expected_ad = ad->subset;
  std::sort(expected_ad.begin(), expected_ad.end());
  EXPECT_EQ(response->average_degree[0].vertices, expected_ad);
  EXPECT_DOUBLE_EQ(response->average_degree[0].value, ad->density);

  ASSERT_EQ(response->graph_affinity.size(), 1u);
  EXPECT_EQ(response->graph_affinity[0].vertices, ga->support);
  EXPECT_DOUBLE_EQ(response->graph_affinity[0].value, ga->affinity);
}

TEST(MinerSessionTest, DiscretizeAndFlipParity) {
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());

  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  request.discretize = DiscretizeSpec{};
  Result<MiningResponse> discrete = session->Mine(request);
  ASSERT_TRUE(discrete.ok());
  Result<Graph> mapped = DiscretizeWeights(Fig1Gd(), DiscretizeSpec{});
  ASSERT_TRUE(mapped.ok());
  Result<DcsadResult> direct = RunDcsGreedy(*mapped);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(discrete->average_degree.size(), 1u);
  EXPECT_DOUBLE_EQ(discrete->average_degree[0].value, direct->density);

  request = MiningRequest{};
  request.measure = Measure::kAverageDegree;
  request.flip = true;
  Result<MiningResponse> flipped = session->Mine(request);
  ASSERT_TRUE(flipped.ok());
  Result<Graph> gd_flipped = BuildDifferenceGraph(Fig1G2(), Fig1G1());
  ASSERT_TRUE(gd_flipped.ok());
  Result<DcsadResult> direct_flipped = RunDcsGreedy(*gd_flipped);
  ASSERT_TRUE(direct_flipped.ok());
  ASSERT_EQ(flipped->average_degree.size(), 1u);
  EXPECT_DOUBLE_EQ(flipped->average_degree[0].value,
                   direct_flipped->density);
}

TEST(MinerSessionTest, RepeatedQueriesReuseTheCachedDifference) {
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kBoth;

  Result<MiningResponse> first = session->Mine(request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(session->num_rebuilds(), 1u);
  EXPECT_FALSE(first->telemetry.reused_cached_difference);

  for (int i = 0; i < 5; ++i) {
    Result<MiningResponse> again = session->Mine(request);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->telemetry.reused_cached_difference);
  }
  EXPECT_EQ(session->num_rebuilds(), 1u) << "cache must keep rebuilds flat";

  // A different pipeline key materializes once...
  request.alpha = 2.0;
  ASSERT_TRUE(session->Mine(request).ok());
  EXPECT_EQ(session->num_rebuilds(), 2u);
  // ...and the first pipeline is still cached.
  request.alpha = 1.0;
  Result<MiningResponse> back = session->Mine(request);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->telemetry.reused_cached_difference);
  EXPECT_EQ(session->num_rebuilds(), 2u);
  EXPECT_EQ(session->num_cached_pipelines(), 2u);

  // DifferenceSnapshot shares the same cache.
  ASSERT_TRUE(session->DifferenceSnapshot().ok());
  EXPECT_EQ(session->num_rebuilds(), 2u);
}

TEST(MinerSessionTest, PipelineCacheEvictsFifo) {
  SessionOptions options;
  options.max_cached_pipelines = 1;
  Result<MinerSession> session =
      MinerSession::Create(Fig1G1(), Fig1G2(), options);
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  for (const double alpha : {1.0, 2.0, 1.0}) {
    request.alpha = alpha;
    ASSERT_TRUE(session->Mine(request).ok());
    EXPECT_EQ(session->num_cached_pipelines(), 1u);
  }
  EXPECT_EQ(session->num_rebuilds(), 3u);
}

TEST(MinerSessionTest, StreamingUpdatesMatchBatchSession) {
  Graph g1 = Fig1G1();
  Graph g2 = Fig1G2();
  Result<MinerSession> streaming = MinerSession::CreateStreaming(5);
  ASSERT_TRUE(streaming.ok());
  for (const Edge& e : g1.UndirectedEdges()) {
    ASSERT_TRUE(
        streaming->ApplyUpdate(UpdateSide::kG1, e.u, e.v, e.weight).ok());
  }
  for (const Edge& e : g2.UndirectedEdges()) {
    ASSERT_TRUE(
        streaming->ApplyUpdate(UpdateSide::kG2, e.u, e.v, e.weight).ok());
  }
  Result<Graph> snapshot = streaming->DifferenceSnapshot();
  ASSERT_TRUE(snapshot.ok());
  const Graph expected = Fig1Gd();
  ASSERT_EQ(snapshot->NumVertices(), expected.NumVertices());
  ASSERT_EQ(snapshot->NumEdges(), expected.NumEdges());
  for (const Edge& e : expected.UndirectedEdges()) {
    EXPECT_DOUBLE_EQ(snapshot->EdgeWeight(e.u, e.v), e.weight);
  }

  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  Result<MiningResponse> streamed = streaming->Mine(request);
  Result<MinerSession> batch = MinerSession::Create(std::move(g1),
                                                    std::move(g2));
  ASSERT_TRUE(batch.ok());
  Result<MiningResponse> batched = batch->Mine(request);
  ASSERT_TRUE(streamed.ok());
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(streamed->average_degree.size(), batched->average_degree.size());
  EXPECT_EQ(streamed->average_degree[0].vertices,
            batched->average_degree[0].vertices);
  EXPECT_DOUBLE_EQ(streamed->average_degree[0].value,
                   batched->average_degree[0].value);
}

TEST(MinerSessionTest, ApplyUpdateRejectsBadInput) {
  Result<MinerSession> session = MinerSession::CreateStreaming(4);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 1, 1, 1.0)
                  .IsInvalidArgument());
  EXPECT_EQ(session->ApplyUpdate(UpdateSide::kG2, 0, 9, 1.0).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(session
                  ->ApplyUpdate(UpdateSide::kG1, 0, 1,
                                std::numeric_limits<double>::infinity())
                  .IsInvalidArgument());
  EXPECT_EQ(session->num_updates(), 0u);
}

TEST(MinerSessionTest, ApplyUpdateRepatchesCachedPipelines) {
  // Default crossover: a 1-pair batch against Fig. 1's 11 edges takes the
  // O(Δ) patch path — the cached pipeline is republished under the new
  // fingerprint, so the post-update mine *hits* with the patched content.
  Result<MinerSession> session = MinerSession::Create(Fig1G1(), Fig1G2());
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  ASSERT_TRUE(session->Mine(request).ok());
  EXPECT_EQ(session->num_rebuilds(), 1u);

  // Strengthen the (0,1) contrast: GD weight goes +4 -> +6.
  ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 0, 1, 2.0).ok());
  Result<MiningResponse> after = session->Mine(request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(session->num_rebuilds(), 1u)
      << "a patched flush must not rematerialize the difference";
  EXPECT_TRUE(after->telemetry.reused_cached_difference);
  EXPECT_EQ(session->num_update_patches(), 1u);
  EXPECT_EQ(session->num_update_rebuilds(), 0u);
  EXPECT_EQ(session->num_republished_entries(), 1u);
  EXPECT_EQ(after->telemetry.update_patches, 1u);
  EXPECT_EQ(after->telemetry.patched_entries_republished, 1u);
  Result<Graph> snapshot = session->DifferenceSnapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_DOUBLE_EQ(snapshot->EdgeWeight(0, 1), 6.0);

  // An exact cancellation drops the edge entirely: GD(0,3) = 2-1 = +1, so a
  // -1 delta on the G2 side zeroes the difference... to -0? No: the G2 edge
  // weight 2 becomes 1, equal to G1's 1, and the difference edge vanishes.
  ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 0, 3, -1.0).ok());
  snapshot = session->DifferenceSnapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_FALSE(snapshot->HasEdge(0, 3));
}

TEST(MinerSessionTest, ApplyUpdateWithPatchingDisabledForcesARebuild) {
  // patch_rebuild_ratio = 0 pins the pre-patch behavior: the update
  // invalidates copy-on-write and the next mine rebuilds cold.
  SessionOptions options;
  options.patch_rebuild_ratio = 0.0;
  Result<MinerSession> session =
      MinerSession::Create(Fig1G1(), Fig1G2(), options);
  ASSERT_TRUE(session.ok());
  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  ASSERT_TRUE(session->Mine(request).ok());
  EXPECT_EQ(session->num_rebuilds(), 1u);

  ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 0, 1, 2.0).ok());
  Result<MiningResponse> after = session->Mine(request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(session->num_rebuilds(), 2u) << "update must force a rebuild";
  EXPECT_FALSE(after->telemetry.reused_cached_difference);
  EXPECT_EQ(session->num_update_patches(), 0u);
  EXPECT_EQ(session->num_update_rebuilds(), 1u);
  EXPECT_EQ(after->telemetry.update_rebuilds, 1u);
  Result<Graph> snapshot = session->DifferenceSnapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_DOUBLE_EQ(snapshot->EdgeWeight(0, 1), 6.0);
}

TEST(MinerSessionTest, WarmStartTracksAcrossUpdates) {
  // A strong planted 4-clique in G2 over background noise.
  std::vector<std::tuple<VertexId, VertexId, double>> g2_edges;
  const std::vector<VertexId> planted{10, 11, 12, 13};
  for (size_t i = 0; i < planted.size(); ++i) {
    for (size_t j = i + 1; j < planted.size(); ++j) {
      g2_edges.emplace_back(planted[i], planted[j], 5.0);
    }
  }
  g2_edges.emplace_back(0, 1, 1.0);
  g2_edges.emplace_back(2, 3, 0.5);
  Result<MinerSession> session =
      MinerSession::Create(MakeGraph(20, {}), MakeGraph(20, g2_edges));
  ASSERT_TRUE(session.ok());

  MiningRequest request;
  request.measure = Measure::kGraphAffinity;
  request.warm_start = true;
  Result<MiningResponse> first = session->Mine(request);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->graph_affinity.size(), 1u);
  EXPECT_EQ(first->graph_affinity[0].vertices, planted);
  // No previous solution existed, so no warm seed was attempted.
  EXPECT_FALSE(first->telemetry.warm_start_used);

  // Drift the story slightly; the warm seed from the previous answer is
  // attempted and the clique is still recovered.
  ASSERT_TRUE(session->ApplyUpdate(UpdateSide::kG2, 10, 11, 0.25).ok());
  Result<MiningResponse> second = session->Mine(request);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->graph_affinity.size(), 1u);
  EXPECT_TRUE(second->telemetry.warm_start_used);
  EXPECT_EQ(second->graph_affinity[0].vertices, planted);

  session->ClearWarmStart();
  Result<MiningResponse> third = session->Mine(request);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->telemetry.warm_start_used);
}

TEST(MinerSessionTest, TopKRequestsRankAndRespectDisjointness) {
  // Two vertex-disjoint positive cliques of different strength.
  std::vector<std::tuple<VertexId, VertexId, double>> g2_edges;
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = u + 1; v < 3; ++v) g2_edges.emplace_back(u, v, 6.0);
  }
  for (VertexId u = 4; u < 7; ++u) {
    for (VertexId v = u + 1; v < 7; ++v) g2_edges.emplace_back(u, v, 3.0);
  }
  Result<MinerSession> session =
      MinerSession::Create(MakeGraph(8, {}), MakeGraph(8, g2_edges));
  ASSERT_TRUE(session.ok());

  MiningRequest request;
  request.measure = Measure::kBoth;
  request.top_k = 2;
  Result<MiningResponse> response = session->Mine(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->graph_affinity.size(), 2u);
  EXPECT_EQ(response->graph_affinity[0].vertices,
            (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(response->graph_affinity[1].vertices,
            (std::vector<VertexId>{4, 5, 6}));
  EXPECT_GE(response->graph_affinity[0].value,
            response->graph_affinity[1].value);
  ASSERT_EQ(response->average_degree.size(), 2u);
  EXPECT_EQ(response->average_degree[0].vertices,
            (std::vector<VertexId>{0, 1, 2}));
}

// A substantial session input: an empty G1 against a random signed G2, so
// the difference graph has hundreds of candidate seeds to shard.
std::pair<Graph, Graph> RandomSessionGraphs() {
  Rng rng(31);
  Result<Graph> g2 = RandomSignedGraph(/*n=*/250, /*m=*/2000,
                                       /*positive_fraction=*/0.7,
                                       /*magnitude_lo=*/0.5,
                                       /*magnitude_hi=*/3.0, &rng);
  DCS_CHECK(g2.ok());
  return {MakeGraph(250, {}), std::move(g2).value()};
}

// Only the mined subgraphs are compared: intra-request parallelism keeps
// them bit-identical while the work-counter telemetry legitimately varies
// with thread timing.
TEST(MinerSessionTest, IntraRequestParallelismKeepsMinedSubgraphsIdentical) {
  auto [g1, g2] = RandomSessionGraphs();

  // Reference: strictly sequential session (budget 1).
  SessionOptions sequential_options;
  sequential_options.max_parallelism = 1;
  Result<MinerSession> sequential =
      MinerSession::Create(g1, g2, sequential_options);
  ASSERT_TRUE(sequential.ok());

  // Parallel: budget 4, which Mine grants whole to the auto knob.
  SessionOptions parallel_options;
  parallel_options.max_parallelism = 4;
  Result<MinerSession> parallel =
      MinerSession::Create(g1, g2, parallel_options);
  ASSERT_TRUE(parallel.ok());

  std::vector<MiningRequest> requests(2);
  requests[0].measure = Measure::kGraphAffinity;
  requests[0].ga_solver.parallelism = 0;  // auto
  requests[1].measure = Measure::kBoth;
  requests[1].alpha = 2.0;
  requests[1].ga_solver.parallelism = 0;

  for (size_t i = 0; i < requests.size(); ++i) {
    Result<MiningResponse> expected = sequential->Mine(requests[i]);
    Result<MiningResponse> actual = parallel->Mine(requests[i]);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(::dcs::testing::SerializeSubgraphs(*actual),
              ::dcs::testing::SerializeSubgraphs(*expected))
        << "request #" << i;
    EXPECT_FALSE(actual->graph_affinity.empty()) << "request #" << i;
  }
}

TEST(MinerSessionTest, ExplicitIntraParallelismOnSingleMine) {
  auto [g1, g2] = RandomSessionGraphs();
  Result<MinerSession> sequential = MinerSession::Create(g1, g2);
  ASSERT_TRUE(sequential.ok());

  SessionOptions options;
  options.max_parallelism = 4;
  Result<MinerSession> parallel = MinerSession::Create(g1, g2, options);
  ASSERT_TRUE(parallel.ok());

  MiningRequest request;
  request.measure = Measure::kGraphAffinity;
  Result<MiningResponse> expected = sequential->Mine(request);
  ASSERT_TRUE(expected.ok());

  for (const uint32_t threads : {2u, 4u, 7u}) {
    MiningRequest parallel_request = request;
    parallel_request.ga_solver.parallelism = threads;
    Result<MiningResponse> actual = parallel->Mine(parallel_request);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(::dcs::testing::SerializeSubgraphs(*actual),
              ::dcs::testing::SerializeSubgraphs(*expected))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace dcs
