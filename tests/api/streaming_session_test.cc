// Streaming mining through MinerSession::CreateStreaming: update
// validation, alpha scaling, cancellation to zero, lazy snapshot rebuilds,
// warm-started DCSGA tracking a story as it emerges and drifts, and the
// streamed DCSAD answer against the batch pipeline.

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "api/miner_session.h"
#include "api/mining.h"
#include "core/dcs_greedy.h"
#include "gen/random_graphs.h"
#include "graph/difference.h"
#include "graph/graph_builder.h"
#include "test_util.h"
#include "util/rng.h"

namespace dcs {
namespace {

MinerSession Streaming(VertexId num_vertices) {
  Result<MinerSession> session = MinerSession::CreateStreaming(num_vertices);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(*session);
}

// The top warm-started DCSGA answer, as the streaming monitor example asks.
RankedSubgraph MineAffinity(MinerSession* session) {
  MiningRequest request;
  request.measure = Measure::kGraphAffinity;
  request.warm_start = true;
  Result<MiningResponse> response = session->Mine(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok() || response->graph_affinity.empty()) return {};
  return response->graph_affinity.front();
}

RankedSubgraph MineAverageDegree(MinerSession* session) {
  MiningRequest request;
  request.measure = Measure::kAverageDegree;
  Result<MiningResponse> response = session->Mine(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok() || response->average_degree.empty()) return {};
  return response->average_degree.front();
}

TEST(StreamingTest, RejectsBadUpdates) {
  MinerSession session = Streaming(4);
  EXPECT_TRUE(session.ApplyUpdate(UpdateSide::kG2, 1, 1, 1.0)
                  .IsInvalidArgument());
  EXPECT_EQ(session.ApplyUpdate(UpdateSide::kG2, 0, 9, 1.0).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(session
                  .ApplyUpdate(UpdateSide::kG1, 0, 1,
                               std::numeric_limits<double>::infinity())
                  .IsInvalidArgument());
  EXPECT_EQ(session.num_updates(), 0u);
}

TEST(StreamingTest, UpdatesMatchBatchDifference) {
  // Feed the Fig. 1 graphs as a stream and compare against the batch build.
  Graph g1 = ::dcs::testing::Fig1G1();
  Graph g2 = ::dcs::testing::Fig1G2();
  MinerSession session = Streaming(5);
  for (const Edge& e : g1.UndirectedEdges()) {
    ASSERT_TRUE(session.ApplyUpdate(UpdateSide::kG1, e.u, e.v, e.weight).ok());
  }
  for (const Edge& e : g2.UndirectedEdges()) {
    ASSERT_TRUE(session.ApplyUpdate(UpdateSide::kG2, e.u, e.v, e.weight).ok());
  }
  auto snapshot = session.DifferenceSnapshot();
  ASSERT_TRUE(snapshot.ok());
  auto batch = BuildDifferenceGraph(g1, g2);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(snapshot->UndirectedEdges(), batch->UndirectedEdges());
}

TEST(StreamingTest, AlphaScalingApplied) {
  MinerSession session = Streaming(3);
  ASSERT_TRUE(session.ApplyUpdate(UpdateSide::kG1, 0, 1, 2.0).ok());
  ASSERT_TRUE(session.ApplyUpdate(UpdateSide::kG2, 0, 1, 5.0).ok());
  auto snapshot = session.DifferenceSnapshot(/*alpha=*/2.0);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_DOUBLE_EQ(snapshot->EdgeWeight(0, 1), 1.0);  // 5 − 2·2
}

TEST(StreamingTest, CancellingUpdatesRemoveEdge) {
  MinerSession session = Streaming(3);
  ASSERT_TRUE(session.ApplyUpdate(UpdateSide::kG2, 0, 1, 3.0).ok());
  ASSERT_TRUE(session.ApplyUpdate(UpdateSide::kG2, 0, 1, -3.0).ok());
  auto snapshot = session.DifferenceSnapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->NumEdges(), 0u);
}

TEST(StreamingTest, SnapshotRebuildsLazily) {
  MinerSession session = Streaming(3);
  ASSERT_TRUE(session.ApplyUpdate(UpdateSide::kG2, 0, 1, 1.0).ok());
  ASSERT_TRUE(session.DifferenceSnapshot().ok());
  ASSERT_TRUE(session.DifferenceSnapshot().ok());
  EXPECT_EQ(session.num_rebuilds(), 1u);  // second call reused the snapshot
  ASSERT_TRUE(session.ApplyUpdate(UpdateSide::kG2, 1, 2, 1.0).ok());
  ASSERT_TRUE(session.DifferenceSnapshot().ok());
  EXPECT_EQ(session.num_rebuilds(), 2u);
}

TEST(StreamingTest, DetectsEmergingStory) {
  // A clique's weight builds up over three "time steps"; the warm-started
  // affinity DCS locks onto it once it dominates.
  Rng rng(77);
  const VertexId n = 100;
  MinerSession session = Streaming(n);
  // Background chatter on both sides.
  auto background = ErdosRenyiWeighted(n, 0.05, 0.2, 1.0, &rng);
  ASSERT_TRUE(background.ok());
  for (const Edge& e : background->UndirectedEdges()) {
    ASSERT_TRUE(session.ApplyUpdate(UpdateSide::kG1, e.u, e.v, e.weight).ok());
    ASSERT_TRUE(session.ApplyUpdate(UpdateSide::kG2, e.u, e.v,
                                    e.weight * 0.9).ok());
  }
  const std::vector<VertexId> story{10, 20, 30, 40};
  double last_affinity = 0.0;
  for (int step = 0; step < 3; ++step) {
    for (size_t i = 0; i < story.size(); ++i) {
      for (size_t j = i + 1; j < story.size(); ++j) {
        ASSERT_TRUE(
            session.ApplyUpdate(UpdateSide::kG2, story[i], story[j], 2.0)
                .ok());
      }
    }
    const RankedSubgraph best = MineAffinity(&session);
    EXPECT_GE(best.value, last_affinity);
    last_affinity = best.value;
  }
  EXPECT_EQ(MineAffinity(&session).vertices, story);
  // Average-degree view agrees.
  EXPECT_EQ(MineAverageDegree(&session).vertices, story);
}

TEST(StreamingTest, WarmStartTracksDriftingStory) {
  // Build a strong clique, query, then strengthen an overlapping clique;
  // the warm-started query must follow the drift (the warm answer replaces
  // the fresh NewSEA answer only when it strictly beats it).
  const VertexId n = 30;
  MinerSession session = Streaming(n);
  const std::vector<VertexId> old_story{1, 2, 3};
  const std::vector<VertexId> new_story{3, 4, 5, 6};
  for (size_t i = 0; i < old_story.size(); ++i) {
    for (size_t j = i + 1; j < old_story.size(); ++j) {
      ASSERT_TRUE(session
                      .ApplyUpdate(UpdateSide::kG2, old_story[i],
                                   old_story[j], 5.0)
                      .ok());
    }
  }
  EXPECT_EQ(MineAffinity(&session).vertices, old_story);
  for (size_t i = 0; i < new_story.size(); ++i) {
    for (size_t j = i + 1; j < new_story.size(); ++j) {
      ASSERT_TRUE(session
                      .ApplyUpdate(UpdateSide::kG2, new_story[i],
                                   new_story[j], 8.0)
                      .ok());
    }
  }
  EXPECT_EQ(MineAffinity(&session).vertices, new_story);
}

TEST(StreamingTest, MatchesBatchPipelineOnRandomStream) {
  Rng rng(99);
  const VertexId n = 60;
  MinerSession session = Streaming(n);
  GraphBuilder builder1(n), builder2(n);
  for (int update = 0; update < 400; ++update) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n - 1));
    if (v >= u) ++v;
    const double w = rng.Uniform(0.1, 3.0);
    if (rng.Bernoulli(0.5)) {
      ASSERT_TRUE(session.ApplyUpdate(UpdateSide::kG1, u, v, w).ok());
      ASSERT_TRUE(builder1.AddEdge(u, v, w).ok());
    } else {
      ASSERT_TRUE(session.ApplyUpdate(UpdateSide::kG2, u, v, w).ok());
      ASSERT_TRUE(builder2.AddEdge(u, v, w).ok());
    }
  }
  auto g1 = builder1.Build();
  auto g2 = builder2.Build();
  ASSERT_TRUE(g1.ok() && g2.ok());
  auto batch_gd = BuildDifferenceGraph(*g1, *g2);
  ASSERT_TRUE(batch_gd.ok());
  auto batch_ad = RunDcsGreedy(*batch_gd);
  ASSERT_TRUE(batch_ad.ok());
  const RankedSubgraph streaming_ad = MineAverageDegree(&session);
  EXPECT_EQ(streaming_ad.vertices, batch_ad->subset);
  EXPECT_NEAR(streaming_ad.value, batch_ad->density, 1e-9);
}

}  // namespace
}  // namespace dcs
