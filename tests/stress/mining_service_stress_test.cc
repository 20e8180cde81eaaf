// Stress harness for the async mining service (ctest label `stress`).
//
// The acceptance bar of the async surface: a run of ≥ 64 submitted jobs —
// mixed measures and pipelines, streaming updates fenced into the queue,
// random cancellations, submissions racing from several threads — completes
// with every finished job's affinity/support/embedding bit-identical to a
// synchronous reference solve of the same request against the same graph
// snapshot.

#include "api/mining_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/miner_session.h"
#include "api/pipeline_cache.h"
#include "core/dcs_greedy.h"
#include "gen/random_graphs.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dcs {
namespace {

using ::dcs::testing::MakeGraph;

MinerSession MustCreate(const Graph& g1, const Graph& g2,
                        SessionOptions options = {}) {
  Result<MinerSession> session = MinerSession::Create(g1, g2, options);
  DCS_CHECK(session.ok()) << session.status().ToString();
  return std::move(*session);
}

// The subgraph fields the determinism guarantee covers: affinity / support /
// embedding (and the DCSAD analogues), at full double precision.
std::string SerializeSubgraphs(const MiningResponse& response) {
  return ::dcs::testing::SerializeSubgraphs(response);
}

// A deterministic function of (rng) producing a mixed request.
MiningRequest RandomRequest(Rng* rng) {
  MiningRequest request;
  switch (rng->NextBounded(3)) {
    case 0:
      request.measure = Measure::kGraphAffinity;
      break;
    case 1:
      request.measure = Measure::kBoth;
      break;
    default:
      request.measure = Measure::kAverageDegree;
      break;
  }
  request.alpha = 1.0 + static_cast<double>(rng->NextBounded(3));
  request.flip = rng->NextBounded(4) == 0;
  request.top_k = rng->NextBounded(5) == 0 ? 2 : 1;
  request.ga_solver.parallelism = 0;  // auto: share the session budget
  return request;
}

std::pair<Graph, Graph> StressGraphs() {
  Rng rng(1729);
  Result<Graph> g2 = RandomSignedGraph(/*n=*/150, /*m=*/1200,
                                       /*positive_fraction=*/0.7,
                                       /*magnitude_lo=*/0.5,
                                       /*magnitude_hi=*/3.0, &rng);
  DCS_CHECK(g2.ok()) << g2.status().ToString();
  return {MakeGraph(150, {}), std::move(*g2)};
}

// Part 1 — the full acceptance scenario, single submitter so the fence
// order (and therefore each job's reference snapshot) is deterministic:
// 64 jobs, an update queued every 8th op, ~1 in 6 jobs randomly cancelled.
TEST(MiningServiceStressTest, MixedJobsUpdatesAndCancellationsStayExact) {
  const auto [g1, g2] = StressGraphs();
  constexpr size_t kJobs = 64;
  Rng rng(20180416);

  // Script the whole run up front so the reference replay sees the exact
  // same op sequence.
  std::vector<MiningRequest> requests;
  std::vector<bool> update_before;  // queue an update before job i?
  std::vector<bool> try_cancel;     // cancel job i after the submit burst?
  for (size_t i = 0; i < kJobs; ++i) {
    requests.push_back(RandomRequest(&rng));
    update_before.push_back(i % 8 == 5);
    try_cancel.push_back(rng.NextBounded(6) == 0);
  }
  auto update_edge = [](size_t i) {
    return std::pair<VertexId, VertexId>(static_cast<VertexId>(i),
                                         static_cast<VertexId>(i + 60));
  };

  // Reference: synchronous replay. Cancellation never touches session
  // state, so the replay ignores it — a cancelled job simply has no
  // response to compare.
  MinerSession reference = MustCreate(g1, g2);
  std::vector<std::string> expected;
  for (size_t i = 0; i < kJobs; ++i) {
    if (update_before[i]) {
      const auto [u, v] = update_edge(i);
      ASSERT_TRUE(reference.ApplyUpdate(UpdateSide::kG2, u, v, 2.5).ok());
    }
    Result<MiningResponse> mined = reference.Mine(requests[i]);
    ASSERT_TRUE(mined.ok()) << "reference job #" << i << ": "
                            << mined.status().ToString();
    expected.push_back(SerializeSubgraphs(*mined));
  }

  // The async run, on a session with a real thread budget so NewSEA solves
  // shard across the pool while the queue churns.
  SessionOptions session_options;
  session_options.max_parallelism = 4;
  MiningService service(MustCreate(g1, g2, session_options));
  size_t max_pending = 0;
  std::vector<JobId> ids;
  for (size_t i = 0; i < kJobs; ++i) {
    if (update_before[i]) {
      const auto [u, v] = update_edge(i);
      ASSERT_TRUE(service.ApplyUpdate(UpdateSide::kG2, u, v, 2.5).ok());
    }
    Result<JobId> id = service.Submit(requests[i]);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    max_pending = std::max(max_pending, service.num_pending_jobs());
  }
  // Random cancellations racing the executor: depending on timing each
  // victim is already done (no-op), running (token abort) or queued
  // (terminal immediately) — all three must leave the run consistent.
  for (size_t i = 0; i < kJobs; ++i) {
    if (try_cancel[i]) {
      ASSERT_TRUE(service.Cancel(ids[i]).ok());
    }
  }

  size_t done = 0;
  size_t cancelled = 0;
  for (size_t i = 0; i < kJobs; ++i) {
    Result<JobStatus> status = service.Wait(ids[i]);
    ASSERT_TRUE(status.ok());
    if (status->state == JobState::kCancelled) {
      EXPECT_TRUE(try_cancel[i]) << "job #" << i << " cancelled unasked";
      EXPECT_TRUE(status->response.graph_affinity.empty());
      EXPECT_TRUE(status->response.average_degree.empty());
      ++cancelled;
      continue;
    }
    ASSERT_EQ(status->state, JobState::kDone)
        << "job #" << i << ": " << status->failure.ToString();
    EXPECT_EQ(SerializeSubgraphs(status->response), expected[i])
        << "job #" << i << " diverged from its synchronous reference";
    ++done;
  }
  EXPECT_EQ(done + cancelled, kJobs);
  EXPECT_LE(cancelled, static_cast<size_t>(std::count(
                           try_cancel.begin(), try_cancel.end(), true)));
  // Submitting is instant while each solve takes real work, so the burst
  // genuinely backs up the queue — the stress ran concurrent jobs, it
  // didn't accidentally serialize submit → wait → submit.
  EXPECT_GT(max_pending, 1u);
}

// Part 2 — thread-safety of the submit surface: several submitter threads
// race Submit against one fixed snapshot (no updates), so every job's
// reference depends only on its request. All must finish bit-identical.
TEST(MiningServiceStressTest, ConcurrentSubmittersGetExactResults) {
  const auto [g1, g2] = StressGraphs();
  constexpr size_t kThreads = 4;
  constexpr size_t kJobsPerThread = 16;

  // Distinct request variants, references computed synchronously once.
  std::vector<MiningRequest> variants;
  for (size_t i = 0; i < 6; ++i) {
    MiningRequest request;
    request.measure = i % 2 == 0 ? Measure::kGraphAffinity : Measure::kBoth;
    request.alpha = 1.0 + static_cast<double>(i % 3);
    request.ga_solver.parallelism = 0;
    variants.push_back(request);
  }
  MinerSession reference = MustCreate(g1, g2);
  std::vector<std::string> expected;
  for (const MiningRequest& request : variants) {
    Result<MiningResponse> mined = reference.Mine(request);
    ASSERT_TRUE(mined.ok());
    expected.push_back(SerializeSubgraphs(*mined));
  }

  SessionOptions session_options;
  session_options.max_parallelism = 4;
  MiningService service(MustCreate(g1, g2, session_options));
  std::vector<std::vector<std::pair<JobId, size_t>>> submitted(kThreads);
  {
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        Rng rng(7000 + t);
        for (size_t i = 0; i < kJobsPerThread; ++i) {
          const size_t variant = rng.NextBounded(variants.size());
          Result<JobId> id = service.Submit(variants[variant]);
          DCS_CHECK(id.ok()) << id.status().ToString();
          submitted[t].push_back({*id, variant});
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
  }

  for (size_t t = 0; t < kThreads; ++t) {
    for (const auto& [id, variant] : submitted[t]) {
      Result<JobStatus> status = service.Wait(id);
      ASSERT_TRUE(status.ok());
      ASSERT_EQ(status->state, JobState::kDone);
      EXPECT_EQ(SerializeSubgraphs(status->response), expected[variant])
          << "submitter " << t << " job " << id;
    }
  }
  EXPECT_EQ(service.num_submitted(), kThreads * kJobsPerThread);
}

// Part 3 — the multi-tenant acceptance scenario: four tenants over distinct
// graph snapshots, each with its own scripted mix of jobs, fenced updates
// and cancellations, submitted from four racing threads (one per tenant)
// into a shared-pool, shared-cache, multi-executor service under priority
// churn. Every finished job must stay bit-identical to the tenant's
// synchronous replay — cross-tenant scheduling must never leak into
// results.
TEST(MiningServiceStressTest, MultiTenantMixedLoadStaysExactPerTenant) {
  constexpr size_t kTenants = 4;
  constexpr size_t kJobsPerTenant = 24;

  // Per-tenant graph pairs (distinct seeds → distinct snapshots).
  std::vector<std::pair<Graph, Graph>> pairs;
  for (size_t t = 0; t < kTenants; ++t) {
    Rng rng(5000 + t);
    Result<Graph> g2 = RandomSignedGraph(/*n=*/100, /*m=*/700,
                                         /*positive_fraction=*/0.7,
                                         /*magnitude_lo=*/0.5,
                                         /*magnitude_hi=*/3.0, &rng);
    ASSERT_TRUE(g2.ok());
    pairs.emplace_back(MakeGraph(100, {}), std::move(*g2));
  }

  // Scripts + synchronous references, per tenant.
  std::vector<std::vector<MiningRequest>> scripts(kTenants);
  std::vector<std::vector<bool>> update_before(kTenants);
  std::vector<std::vector<bool>> try_cancel(kTenants);
  std::vector<std::vector<std::string>> expected(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    Rng rng(9100 + t);
    MinerSession reference = MustCreate(pairs[t].first, pairs[t].second);
    for (size_t i = 0; i < kJobsPerTenant; ++i) {
      MiningRequest request = RandomRequest(&rng);
      request.priority = static_cast<int32_t>(rng.NextBounded(3)) - 1;
      scripts[t].push_back(request);
      update_before[t].push_back(i % 7 == 3);
      try_cancel[t].push_back(rng.NextBounded(8) == 0);
      if (update_before[t][i]) {
        ASSERT_TRUE(reference
                        .ApplyUpdate(UpdateSide::kG2,
                                     static_cast<VertexId>(i),
                                     static_cast<VertexId>(i + 40), 2.5)
                        .ok());
      }
      Result<MiningResponse> mined = reference.Mine(request);
      ASSERT_TRUE(mined.ok());
      expected[t].push_back(SerializeSubgraphs(*mined));
    }
  }

  MiningServiceOptions options;
  options.num_executors = 3;
  options.shared_cache = std::make_shared<PipelineCache>();
  options.worker_pool =
      std::make_shared<ThreadPool>(ThreadPool::DefaultConcurrency() - 1);
  MiningService service(options);
  for (auto& [g1, g2] : pairs) {
    Result<TenantId> tenant = service.AddTenant(MustCreate(g1, g2));
    ASSERT_TRUE(tenant.ok());
  }

  std::vector<std::vector<JobId>> ids(kTenants);
  {
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kTenants; ++t) {
      submitters.emplace_back([&, t] {
        for (size_t i = 0; i < kJobsPerTenant; ++i) {
          if (update_before[t][i]) {
            DCS_CHECK(service
                          .ApplyUpdate(static_cast<TenantId>(t),
                                       UpdateSide::kG2,
                                       static_cast<VertexId>(i),
                                       static_cast<VertexId>(i + 40), 2.5)
                          .ok());
          }
          Result<JobId> id =
              service.Submit(static_cast<TenantId>(t), scripts[t][i]);
          DCS_CHECK(id.ok()) << id.status().ToString();
          ids[t].push_back(*id);
          if (try_cancel[t][i]) {
            DCS_CHECK(service.Cancel(ids[t][i]).ok());
          }
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
  }

  for (size_t t = 0; t < kTenants; ++t) {
    size_t done = 0, cancelled = 0;
    for (size_t i = 0; i < kJobsPerTenant; ++i) {
      Result<JobStatus> status = service.Wait(ids[t][i]);
      ASSERT_TRUE(status.ok());
      EXPECT_EQ(status->tenant, t);
      if (status->state == JobState::kCancelled) {
        EXPECT_TRUE(try_cancel[t][i])
            << "tenant " << t << " job " << i << " cancelled unasked";
        ++cancelled;
        continue;
      }
      ASSERT_EQ(status->state, JobState::kDone)
          << "tenant " << t << " job " << i << ": "
          << status->failure.ToString();
      EXPECT_EQ(SerializeSubgraphs(status->response), expected[t][i])
          << "tenant " << t << " job " << i
          << " diverged from its synchronous reference";
      ++done;
    }
    EXPECT_EQ(done + cancelled, kJobsPerTenant);
    Result<TenantStats> stats = service.tenant_stats(static_cast<TenantId>(t));
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->submitted, kJobsPerTenant);
    EXPECT_EQ(stats->completed + stats->failed + stats->cancelled,
              kJobsPerTenant);
  }
}

// DCSGreedy's pooled peels under contention: three tenants on one shared
// pool submit average-degree and "both" jobs concurrently from three
// executors, on graphs above the pooled-peel crossover, and every answer
// must be bit-identical to a sequential session's.
TEST(MiningServiceStressTest, PooledAverageDegreeSolvesMatchSequentialSessions) {
  constexpr size_t kTenants = 3;
  constexpr size_t kJobsPerTenant = 16;

  std::vector<std::pair<Graph, Graph>> pairs;
  for (size_t t = 0; t < kTenants; ++t) {
    Rng rng(7300 + t);
    Result<Graph> g2 = RandomSignedGraph(/*n=*/900, /*m=*/2600,
                                         /*positive_fraction=*/0.6,
                                         /*magnitude_lo=*/0.5,
                                         /*magnitude_hi=*/3.0, &rng);
    ASSERT_TRUE(g2.ok());
    ASSERT_GE(g2->NumVertices() + g2->NumEdges(), kDcsGreedyPooledMinSize);
    pairs.emplace_back(MakeGraph(900, {}), std::move(*g2));
  }

  std::vector<std::vector<MiningRequest>> scripts(kTenants);
  std::vector<std::vector<std::string>> expected(kTenants);
  SessionOptions sequential;
  sequential.max_parallelism = 1;
  for (size_t t = 0; t < kTenants; ++t) {
    Rng rng(7400 + t);
    MinerSession reference =
        MustCreate(pairs[t].first, pairs[t].second, sequential);
    for (size_t i = 0; i < kJobsPerTenant; ++i) {
      MiningRequest request;
      request.measure =
          rng.NextBounded(2) == 0 ? Measure::kAverageDegree : Measure::kBoth;
      request.alpha = 1.0 + static_cast<double>(rng.NextBounded(3));
      request.flip = rng.NextBounded(3) == 0;
      request.ga_solver.parallelism = 0;
      scripts[t].push_back(request);
      Result<MiningResponse> mined = reference.Mine(request);
      ASSERT_TRUE(mined.ok());
      expected[t].push_back(SerializeSubgraphs(*mined));
    }
  }

  MiningServiceOptions options;
  options.num_executors = 3;
  options.shared_cache = std::make_shared<PipelineCache>();
  options.worker_pool = std::make_shared<ThreadPool>(
      std::max<size_t>(2, ThreadPool::DefaultConcurrency() - 1));
  MiningService service(options);
  SessionOptions pooled;
  pooled.max_parallelism = 4;
  for (auto& [g1, g2] : pairs) {
    ASSERT_TRUE(service.AddTenant(MustCreate(g1, g2, pooled)).ok());
  }

  std::vector<std::vector<JobId>> ids(kTenants);
  {
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kTenants; ++t) {
      submitters.emplace_back([&, t] {
        for (const MiningRequest& request : scripts[t]) {
          Result<JobId> id = service.Submit(static_cast<TenantId>(t), request);
          DCS_CHECK(id.ok()) << id.status().ToString();
          ids[t].push_back(*id);
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
  }
  for (size_t t = 0; t < kTenants; ++t) {
    for (size_t i = 0; i < kJobsPerTenant; ++i) {
      Result<JobStatus> status = service.Wait(ids[t][i]);
      ASSERT_TRUE(status.ok());
      ASSERT_EQ(status->state, JobState::kDone)
          << "tenant " << t << " job " << i << ": "
          << status->failure.ToString();
      ASSERT_FALSE(status->response.average_degree.empty());
      EXPECT_EQ(SerializeSubgraphs(status->response), expected[t][i])
          << "tenant " << t << " job " << i
          << " diverged from its sequential reference";
    }
  }
}

}  // namespace
}  // namespace dcs
