// stream_refresh: the update→answer path a streaming user waits on. Each job
// applies a batch of 16 seeded updates spread over G1 and G2 (small enough
// to stay on the O(Δ) patch path, which republishes the cached pipeline)
// and then mines the affinity answer with the seed loop fanned out across
// the session's pool. The caller and the pool's nproc − 2 workers leave one
// hardware thread to the rest of the host: at nproc, one busy neighbour
// turned the slowest shard of every solve into a straggler.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/miner_session.h"
#include "graph/csr_patcher.h"
#include "util/rng.h"
#include "workloads.h"

namespace dcs::e2e {

namespace {

// Fixed work: jobs = --seconds × this nominal rate.
constexpr double kNominalJobsPerS = 32.0;
constexpr size_t kUpdatesPerJob = 16;
// job_tail_ms is a p90: windows of 100 jobs.
constexpr size_t kTailWindowJobs = 100;

struct Update {
  UpdateSide side;
  VertexId u;
  VertexId v;
  double delta;
};

MiningRequest Request() {
  MiningRequest r;
  r.measure = Measure::kGraphAffinity;
  r.ga_solver.parallelism = 0;
  return r;
}

// One batch per job. Every (side, pair) is updated at most once over the
// whole stream, so a weight is old + delta however the batches are grouped
// into flushes. Three in four updates re-weight an existing edge by up to
// ±50 % (never to zero); the rest add a new pair.
std::vector<std::vector<Update>> Batches(const KeywordData& data, size_t jobs,
                                         uint64_t seed) {
  Rng rng(seed);
  const VertexId n = data.g1.NumVertices();
  std::set<uint64_t> used[2];
  std::vector<std::vector<Update>> out(jobs);
  for (size_t j = 0; j < jobs; ++j) {
    while (out[j].size() < kUpdatesPerJob) {
      const int side = static_cast<int>(out[j].size() % 2);
      const Graph& g = side == 0 ? data.g1 : data.g2;
      VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      const bool reweight = out[j].size() % 4 != 3;
      if (reweight) {
        if (g.Degree(u) == 0) continue;
        const auto row = g.NeighborsOf(u);
        v = row[rng.NextBounded(row.size())].to;
      }
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      const double w = g.EdgeWeight(u, v);
      if (reweight ? w <= 0.0 : w != 0.0) continue;
      if (!used[side].insert(PackVertexPair(u, v)).second) continue;
      const double delta =
          reweight ? w * rng.Uniform(-0.5, 0.5) : rng.Uniform(0.05, 0.5);
      out[j].push_back(Update{side == 0 ? UpdateSide::kG1 : UpdateSide::kG2,
                              u, v, delta == 0.0 ? w / 4 : delta});
    }
  }
  return out;
}

struct Phase : PhaseSnapshot {
  JobTimes times;
  std::vector<MiningResponse> responses;
  uint64_t patches_before = 0, rebuilds_before = 0;
};

Phase RunPhase(MinerSession* session, const std::vector<std::vector<Update>>& batches,
               SpanBuffer* spans) {
  const MiningRequest request = Request();
  Phase phase;
  phase.patches_before = session->num_update_patches();
  phase.rebuilds_before = session->num_update_rebuilds();
  phase.Begin(*session->pipeline_cache());
  phase.times.begin_ns = phase.meter.begin_ns();
  std::vector<int64_t> update_ns(kUpdatesPerJob + 1);
  for (size_t j = 0; j < batches.size(); ++j) {
    for (size_t i = 0; i < batches[j].size(); ++i) {
      const Update& up = batches[j][i];
      update_ns[i] = NowNs();
      if (!session->ApplyUpdate(up.side, up.u, up.v, up.delta).ok()) {
        std::fprintf(stderr, "ApplyUpdate rejected a generated update\n");
        std::exit(1);
      }
    }
    const int64_t mine_start = NowNs();
    update_ns[batches[j].size()] = mine_start;
    MiningResponse response = MustOk(session->Mine(request), "Mine");
    const int64_t done = NowNs();
    phase.times.Add(update_ns[0], done);
    if (spans != nullptr) {
      // The updates, then Mine; inside Mine the flush/patch/republish comes
      // first and the session's build/solve clocks close it.
      const int32_t root = spans->Add("job", update_ns[0], done, -1, j + 1);
      for (size_t i = 0; i < batches[j].size(); ++i) {
        spans->Add("session.apply_update", update_ns[i], update_ns[i + 1], root,
                   j + 1);
      }
      const int32_t mine = spans->Add("session.mine", mine_start, done, root, j + 1);
      const MiningTelemetry& tm = response.telemetry;
      const int64_t solve_at = done - static_cast<int64_t>(tm.solve_seconds * 1e9);
      spans->Add("graph.prepare",
                 solve_at - static_cast<int64_t>(tm.build_seconds * 1e9), solve_at,
                 mine, j + 1);
      spans->Add("core.solve", solve_at, done, mine, j + 1);
    }
    phase.responses.push_back(std::move(response));
  }
  phase.End(*session->pipeline_cache());
  return phase;
}

// The patch the session applies for one side of a batch: absolute weights
// old + delta, sorted by packed pair.
std::vector<EdgePatch> SidePatches(const Graph& g, const std::vector<Update>& batch,
                                   UpdateSide side) {
  std::vector<EdgePatch> out;
  for (const Update& up : batch) {
    if (up.side == side) out.push_back(EdgePatch{up.u, up.v, g.EdgeWeight(up.u, up.v) + up.delta});
  }
  std::sort(out.begin(), out.end(), [](const EdgePatch& a, const EdgePatch& b) {
    return PackVertexPair(a.u, a.v) < PackVertexPair(b.u, b.v);
  });
  return out;
}

}  // namespace

RunResult RunStreamRefresh(const Args& args) {
  RunResult result;
  const unsigned threads = HardwareThreads();
  const size_t budget = threads > 1 ? threads - 1 : 1;  // caller + workers
  const size_t jobs = JobCount(args, kNominalJobsPerS, 12);
  const KeywordData data = MakeDmAnalog(args.seed * 1'000'003 + 1, args.short_mode);
  const EdgePair edges = EdgesOf(data.g1, data.g2);
  const std::vector<std::vector<Update>> batches =
      Batches(data, jobs, args.seed * 1'000'003 + 2);
  const MiningRequest request = Request();

  // Reference answers: fresh sequential sessions that take the full-rebuild
  // path for every batch (patch_rebuild_ratio = 0). Worker w replays every
  // batch and mines after jobs j ≡ w (mod workers).
  std::vector<MiningResponse> expected(jobs);
  std::vector<std::string> canonical(jobs);
  {
    const size_t workers = std::min<size_t>(threads, 4);
    std::vector<std::thread> replayers;
    for (size_t w = 0; w < workers; ++w) {
      replayers.emplace_back([&, w] {
        SessionOptions options;
        options.patch_rebuild_ratio = 0.0;
        options.max_parallelism = 1;
        MinerSession reference = MustOk(
            MinerSession::Create(data.g1, data.g2, options), "reference session");
        MiningRequest sequential = request;
        sequential.ga_solver.parallelism = 1;
        for (size_t j = 0; j < jobs; ++j) {
          for (const Update& up : batches[j]) {
            if (!reference.ApplyUpdate(up.side, up.u, up.v, up.delta).ok()) {
              std::fprintf(stderr, "reference ApplyUpdate failed\n");
              std::exit(1);
            }
          }
          if (j % workers != w) continue;
          expected[j] = MustOk(reference.Mine(sequential), "reference Mine");
          if (args.perturb_reference && j == 0) PerturbAnswer(&expected[j]);
          canonical[j] = CanonicalAnswer(expected[j]);
        }
      });
    }
    for (std::thread& t : replayers) t.join();
  }

  // Set-up: BuildGraphFromEdges for both graphs, pool and session
  // construction, and the priming Mine that prepares the pipeline every
  // later job patches; repeated before and after the measured phase, median
  // reported.
  std::shared_ptr<ThreadPool> pool;
  std::set<int> pool_tids;
  const size_t setups = args.short_mode ? 2 : 8;
  std::vector<double> setup_s, from_edges_ms, create_ms;
  auto set_up = [&]() {
    std::unique_ptr<MinerSession> session;
    for (size_t i = 0; i < setups; ++i) {
      session.reset();
      pool.reset();
      double edges_ms = 0.0;
      const int64_t t0 = NowNs();
      auto [g1, g2] = BuildPair(edges, &edges_ms);
      const int64_t t1 = NowNs();
      pool = MakePool(budget - 1, &pool_tids);
      SessionOptions options;
      options.max_parallelism = static_cast<uint32_t>(budget);
      options.worker_pool = pool;
      session = std::make_unique<MinerSession>(MustOk(
          MinerSession::Create(std::move(g1), std::move(g2), options),
          "MinerSession::Create"));
      const int64_t t2 = NowNs();
      MustOk(session->Mine(request), "priming Mine");
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      from_edges_ms.push_back(edges_ms);
      create_ms.push_back(MsBetween(t1, t2));
    }
    return session;
  };

  uint64_t degenerate = 0;
  auto check = [&](const Phase& phase) {
    result.attempted += jobs;
    for (size_t j = 0; j < jobs; ++j) {
      const MiningTelemetry& tm = phase.responses[j].telemetry;
      if (CanonicalAnswer(phase.responses[j]) != canonical[j]) {
        ++result.failed;
        result.notes.push_back("wrong answer: seed " + std::to_string(args.seed) +
                               " job " + std::to_string(j) + ": " +
                               FirstDifference(phase.responses[j], expected[j]));
      } else if (tm.update_patches != phase.patches_before + j + 1 ||
                 tm.update_rebuilds != phase.rebuilds_before ||
                 tm.initializations == 0) {
        ++degenerate;  // left the patch path, or an empty seed loop
      }
    }
  };

  std::unique_ptr<MinerSession> session = set_up();
  ResetPeakRss();
  const Phase phase = RunPhase(session.get(), batches, nullptr);
  const double peak_rss = PeakRssMb();
  check(phase);
  SetPhaseMetrics(phase.times, phase.meter, kTailWindowJobs, &result);
  session.reset();
  set_up();
  result.end_to_end.Set("setup_s", Median(setup_s), "s");
  result.end_to_end.Set("peak_rss_mb", peak_rss, "MB");

  if (args.trace) {
    SpanBuffer spans(0);
    session = set_up();
    const Phase traced = RunPhase(session.get(), batches, &spans);
    check(traced);
    Metrics& m = result.per_layer;
    SetHostMetrics(traced.meter, &m);
    m.Set("session.create_ms", Median(create_ms), "ms");
    m.Set("graph.from_edges_ms", Median(from_edges_ms) / 2, "ms");

    std::vector<double> build_ms, solve_ms, other_ms;
    uint64_t inits = 0, pruned = 0, cd = 0;
    for (size_t j = 0; j < jobs; ++j) {
      const MiningTelemetry& tm = traced.responses[j].telemetry;
      build_ms.push_back(tm.build_seconds * 1e3);
      solve_ms.push_back(tm.solve_seconds * 1e3);
      inits += tm.initializations;
      pruned += tm.pruned_seeds;
      cd += tm.cd_iterations;
    }
    // session.other_ms: Mine wall minus build and solve (flush, patch,
    // republish), from the spans recorded around Mine.
    for (const Span& s : spans.spans()) {
      if (std::string_view(s.name) != "session.mine") continue;
      const MiningTelemetry& tm = traced.responses[s.job - 1].telemetry;
      other_ms.push_back(MsBetween(s.start_ns, s.end_ns) -
                         (tm.build_seconds + tm.solve_seconds) * 1e3);
    }
    const MiningTelemetry& last = traced.responses.back().telemetry;
    m.Set("session.build_ms", Median(build_ms), "ms");
    m.Set("session.solve_ms", Median(solve_ms), "ms");
    m.Set("session.other_ms", Median(other_ms), "ms");
    m.Set("session.update_patches",
          static_cast<double>(last.update_patches - traced.patches_before), "count");
    m.Set("session.update_rebuilds",
          static_cast<double>(last.update_rebuilds - traced.rebuilds_before), "count");
    SetCacheMetrics(traced.cache_before, traced.cache_after, &m);

    // graph.patch and core.newsea: patch the benchmark's own copies of the
    // graphs batch by batch with CsrPatcher, re-derive the first jobs'
    // pipelines from them, solve, and check the job answers.
    const size_t replayed = std::min<size_t>(jobs, 40);
    const double zero_eps = SessionOptions{}.zero_eps;
    Graph g1 = data.g1;
    Graph g2 = data.g2;
    std::vector<double> patch_ms;
    GaSolveReplays solves;
    for (size_t j = 0; j < jobs; ++j) {
      const std::vector<EdgePatch> p1 = SidePatches(g1, batches[j], UpdateSide::kG1);
      const std::vector<EdgePatch> p2 = SidePatches(g2, batches[j], UpdateSide::kG2);
      const int64_t t0 = NowNs();
      g1 = CsrPatcher::Apply(g1, p1, zero_eps);
      g2 = CsrPatcher::Apply(g2, p2, zero_eps);
      const int64_t t1 = NowNs();
      spans.Add("graph.patch", t0, t1, -1, j + 1);
      patch_ms.push_back(MsBetween(t0, t1));
      if (j >= replayed) continue;
      const std::string differs =
          solves.Replay(ReplayPrepare(g1, g2, request), request, pool.get(),
                        TopOf(traced.responses[j].graph_affinity), j + 1, &spans);
      if (!differs.empty()) {
        result.notes.push_back("direct RunNewSea disagrees with the job: seed " +
                               std::to_string(args.seed) + " job " +
                               std::to_string(j) + " (" + differs + ")");
      }
    }
    if (solves.mismatches() != 0) {
      result.correct = false;
      result.notes.push_back("direct layer replays disagree with " +
                             std::to_string(solves.mismatches()) + " job answers");
    }
    m.Set("graph.patch_ms", Median(patch_ms), "ms");
    solves.SetMetrics(&m);
    SetNewseaCounters(inits, pruned, cd, jobs, &m);
    SetKernelMetrics(traced.kernels_before, traced.kernels_after, jobs, &m);
    SetPoolCpuMetric(traced.meter, pool_tids, jobs, &m);
    m.Set("pool.dispatch_us",
          PoolDispatchUs(pool.get(), std::min<size_t>(budget, pool->concurrency()), 2000),
          "us");
    SetTraceMetrics(spans, Median(traced.times.latency_ms),
                    JobsPerS(traced.times),
                    result.end_to_end.Get("jobs_per_s"), &m);
    result.notes.push_back(WriteChromeTrace(
        spans, args.work_root + "/traces/stream_refresh-seed" +
                   std::to_string(args.seed) + ".json"));
  }
  if (degenerate != 0) {
    result.correct = false;
    result.notes.push_back(std::to_string(degenerate) +
                           " jobs left the patch path or descended from no seed");
  }
  return result;
}

}  // namespace dcs::e2e
