// cold_prepare: synchronous MinerSession::Mine calls on the DBLP-C analog,
// each on a pipeline key never used before, so every request misses the
// cache and the graph layer (difference merge, discretize, clamp, GD+) and
// the smart-init bounds do most of the work.

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "api/miner_session.h"
#include "workloads.h"

namespace dcs::e2e {

namespace {

// Fixed work: jobs = --seconds × this nominal rate.
constexpr double kNominalJobsPerS = 210.0;
constexpr double kClampCap = 3.0;
// job_tail_ms is a p98: windows of 500 jobs. A p90 would fall between the
// two latency modes of the clamp variant (the slowest 15 % of jobs take 7 to
// 10 ms, the rest under 4.5 ms), where the share of slow jobs a seed's
// graph gives moves it by a quarter; the p98 sits on the slow plateau.
constexpr size_t kTailWindowJobs = 500;

// Job j: α walks [0.8, 1.2) by the golden-ratio sequence — distinct for
// every job (so no key repeats), and evenly spread over any run of
// consecutive jobs, so the work per job does not drift through the run.
// The pipeline rotates between plain, Discrete and clamp-at-cap.
std::vector<MiningRequest> Requests(size_t jobs) {
  constexpr double kGoldenFraction = 0.61803398874989484820;
  std::vector<MiningRequest> out(jobs);
  for (size_t j = 0; j < jobs; ++j) {
    MiningRequest& r = out[j];
    r.measure = Measure::kGraphAffinity;
    const double step = static_cast<double>(j) * kGoldenFraction;
    r.alpha = 0.8 + 0.4 * (step - std::floor(step));
    if (j % 3 == 1) r.discretize = DiscretizeSpec{};
    if (j % 3 == 2) r.clamp_weights_above = kClampCap;
  }
  return out;
}

struct Phase : PhaseSnapshot {
  JobTimes times;
  std::vector<MiningResponse> responses;
};

Phase RunPhase(MinerSession* session, const std::vector<MiningRequest>& requests,
               SpanBuffer* spans) {
  Phase phase;
  phase.responses.reserve(requests.size());
  phase.Begin(*session->pipeline_cache());
  phase.times.begin_ns = phase.meter.begin_ns();
  for (size_t j = 0; j < requests.size(); ++j) {
    const int64_t t0 = NowNs();
    MiningResponse response = MustOk(session->Mine(requests[j]), "Mine");
    const int64_t t1 = NowNs();
    phase.times.Add(t0, t1);
    if (spans != nullptr) {
      // Mine is the job; inside it the session's own build/solve clocks,
      // the build first.
      const int32_t root = spans->Add("job", t0, t1, -1, j + 1);
      const int32_t mine = spans->Add("session.mine", t0, t1, root, j + 1);
      const MiningTelemetry& tm = response.telemetry;
      const int64_t built = t0 + static_cast<int64_t>(tm.build_seconds * 1e9);
      spans->Add("graph.prepare", t0, built, mine, j + 1);
      spans->Add("core.solve", built,
                 built + static_cast<int64_t>(tm.solve_seconds * 1e9), mine, j + 1);
    }
    phase.responses.push_back(std::move(response));
  }
  phase.End(*session->pipeline_cache());
  return phase;
}

}  // namespace

RunResult RunColdPrepare(const Args& args) {
  RunResult result;
  const size_t jobs = JobCount(args, kNominalJobsPerS, 30);
  const std::vector<MiningRequest> requests = Requests(jobs);
  const CoauthorData data = MakeDblpAnalog(args.seed * 1'000'003 + 17,
                                           args.short_mode ? 1500 : 12'000);
  const EdgePair edges = EdgesOf(data.g1, data.g2);

  // Reference answers from fresh sequential sessions, split over a few
  // threads (each with its own session) before anything is timed.
  std::vector<MiningResponse> expected(jobs);
  std::vector<std::string> canonical(jobs);
  {
    const size_t workers = std::min<size_t>(HardwareThreads(), 4);
    std::vector<std::thread> threads;
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        MinerSession reference = MustOk(MinerSession::Create(data.g1, data.g2),
                                        "reference session");
        for (size_t j = w; j < jobs; j += workers) {
          expected[j] = MustOk(reference.Mine(requests[j]), "reference Mine");
          if (args.perturb_reference && j == 0) PerturbAnswer(&expected[j]);
          canonical[j] = CanonicalAnswer(expected[j]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Set-up: BuildGraphFromEdges for both graphs and the session
  // construction; repeated before and after the measured phase, median
  // reported.
  const size_t setups = args.short_mode ? 3 : 15;
  std::vector<double> setup_s, from_edges_ms, create_ms;
  auto set_up = [&]() {
    std::unique_ptr<MinerSession> session;
    for (size_t i = 0; i < setups; ++i) {
      session.reset();
      double edges_ms = 0.0;
      const int64_t t0 = NowNs();
      auto [g1, g2] = BuildPair(edges, &edges_ms);
      const int64_t t1 = NowNs();
      session = std::make_unique<MinerSession>(MustOk(
          MinerSession::Create(std::move(g1), std::move(g2)), "MinerSession::Create"));
      const int64_t t2 = NowNs();
      setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
      from_edges_ms.push_back(edges_ms);
      create_ms.push_back(MsBetween(t1, t2));
    }
    return session;
  };

  uint64_t degenerate = 0;
  auto check = [&](const Phase& phase) {
    result.attempted += jobs;
    for (size_t j = 0; j < jobs; ++j) {
      const MiningResponse& r = phase.responses[j];
      if (CanonicalAnswer(r) != canonical[j]) {
        ++result.failed;
        static const char* const kVariants[] = {"plain", "discrete", "clamp"};
        result.notes.push_back("wrong answer: seed " + std::to_string(args.seed) +
                               " job " + std::to_string(j) + " variant " +
                               kVariants[j % 3] + " alpha " +
                               std::to_string(requests[j].alpha) + ": " +
                               FirstDifference(r, expected[j]));
      } else if (r.telemetry.reused_cached_difference ||
                 r.telemetry.initializations == 0) {
        ++degenerate;  // a cache hit or an empty seed loop
      }
    }
  };

  std::unique_ptr<MinerSession> session = set_up();
  ResetPeakRss();
  const Phase phase = RunPhase(session.get(), requests, nullptr);
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
    const Phase traced = RunPhase(session.get(), requests, &spans);
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
      other_ms.push_back(traced.times.latency_ms[j] -
                         (tm.build_seconds + tm.solve_seconds) * 1e3);
      inits += tm.initializations;
      pruned += tm.pruned_seeds;
      cd += tm.cd_iterations;
    }
    m.Set("session.build_ms", Median(build_ms), "ms");
    m.Set("session.solve_ms", Median(solve_ms), "ms");
    m.Set("session.other_ms", Median(other_ms), "ms");
    SetCacheMetrics(traced.cache_before, traced.cache_after, &m);

    // graph and core.newsea: rebuild the first jobs' pipelines through the
    // layers' public functions, solve them, and check the job answers.
    const size_t replayed = std::min<size_t>(jobs, 200);
    std::vector<double> diff_ms, disc_ms, clamp_ms, pos_ms, bounds_ms;
    GaSolveReplays solves;
    for (size_t j = 0; j < replayed; ++j) {
      const int64_t t0 = NowNs();
      const ReplayPipeline p = ReplayPrepare(data.g1, data.g2, requests[j]);
      diff_ms.push_back(p.difference_ms);
      if (requests[j].discretize) disc_ms.push_back(p.discretize_ms);
      if (requests[j].clamp_weights_above) clamp_ms.push_back(p.clamp_ms);
      pos_ms.push_back(p.positive_part_ms);
      bounds_ms.push_back(p.bounds_ms);
      spans.Add("graph.replay_prepare", t0, NowNs(), -1, j + 1);
      // The workload solves sequentially: no pool, the 1-thread base.
      solves.Replay(p, requests[j], nullptr,
                    TopOf(traced.responses[j].graph_affinity), j + 1, &spans);
    }
    if (solves.mismatches() != 0) {
      result.correct = false;
      result.notes.push_back("direct layer replays disagree with " +
                             std::to_string(solves.mismatches()) + " job answers");
    }
    m.Set("graph.difference_ms", Median(diff_ms), "ms");
    m.Set("graph.discretize_ms", Median(disc_ms), "ms");
    m.Set("graph.clamp_ms", Median(clamp_ms), "ms");
    m.Set("graph.positive_part_ms", Median(pos_ms), "ms");
    m.Set("newsea.bounds_ms", Median(bounds_ms), "ms");
    solves.SetMetrics(&m);
    SetNewseaCounters(inits, pruned, cd, jobs, &m);
    SetKernelMetrics(traced.kernels_before, traced.kernels_after, jobs, &m);
    SetTraceMetrics(spans, Median(traced.times.latency_ms),
                    JobsPerS(traced.times),
                    result.end_to_end.Get("jobs_per_s"), &m);
    result.notes.push_back(WriteChromeTrace(
        spans, args.work_root + "/traces/cold_prepare-seed" +
                   std::to_string(args.seed) + ".json"));
  }
  if (degenerate != 0) {
    result.correct = false;
    result.notes.push_back(std::to_string(degenerate) +
                           " jobs hit the cache or descended from no seed");
  }
  return result;
}

}  // namespace dcs::e2e
