// serve_mixed: a journaled, multi-tenant MiningService under closed-loop
// load from one client per tenant. Every pipeline is a warm-booted cache
// hit, so the service layers (admission, journal, scheduling, queue wait)
// and the two solvers do the work.
//
// One executor on a pool of nproc − 2 workers: the four clients keep it
// always busy, so its figures follow the cost of a job, not thread wake-ups
// (two executors sharing one pool flipped between two throughput levels from
// run to run), and busy library threads stay at nproc − 1.

#include <algorithm>
#include <cstdio>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/artifact_store.h"
#include "api/job_journal.h"
#include "api/miner_session.h"
#include "api/mining_service.h"
#include "api/pipeline_cache.h"
#include "workloads.h"

namespace dcs::e2e {

namespace {

constexpr size_t kTenants = 4;
constexpr uint32_t kWeights[kTenants] = {3, 1, 1, 1};
constexpr size_t kVariants = 4;
// Fixed work: jobs = --seconds × this nominal rate (rounded to whole rounds
// of the four clients), so every commit in a comparison runs the same jobs.
constexpr double kNominalJobsPerS = 400.0;
// job_tail_ms is a p90: windows of 100 jobs, 80 windows in a 20 s run. Its
// interquartile mean follows the whole run, not the few windows a burst of
// steal from the rest of the host falls in.
constexpr size_t kTailWindowJobs = 100;

// {GA α=1, AD α=1, both α=2, GA flipped}, all with automatic seed sharding.
std::vector<MiningRequest> Variants() {
  std::vector<MiningRequest> v(kVariants);
  v[0].measure = Measure::kGraphAffinity;
  v[1].measure = Measure::kAverageDegree;
  v[2].measure = Measure::kBoth;
  v[2].alpha = 2.0;
  v[3].measure = Measure::kGraphAffinity;
  v[3].flip = true;
  for (MiningRequest& request : v) request.ga_solver.parallelism = 0;
  return v;
}

bool WantsGa(const MiningRequest& r) { return r.measure != Measure::kAverageDegree; }
bool WantsAd(const MiningRequest& r) { return r.measure != Measure::kGraphAffinity; }

struct JobRecord {
  uint32_t tenant = 0;
  uint32_t variant = 0;
  bool admitted = false;
  JobId id = 0;
  JobState state = JobState::kQueued;
  int64_t submit_ns = 0;   // Submit called
  int64_t submitted_ns = 0;  // Submit returned
  int64_t done_ns = 0;     // Wait returned
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  std::string failure;  // Submit/Wait error or the job's failure status
  MiningResponse response;
};

// One service with everything it serves with.
struct Rig {
  std::shared_ptr<ArtifactStore> store;
  std::shared_ptr<PipelineCache> cache;
  std::shared_ptr<ThreadPool> pool;
  std::set<int> pool_tids;
  std::unique_ptr<MiningService> service;
};

// What one set-up cost, by step.
struct SetUpTimes {
  double seconds = 0.0;
  double from_edges_ms = 0.0;
  double create_ms = 0.0;
};

// The timed set-up, from the first library call to ready for the first job:
// BuildGraphFromEdges for every tenant's graphs, store open, service
// construction (which opens the journal), session construction and tenant
// registration (which warm-boots the cache from the store).
Rig SetUp(const std::vector<EdgePair>& edges, const std::string& store_path,
          const std::string& journal_path, size_t pool_workers,
          SpanBuffer* spans, SetUpTimes* times) {
  Rig rig;
  const int64_t t0 = NowNs();
  std::vector<std::pair<Graph, Graph>> graphs;
  for (const EdgePair& pair : edges) {
    graphs.push_back(BuildPair(pair, &times->from_edges_ms));
  }
  const int64_t t1 = NowNs();
  rig.store = MustOk(ArtifactStore::Open(store_path), "ArtifactStore::Open");
  const int64_t t2 = NowNs();
  MiningServiceOptions options;
  options.num_executors = 1;
  options.shared_cache = rig.cache = std::make_shared<PipelineCache>();
  options.worker_pool = rig.pool = MakePool(pool_workers, &rig.pool_tids);
  options.artifact_store = rig.store;
  options.journal_path = journal_path;
  rig.service = std::make_unique<MiningService>(options);
  const int64_t t3 = NowNs();
  if (spans != nullptr) {
    spans->Add("graph.from_edges", t0, t1, -1, 0);
    spans->Add("store.open", t1, t2, -1, 0);
    spans->Add("service.create", t2, t3, -1, 0);
  }
  SessionOptions session_options;
  session_options.max_parallelism = static_cast<uint32_t>(pool_workers + 1);
  for (size_t t = 0; t < graphs.size(); ++t) {
    const int64_t c0 = NowNs();
    MinerSession session = MustOk(
        MinerSession::Create(std::move(graphs[t].first),
                             std::move(graphs[t].second), session_options),
        "MinerSession::Create");
    const int64_t c1 = NowNs();
    MustOk(rig.service->AddTenant(std::move(session),
                                  TenantOptions{.weight = kWeights[t]}),
           "AddTenant");
    times->create_ms += MsBetween(c0, c1);
    if (spans != nullptr) {
      spans->Add("session.create", c0, c1, -1, 0);
      spans->Add("service.add_tenant", c1, NowNs(), -1, 0);
    }
  }
  times->seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return rig;
}

struct Phase : PhaseSnapshot {
  std::vector<JobRecord> jobs;  // client-major: client t owns [t*per, (t+1)*per)
  JobJournalStats journal_before, journal_after;
};

Phase RunPhase(const Rig& rig, const std::vector<MiningRequest>& variants,
               size_t jobs_per_client, bool traced, SpanBuffer* spans) {
  Phase phase;
  phase.jobs.resize(kTenants * jobs_per_client);
  std::vector<SpanBuffer> buffers;
  for (size_t t = 0; t < kTenants; ++t) buffers.emplace_back(t + 1);
  phase.journal_before = MustOk(rig.service->journal_stats(), "journal_stats");
  std::latch start(kTenants + 1);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      SpanBuffer& buf = buffers[t];
      start.arrive_and_wait();
      for (size_t i = 0; i < jobs_per_client; ++i) {
        JobRecord& job = phase.jobs[t * jobs_per_client + i];
        job.tenant = static_cast<uint32_t>(t);
        job.variant = static_cast<uint32_t>((i + t) % kVariants);
        job.submit_ns = NowNs();
        Result<JobId> id = rig.service->Submit(static_cast<TenantId>(t),
                                               variants[job.variant]);
        job.submitted_ns = NowNs();
        if (!id.ok()) {
          job.done_ns = job.submitted_ns;
          job.failure = id.status().ToString();
          continue;
        }
        job.admitted = true;
        job.id = *id;
        Result<JobStatus> status = rig.service->Wait(*id);
        job.done_ns = NowNs();
        if (!status.ok()) {
          job.failure = status.status().ToString();
          continue;
        }
        job.state = status->state;
        if (job.state != JobState::kDone) job.failure = status->failure.ToString();
        job.queue_seconds = status->queue_seconds;
        job.run_seconds = status->run_seconds;
        job.response = std::move(status->response);
        if (!traced) continue;
        // The job's tree: Submit and Wait around the library calls, and
        // inside Wait the service's own queue/run clocks and the session's
        // build/solve split, laid end to end.
        const int32_t root =
            buf.Add("job", job.submit_ns, job.done_ns, -1, job.id);
        buf.Add("service.submit", job.submit_ns, job.submitted_ns, root, job.id);
        const int32_t wait =
            buf.Add("service.wait", job.submitted_ns, job.done_ns, root, job.id);
        const int64_t queued_until = std::min<int64_t>(
            job.done_ns,
            job.submitted_ns + static_cast<int64_t>(job.queue_seconds * 1e9));
        buf.Add("service.queue", job.submitted_ns, queued_until, wait, job.id);
        const int64_t ran_until = std::min<int64_t>(
            job.done_ns, queued_until + static_cast<int64_t>(job.run_seconds * 1e9));
        const int32_t mine =
            buf.Add("session.mine", queued_until, ran_until, wait, job.id);
        const MiningTelemetry& tm = job.response.telemetry;
        const int64_t built_at =
            queued_until + static_cast<int64_t>(tm.build_seconds * 1e9);
        buf.Add("graph.prepare", queued_until, built_at, mine, job.id);
        buf.Add("core.solve", built_at,
                built_at + static_cast<int64_t>(tm.solve_seconds * 1e9), mine,
                job.id);
      }
    });
  }
  phase.Begin(*rig.cache);
  start.arrive_and_wait();
  for (std::thread& c : clients) c.join();
  phase.End(*rig.cache);
  phase.journal_after = MustOk(rig.service->journal_stats(), "journal_stats");
  if (spans != nullptr) {
    for (SpanBuffer& buf : buffers) spans->Absorb(std::move(buf));
  }
  return phase;
}

// The i-th of `replayed` jobs spread evenly over `total` (jobs are stored
// client-major, so the first ones would all be one tenant's).
size_t ReplayIndex(size_t i, size_t replayed, size_t total) {
  return i * total / replayed;
}

JobTimes Times(const Phase& phase) {
  JobTimes times;
  times.begin_ns = phase.meter.begin_ns();
  for (const JobRecord& job : phase.jobs) times.Add(job.submit_ns, job.done_ns);
  return times;
}

// The reference answer of each (tenant, variant) and its canonical image.
struct Expected {
  MiningResponse response;
  std::string canonical;
};

// Wrong, refused or unfinished jobs, each described in `notes` (every wrong
// answer with its seed, tenant, variant and value bits; the first few of
// other failures); also counts GA jobs that descended from no seed (a
// degenerate workload).
uint64_t CountFailures(const Phase& phase, uint64_t seed,
                       const std::vector<MiningRequest>& variants,
                       const std::vector<std::vector<Expected>>& expected,
                       uint64_t* degenerate, std::vector<std::string>* notes) {
  uint64_t failed = 0;
  uint64_t other = 0;
  for (const JobRecord& job : phase.jobs) {
    const Expected& want = expected[job.tenant][job.variant];
    std::string why;
    if (!job.admitted) {
      why = "refused at Submit: " + job.failure;
    } else if (job.state != JobState::kDone) {
      why = std::string("ended ") + JobStateToString(job.state) + ": " + job.failure;
    } else if (CanonicalAnswer(job.response) != want.canonical) {
      ++failed;
      notes->push_back("wrong answer: seed " + std::to_string(seed) + " tenant " +
                       std::to_string(job.tenant) + " variant " +
                       std::to_string(job.variant) + " job " +
                       std::to_string(job.id) + ": " +
                       FirstDifference(job.response, want.response));
      continue;
    } else if (WantsGa(variants[job.variant]) &&
               job.response.telemetry.initializations == 0) {
      ++*degenerate;
    }
    if (why.empty()) continue;
    ++failed;
    if (++other <= 3) {
      notes->push_back("job " + std::to_string(job.id) + " (tenant " +
                       std::to_string(job.tenant) + ", variant " +
                       std::to_string(job.variant) + "): " + why);
    }
  }
  return failed;
}

}  // namespace

RunResult RunServeMixed(const Args& args) {
  RunResult result;
  const unsigned threads = HardwareThreads();
  const size_t per_client = static_cast<size_t>(
      (JobCount(args, kNominalJobsPerS, 48) + kTenants - 1) / kTenants);
  const size_t pool_workers = threads > 2 ? threads - 2 : 0;
  const std::vector<MiningRequest> variants = Variants();

  std::vector<CoauthorData> data;
  std::vector<EdgePair> edges;
  for (size_t t = 0; t < kTenants; ++t) {
    data.push_back(MakeDblpAnalog(args.seed * 1'000'003 + 31 * t,
                                  args.short_mode ? 500 : 4000));
    edges.push_back(EdgesOf(data[t].g1, data[t].g2));
  }

  // Reference answers: fresh sequential sessions, before anything is timed.
  std::vector<std::vector<Expected>> expected(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    MinerSession reference =
        MustOk(MinerSession::Create(data[t].g1, data[t].g2), "reference session");
    for (size_t v = 0; v < kVariants; ++v) {
      MiningRequest request = variants[v];
      request.ga_solver.parallelism = 1;
      MiningResponse answer = MustOk(reference.Mine(request), "reference Mine");
      if (args.perturb_reference && t == 0 && v == 0) PerturbAnswer(&answer);
      std::string canonical = CanonicalAnswer(answer);
      expected[t].push_back(Expected{std::move(answer), std::move(canonical)});
    }
  }

  TempDir tmp(args.work_root);
  result.notes.push_back(tmp.Describe());
  const std::string store_path = tmp.File("store.dcs");
  {
    // Untimed pre-pass: write every pipeline the clients will ask for.
    std::shared_ptr<ArtifactStore> store =
        MustOk(ArtifactStore::Open(store_path), "ArtifactStore::Open");
    for (size_t t = 0; t < kTenants; ++t) {
      SessionOptions options;
      options.artifact_store = store;
      MinerSession session = MustOk(
          MinerSession::Create(data[t].g1, data[t].g2, options), "pre-pass session");
      for (const MiningRequest& request : variants) {
        MustOk(session.Mine(request), "pre-pass Mine");
      }
    }
    if (!store->Flush().ok()) {
      std::fprintf(stderr, "store write-back failed in the pre-pass\n");
      std::exit(1);
    }
  }

  // Set up several times and keep the last service; setup_s is the median
  // of set-ups before and after the measured phase. Each set-up opens a
  // journal of its own.
  const size_t setups = args.short_mode ? 2 : 8;
  int journal_seq = 0;
  std::vector<SetUpTimes> setup_times;
  auto set_up = [&](SpanBuffer* spans) {
    Rig rig;
    for (size_t i = 0; i < setups; ++i) {
      rig = Rig{};  // tear the previous service down outside the clock
      SetUpTimes times;
      rig = SetUp(edges, store_path,
                  tmp.File("journal-" + std::to_string(journal_seq++) + ".log"),
                  pool_workers, i + 1 == setups ? spans : nullptr, &times);
      setup_times.push_back(times);
    }
    return rig;
  };
  auto setup_median = [&](double SetUpTimes::*field) {
    std::vector<double> samples;
    for (const SetUpTimes& t : setup_times) samples.push_back(t.*field);
    return Median(samples);
  };

  Rig rig = set_up(nullptr);
  ResetPeakRss();
  Phase phase = RunPhase(rig, variants, per_client, /*traced=*/false, nullptr);
  const double peak_rss = PeakRssMb();
  uint64_t degenerate = 0;
  result.attempted = phase.jobs.size();
  result.failed = CountFailures(phase, args.seed, variants, expected, &degenerate,
                                &result.notes);
  SetPhaseMetrics(Times(phase), phase.meter, kTailWindowJobs, &result);
  rig = Rig{};
  set_up(nullptr);
  result.end_to_end.Set("setup_s", setup_median(&SetUpTimes::seconds), "s");
  result.end_to_end.Set("peak_rss_mb", peak_rss, "MB");
  const double untraced_jobs_per_s = result.end_to_end.Get("jobs_per_s");

  if (args.trace) {
    rig = Rig{};
    SpanBuffer spans(0);
    setup_times.clear();
    rig = set_up(&spans);
    Phase traced = RunPhase(rig, variants, per_client, /*traced=*/true, &spans);
    result.attempted += traced.jobs.size();
    result.failed += CountFailures(traced, args.seed, variants, expected,
                                   &degenerate, &result.notes);
    const JobTimes times = Times(traced);
    Metrics& m = result.per_layer;
    const double n = static_cast<double>(traced.jobs.size());
    SetHostMetrics(traced.meter, &m);
    m.Set("session.create_ms", setup_median(&SetUpTimes::create_ms) / kTenants, "ms");
    m.Set("graph.from_edges_ms", setup_median(&SetUpTimes::from_edges_ms) / (2 * kTenants),
          "ms");

    // api.service
    std::vector<double> submit_us, queue_ms, run_ms, build_ms, solve_ms, other_ms;
    uint64_t refused = 0, failed_jobs = 0;
    uint64_t ga_jobs = 0, inits = 0, pruned = 0, cd = 0;
    double run_seconds = 0.0;
    for (const JobRecord& job : traced.jobs) {
      submit_us.push_back(static_cast<double>(job.submitted_ns - job.submit_ns) / 1e3);
      if (!job.admitted) {
        ++refused;
        continue;
      }
      if (job.state != JobState::kDone) ++failed_jobs;
      const MiningTelemetry& tm = job.response.telemetry;
      run_seconds += job.run_seconds;
      queue_ms.push_back(job.queue_seconds * 1e3);
      run_ms.push_back(job.run_seconds * 1e3);
      build_ms.push_back(tm.build_seconds * 1e3);
      solve_ms.push_back(tm.solve_seconds * 1e3);
      other_ms.push_back(
          (job.run_seconds - tm.build_seconds - tm.solve_seconds) * 1e3);
      if (WantsGa(variants[job.variant])) {
        ++ga_jobs;
        inits += tm.initializations;
        pruned += tm.pruned_seeds;
        cd += tm.cd_iterations;
      }
    }
    m.Set("service.submit_us", Median(submit_us), "us");
    {
      std::vector<std::pair<int64_t, double>> by_time;
      for (const JobRecord& job : traced.jobs) {
        by_time.push_back({job.submit_ns, static_cast<double>(job.submitted_ns - job.submit_ns) / 1e3});
      }
      std::sort(by_time.begin(), by_time.end());
      std::vector<double> in_order;
      for (const auto& [at, us] : by_time) in_order.push_back(us);
      m.Set("service.submit_tail_us", WindowedTail(in_order, kTailWindowJobs).value,
            "us");
    }
    m.Set("service.queue_ms", Median(queue_ms), "ms");
    m.Set("service.run_ms", Median(run_ms), "ms");
    // One executor: its busy share is the summed run time over the phase.
    m.Set("service.busy_frac", run_seconds / traced.meter.wall_s(), "fraction");
    m.Set("service.refused", static_cast<double>(refused), "count");
    m.Set("service.failed", static_cast<double>(failed_jobs), "count");

    // store.journal: the service's own counters, then direct appends of
    // the workload's requests and responses to a journal of the benchmark's.
    m.Set("journal.appends_per_job",
          static_cast<double>(traced.journal_after.appended_records -
                              traced.journal_before.appended_records) / n,
          "count");
    m.Set("journal.fsyncs_per_s",
          static_cast<double>(traced.journal_after.fsyncs -
                              traced.journal_before.fsyncs) /
              traced.meter.wall_s(),
          "1/s");
    {
      std::vector<double> open_ms;
      for (size_t i = 0; i < setups; ++i) {
        const std::string path = tmp.File("open-" + std::to_string(i) + ".log");
        const int64_t t0 = NowNs();
        std::shared_ptr<JobJournal> j = MustOk(JobJournal::Open(path), "JobJournal::Open");
        const int64_t t1 = NowNs();
        spans.Add("journal.open", t0, t1, -1, 0);
        open_ms.push_back(MsBetween(t0, t1));
      }
      m.Set("journal.open_ms", Median(open_ms), "ms");

      // Each job's two records, then a Flush (the group-commit fsync the
      // service's flusher issues), on the run's own records.
      const size_t replayed = std::min<size_t>(traced.jobs.size(), 500);
      std::shared_ptr<JobJournal> journal =
          MustOk(JobJournal::Open(tmp.File("replay.log")), "JobJournal::Open");
      std::vector<double> append_us, flush_ms;
      for (size_t i = 0; i < replayed; ++i) {
        const JobRecord& job = traced.jobs[ReplayIndex(i, replayed, traced.jobs.size())];
        JournalAdmittedRecord admitted;
        admitted.job_id = i + 1;
        admitted.tenant = job.tenant;
        admitted.admission_index = i;
        admitted.request = variants[job.variant];
        JournalDoneRecord done;
        done.job_id = i + 1;
        done.has_response = true;
        done.response = job.response;
        done.response_fingerprint = JobJournal::ResponseFingerprint(job.response);
        int64_t t0 = NowNs();
        const bool ok_admitted = journal->AppendAdmitted(admitted).ok();
        int64_t t1 = NowNs();
        spans.Add("journal.append_admitted", t0, t1, -1, i + 1);
        append_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        t0 = NowNs();
        const bool ok_done = journal->AppendDone(done).ok();
        t1 = NowNs();
        spans.Add("journal.append_done", t0, t1, -1, i + 1);
        append_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        t0 = NowNs();
        const bool ok_flush = journal->Flush().ok();
        t1 = NowNs();
        spans.Add("journal.flush", t0, t1, -1, i + 1);
        flush_ms.push_back(MsBetween(t0, t1));
        if (!ok_admitted || !ok_done || !ok_flush) {
          result.correct = false;
          result.notes.push_back("a direct journal append or flush failed");
        }
      }
      m.Set("journal.append_us", Median(append_us), "us");
      m.Set("journal.flush_ms", Median(flush_ms), "ms");
      // The journal must give every job's answer back bit for bit.
      std::vector<JournalReplayJob> back = MustOk(journal->Replay(), "Replay");
      bool agrees = back.size() == replayed;
      for (size_t i = 0; agrees && i < replayed; ++i) {
        agrees = back[i].done &&
                 CanonicalAnswer(back[i].done_record.response) ==
                     CanonicalAnswer(
                         traced.jobs[ReplayIndex(i, replayed, traced.jobs.size())]
                             .response);
      }
      if (!agrees) {
        result.correct = false;
        result.notes.push_back("journal replay disagrees with the job answers");
      }
    }

    // store.artifact: the service's store counters, then direct warm boots
    // into fresh caches.
    {
      const ArtifactStoreStats stats = rig.store->stats();
      m.Set("store.loads", static_cast<double>(stats.loads), "count");
      m.Set("store.load_misses", static_cast<double>(stats.load_misses), "count");
      m.Set("store.corrupt_pages", static_cast<double>(stats.corrupt_pages), "count");
      std::vector<double> boot_ms;
      size_t hydrated = 0;
      for (size_t i = 0; i < setups; ++i) {
        PipelineCache cache;
        const int64_t t0 = NowNs();
        hydrated = rig.store->WarmBootAll(&cache);
        const int64_t t1 = NowNs();
        spans.Add("store.warm_boot", t0, t1, -1, 0);
        boot_ms.push_back(MsBetween(t0, t1));
      }
      if (hydrated == 0) {
        result.correct = false;
        result.notes.push_back("warm boot hydrated no pipelines");
      }
      m.Set("store.warm_boot_ms", Median(boot_ms), "ms");
    }

    // api.session and api.cache
    m.Set("session.build_ms", Median(build_ms), "ms");
    m.Set("session.solve_ms", Median(solve_ms), "ms");
    m.Set("session.other_ms", Median(other_ms), "ms");
    SetCacheMetrics(traced.cache_before, traced.cache_after, &m);

    // core.newsea / core.dcs_greedy: replay the first jobs' solves directly
    // on the pipelines they mined, and check them against the job answers.
    {
      std::vector<std::vector<ReplayPipeline>> pipelines(kTenants);
      for (size_t t = 0; t < kTenants; ++t) {
        for (const MiningRequest& request : variants) {
          pipelines[t].push_back(ReplayPrepare(data[t].g1, data[t].g2, request));
        }
      }
      const size_t replayed = std::min<size_t>(traced.jobs.size(), 400);
      GaSolveReplays solves;
      std::vector<double> ad_ms;
      uint64_t mismatches = 0;
      for (size_t i = 0; i < replayed; ++i) {
        const JobRecord& job = traced.jobs[ReplayIndex(i, replayed, traced.jobs.size())];
        const MiningRequest& request = variants[job.variant];
        const ReplayPipeline& p = pipelines[job.tenant][job.variant];
        if (WantsGa(request)) {
          const std::string differs =
              solves.Replay(p, request, rig.pool.get(),
                            TopOf(job.response.graph_affinity), job.id, &spans);
          if (!differs.empty()) {
            result.notes.push_back(
                "direct RunNewSea disagrees with the job: seed " +
                std::to_string(args.seed) + " tenant " + std::to_string(job.tenant) +
                " variant " + std::to_string(job.variant) + " (" + differs + ")");
          }
        }
        if (WantsAd(request)) {
          const int64_t t0 = NowNs();
          DcsadResult ad = MustOk(RunDcsGreedy(p.difference), "RunDcsGreedy");
          const int64_t t1 = NowNs();
          spans.Add("dcsad.solve", t0, t1, -1, job.id);
          ad_ms.push_back(MsBetween(t0, t1));
          mismatches += !AdAgrees(ad, request, TopOf(job.response.average_degree));
        }
      }
      mismatches += solves.mismatches();
      if (mismatches != 0) {
        result.correct = false;
        result.notes.push_back("direct solver replays disagree with " +
                               std::to_string(mismatches) + " job answers");
      }
      solves.SetMetrics(&m);
      m.Set("dcsad.solve_ms", Median(ad_ms), "ms");
    }
    SetNewseaCounters(inits, pruned, cd, ga_jobs, &m);

    SetKernelMetrics(traced.kernels_before, traced.kernels_after,
                     traced.jobs.size(), &m);
    // util.thread_pool
    SetPoolCpuMetric(traced.meter, rig.pool_tids, traced.jobs.size(), &m);
    m.Set("pool.dispatch_us",
          PoolDispatchUs(rig.pool.get(), rig.pool->concurrency(), 2000), "us");

    SetTraceMetrics(spans, Median(times.latency_ms), JobsPerS(times),
                    untraced_jobs_per_s, &m);
    const std::string trace_path = args.work_root + "/traces/serve_mixed-seed" +
                                   std::to_string(args.seed) + ".json";
    result.notes.push_back(WriteChromeTrace(spans, trace_path));
  }
  if (degenerate != 0) {
    result.correct = false;
    result.notes.push_back(std::to_string(degenerate) +
                           " GA jobs descended from no seed");
  }
  return result;
}

}  // namespace dcs::e2e
