// Crash-recovery harness (ctest label `crash`): kill the worker process at
// every journal fault site × hit index, recover, and assert the journal's
// crash-consistency contract end to end:
//
//   * terminal exactly-once — every job the crashed process admitted is
//     terminal after recovery, appears exactly once, and recovery re-runs
//     exactly the jobs whose Done record is missing (solver_runs ==
//     incomplete), never a Done one;
//   * bit-identity — every recovered kDone response fingerprints identical
//     to the fault-free control run of the same job;
//   * convergence — after a graceful recovery the journal fscks clean
//     (valid superblock, no corrupt pages, no unreliable tail).
//
// The kill is deterministic: `--inject site:crash=1,after=H-1,times=1` makes
// the worker abort() at exactly the H-th hit of the site (see
// util/fault_injection.h), so sweeping H from 1 until a storm survives
// covers every append/fsync boundary the storm crosses. journal.replay only
// draws hits while recovering a populated journal, so it gets its own sweep:
// crash the *recover* run mid-replay, then rerun it clean.

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace dcs {
namespace {

// Generous bound on the hit sweep; the storm performs ~12 appends (4 jobs ×
// admitted/started/done) so both sites run dry far earlier. Reaching the
// bound without a surviving storm fails the test — it would mean the sweep
// never covered the last boundary.
constexpr int kMaxHitSweep = 64;

struct WorkerRun {
  bool crashed = false;   // the worker died on SIGABRT (the injected kill)
  int exit_code = -1;     // exit code when it exited normally
  std::string out;        // combined stdout+stderr
};

// What a recover (or control storm) run reported, parsed from the line
// protocol the worker prints.
struct RecoverReport {
  std::map<uint64_t, std::pair<std::string, uint64_t>> results;  // id -> (state, fp)
  uint64_t incomplete = 0;
  int solver_runs = -1;
  bool fsck_seen = false;
  bool fsck_clean = false;
};

// Scratch files carry the test process's pid: ctest runs the two tests of
// this binary as separate processes, possibly at the same time, and both
// build the shared control run — without the pid they would write one
// journal and one output file concurrently and read each other's results.
std::string ScratchPath(const std::string& stem, const std::string& suffix) {
  return ::testing::TempDir() + stem + "_" + std::to_string(getpid()) +
         suffix;
}

WorkerRun RunWorker(const std::string& args, const std::string& tag) {
  const std::string out_path = ScratchPath("crash_worker_" + tag, ".out");
  const std::string cmd = std::string(DCS_CRASH_WORKER_PATH) + " " + args +
                          " > " + out_path + " 2>&1";
  const int status = std::system(cmd.c_str());
  WorkerRun run;
  // std::system reports the shell's status: a direct SIGABRT surfaces as
  // WIFSIGNALED, a shell-laundered one as exit code 128+SIGABRT.
  if (WIFSIGNALED(status)) {
    run.crashed = WTERMSIG(status) == SIGABRT;
  } else if (WIFEXITED(status)) {
    run.exit_code = WEXITSTATUS(status);
    run.crashed = run.exit_code == 128 + SIGABRT;
  }
  std::ifstream file(out_path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  run.out = buffer.str();
  std::remove(out_path.c_str());
  return run;
}

RecoverReport ParseReport(const std::string& out) {
  RecoverReport report;
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "result") {
      uint64_t id = 0, fingerprint = 0;
      std::string state;
      fields >> id >> state >> fingerprint;
      EXPECT_EQ(report.results.count(id), 0u)
          << "job " << id << " reported twice:\n" << out;
      report.results[id] = {state, fingerprint};
    } else if (key == "incomplete") {
      fields >> report.incomplete;
    } else if (key == "solver_runs") {
      fields >> report.solver_runs;
    } else if (key == "fsck") {
      int superblock_ok = 0;
      uint64_t corrupt = 0, tail = 0;
      fields >> superblock_ok >> corrupt >> tail;
      report.fsck_seen = true;
      report.fsck_clean = superblock_ok == 1 && corrupt == 0 && tail == 0;
    }
  }
  return report;
}

std::string InjectArg(const std::string& site, int hit) {
  std::ostringstream spec;
  spec << "--inject " << site << ":crash=1,times=1";
  if (hit > 1) spec << ",after=" << (hit - 1);
  return spec.str();
}

std::string JournalPath(const std::string& tag) {
  const std::string path = ScratchPath("crash_journal_" + tag, ".dcsj");
  std::remove(path.c_str());
  return path;
}

// The fault-free fingerprints every recovery must reproduce bit-for-bit.
std::map<uint64_t, std::pair<std::string, uint64_t>> ControlResults() {
  static const std::map<uint64_t, std::pair<std::string, uint64_t>> control =
      [] {
        const std::string path = JournalPath("control");
        WorkerRun run =
            RunWorker("--journal " + path + " --mode storm", "control");
        EXPECT_FALSE(run.crashed) << run.out;
        EXPECT_EQ(run.exit_code, 0) << run.out;
        RecoverReport report = ParseReport(run.out);
        EXPECT_EQ(report.results.size(), 4u) << run.out;
        return report.results;
      }();
  return control;
}

// One recovered report against the contract: every job terminal exactly
// once, done jobs bit-identical to control, re-runs equal to the jobs that
// lacked a Done record, journal fsck-clean afterwards.
void VerifyRecovery(const RecoverReport& report, const std::string& out,
                    const std::string& context) {
  const auto control = ControlResults();
  for (const auto& [id, result] : report.results) {
    const auto& [state, fingerprint] = result;
    EXPECT_EQ(state, "done") << context << " job " << id << "\n" << out;
    auto expected = control.find(id);
    ASSERT_NE(expected, control.end())
        << context << " recovered unknown job " << id << "\n" << out;
    EXPECT_EQ(fingerprint, expected->second.second)
        << context << " job " << id << " response not bit-identical\n" << out;
  }
  EXPECT_EQ(report.solver_runs, static_cast<int>(report.incomplete))
      << context << " re-ran a Done job (or skipped an incomplete one)\n"
      << out;
  EXPECT_TRUE(report.fsck_seen) << context << "\n" << out;
  EXPECT_TRUE(report.fsck_clean)
      << context << " journal did not converge to fsck-clean\n" << out;
}

TEST(CrashRecoveryTest, KillAtEveryAppendAndFsyncHitRecoversExactlyOnce) {
  ASSERT_FALSE(ControlResults().empty());
  for (const std::string site : {"journal.append", "journal.fsync"}) {
    bool swept_past_last_hit = false;
    for (int hit = 1; hit <= kMaxHitSweep && !swept_past_last_hit; ++hit) {
      const std::string tag =
          site.substr(site.find('.') + 1) + "_h" + std::to_string(hit);
      const std::string path = JournalPath(tag);
      WorkerRun storm = RunWorker(
          "--journal " + path + " --mode storm " + InjectArg(site, hit),
          tag + "_storm");
      if (!storm.crashed) {
        // The spec outlived the storm's hits: the sweep covered every
        // boundary of this site. The surviving storm must have been clean.
        EXPECT_EQ(storm.exit_code, 0) << site << " hit " << hit << "\n"
                                      << storm.out;
        EXPECT_GT(hit, 1) << site << " never crashed at all";
        swept_past_last_hit = true;
        continue;
      }
      WorkerRun recover = RunWorker("--journal " + path + " --mode recover",
                                    tag + "_recover");
      ASSERT_FALSE(recover.crashed) << site << " hit " << hit << "\n"
                                    << recover.out;
      ASSERT_EQ(recover.exit_code, 0) << site << " hit " << hit << "\n"
                                      << recover.out;
      VerifyRecovery(ParseReport(recover.out), recover.out,
                     site + " hit " + std::to_string(hit));
    }
    EXPECT_TRUE(swept_past_last_hit)
        << site << ": no surviving storm within " << kMaxHitSweep << " hits";
  }
}

TEST(CrashRecoveryTest, KillDuringReplayThenCleanRerunRecovers) {
  // Build a journal with incomplete work: crash the storm mid-flight so
  // recovery actually has records to replay and jobs to resubmit.
  const std::string path = JournalPath("replay");
  WorkerRun storm = RunWorker("--journal " + path + " --mode storm " +
                                  InjectArg("journal.fsync", 7),
                              "replay_storm");
  ASSERT_TRUE(storm.crashed) << storm.out;

  bool swept_past_last_hit = false;
  for (int hit = 1; hit <= kMaxHitSweep && !swept_past_last_hit; ++hit) {
    const std::string tag = "replay_h" + std::to_string(hit);
    WorkerRun injected = RunWorker("--journal " + path + " --mode recover " +
                                       InjectArg("journal.replay", hit),
                                   tag);
    if (!injected.crashed) {
      EXPECT_EQ(injected.exit_code, 0) << injected.out;
      EXPECT_GT(hit, 1) << "journal.replay never crashed at all";
      swept_past_last_hit = true;
      // A replay sweep that ran dry was itself a clean recovery — verify it
      // like any other.
      VerifyRecovery(ParseReport(injected.out), injected.out,
                     "replay final hit " + std::to_string(hit));
      continue;
    }
    // The process died mid-replay; a clean rerun must recover as if the
    // replay crash never happened.
    WorkerRun rerun = RunWorker("--journal " + path + " --mode recover",
                                tag + "_rerun");
    ASSERT_FALSE(rerun.crashed) << "hit " << hit << "\n" << rerun.out;
    ASSERT_EQ(rerun.exit_code, 0) << "hit " << hit << "\n" << rerun.out;
    VerifyRecovery(ParseReport(rerun.out), rerun.out,
                   "replay hit " + std::to_string(hit));
  }
  EXPECT_TRUE(swept_past_last_hit)
      << "journal.replay: no surviving recover within " << kMaxHitSweep
      << " hits";
}

}  // namespace
}  // namespace dcs
