// Cross-process page-file sharing (ctest label `crash`): N forked child
// processes each open ONE artifact store file — and, separately, ONE job
// journal file — through their own handles and append concurrently. Every
// child opens its handles before any child appends, so every handle starts
// from a still-empty file: the first append of each must adopt the others'
// frames, never rewrite the file over them. The parent then asserts that
// fsck is clean, that every child's record is present, and that a fresh
// handle loads each one.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/pipeline_cache.h"
#include "store/artifact_store.h"
#include "store/job_journal.h"
#include "test_util.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1Gd;
using ::dcs::testing::MakeGraph;

constexpr uint32_t kChildren = 4;
constexpr uint32_t kRounds = 16;

std::string ScratchPath(const std::string& stem) {
  const std::string path = ::testing::TempDir() + stem + "_" +
                           std::to_string(getpid());
  std::remove(path.c_str());
  return path;
}

// A distinct graph per (child, round), so every record has its own
// fingerprint and verifiable content.
Graph ChildGraph(uint32_t child, uint32_t round) {
  const double w = 1.0 + child * 97.0 + round;
  return MakeGraph(4, {{0, 1, w}, {1, 2, w + 0.5}, {2, 3, -w}, {0, 3, 2.0}});
}

PipelineCacheKey ChildKey(uint32_t child, uint32_t round) {
  PipelineCacheKey key;
  key.graph_fingerprint = 0x50524F4300000000ull + child;
  key.alpha = 1.0 + round;
  return key;
}

uint64_t ChildJob(uint32_t child, uint32_t round) {
  return uint64_t{child} * 1000 + round + 1;
}

// One child's work; the return value is its exit code (0 = every append and
// every read-back of its own records succeeded).
int RunChild(uint32_t child, const std::string& store_path,
             const std::string& journal_path, int start_fd) {
  Result<std::shared_ptr<ArtifactStore>> store =
      ArtifactStore::Open(store_path);
  Result<std::shared_ptr<JobJournal>> journal =
      JobJournal::Open(journal_path);
  if (!store.ok() || !journal.ok()) return 2;
  // Block until the parent releases every child at once.
  char go = 0;
  if (read(start_fd, &go, 1) < 0) return 3;
  for (uint32_t r = 0; r < kRounds; ++r) {
    const Graph graph = ChildGraph(child, r);
    PreparedPipeline pipeline;
    pipeline.difference = Fig1Gd();
    if (!(*store)->PutGraph(graph).ok() ||
        !(*store)->PutPipeline(ChildKey(child, r), pipeline).ok()) {
      return 4;
    }
    Result<Graph> back = (*store)->LoadGraph(graph.ContentFingerprint());
    if (!back.ok() ||
        back->ContentFingerprint() != graph.ContentFingerprint()) {
      return 5;
    }

    JournalAdmittedRecord admitted;
    admitted.job_id = ChildJob(child, r);
    admitted.tenant = child;
    admitted.admission_index = admitted.job_id;
    JournalDoneRecord done;
    done.job_id = admitted.job_id;
    done.state = JournalTerminalState::kCancelled;
    if (!(*journal)->AppendAdmitted(admitted).ok() ||
        !(*journal)->AppendStarted(admitted.job_id).ok() ||
        !(*journal)->AppendDone(done).ok()) {
      return 6;
    }
  }
  if ((*store)->stats().corrupt_pages != 0) return 7;
  return 0;
}

TEST(MultiProcessWriterTest, ForkedWritersShareOneStoreAndOneJournal) {
  const std::string store_path = ScratchPath("multi_process_store.dcs");
  const std::string journal_path = ScratchPath("multi_process_journal.dcsj");

  int start[2];
  ASSERT_EQ(pipe(start), 0);
  std::vector<pid_t> children;
  for (uint32_t child = 0; child < kChildren; ++child) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      close(start[1]);
      _exit(RunChild(child, store_path, journal_path, start[0]));
    }
    children.push_back(pid);
  }
  close(start[0]);
  close(start[1]);  // EOF on the pipe releases every child at once
  for (uint32_t child = 0; child < kChildren; ++child) {
    int status = 0;
    ASSERT_EQ(waitpid(children[child], &status, 0), children[child]);
    ASSERT_TRUE(WIFEXITED(status)) << "child " << child;
    EXPECT_EQ(WEXITSTATUS(status), 0) << "child " << child;
  }

  Result<ArtifactFsckReport> store_fsck = ArtifactStore::Fsck(store_path);
  ASSERT_TRUE(store_fsck.ok()) << store_fsck.status().ToString();
  EXPECT_TRUE(store_fsck->superblock_ok);
  EXPECT_EQ(store_fsck->corrupt_pages, 0u);
  EXPECT_EQ(store_fsck->unreliable_tail_bytes, 0u);
  EXPECT_EQ(store_fsck->valid_records, uint64_t{kChildren} * kRounds * 2);

  Result<std::shared_ptr<ArtifactStore>> store =
      ArtifactStore::Open(store_path);
  ASSERT_TRUE(store.ok());
  for (uint32_t child = 0; child < kChildren; ++child) {
    for (uint32_t r = 0; r < kRounds; ++r) {
      const Graph expected = ChildGraph(child, r);
      Result<Graph> graph = (*store)->LoadGraph(expected.ContentFingerprint());
      ASSERT_TRUE(graph.ok()) << "child " << child << " round " << r;
      EXPECT_EQ(graph->UndirectedEdges(), expected.UndirectedEdges());
      Result<PreparedPipeline> pipeline =
          (*store)->LoadPipeline(ChildKey(child, r));
      ASSERT_TRUE(pipeline.ok()) << "child " << child << " round " << r;
      EXPECT_EQ(pipeline->difference.ContentFingerprint(),
                Fig1Gd().ContentFingerprint());
    }
  }
  EXPECT_EQ((*store)->stats().corrupt_pages, 0u);

  Result<JournalFsckReport> journal_fsck = JobJournal::Fsck(journal_path);
  ASSERT_TRUE(journal_fsck.ok()) << journal_fsck.status().ToString();
  EXPECT_TRUE(journal_fsck->superblock_ok);
  EXPECT_EQ(journal_fsck->corrupt_pages, 0u);
  EXPECT_EQ(journal_fsck->unreliable_tail_bytes, 0u);
  EXPECT_EQ(journal_fsck->valid_records, uint64_t{kChildren} * kRounds * 3);

  Result<std::shared_ptr<JobJournal>> journal = JobJournal::Open(journal_path);
  ASSERT_TRUE(journal.ok());
  Result<std::vector<JournalReplayJob>> jobs = (*journal)->Replay();
  ASSERT_TRUE(jobs.ok()) << jobs.status().ToString();
  // Replay orders by admission index, which is the job id here.
  ASSERT_EQ(jobs->size(), size_t{kChildren} * kRounds);
  size_t i = 0;
  for (uint32_t child = 0; child < kChildren; ++child) {
    for (uint32_t r = 0; r < kRounds; ++r, ++i) {
      const JournalReplayJob& job = (*jobs)[i];
      EXPECT_EQ(job.admitted.job_id, ChildJob(child, r));
      EXPECT_EQ(job.admitted.tenant, child);
      EXPECT_TRUE(job.started);
      EXPECT_TRUE(job.done);
      EXPECT_EQ(job.done_record.state, JournalTerminalState::kCancelled);
    }
  }
  EXPECT_EQ((*journal)->stats().corrupt_pages, 0u);

  std::remove(store_path.c_str());
  std::remove(journal_path.c_str());
}

}  // namespace
}  // namespace dcs
