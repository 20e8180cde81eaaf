// JobJournal tests: request/response serialization round trips, the
// append-then-reopen cycle, Replay's exactly-once fold, the trust
// model — a torn tail and a flipped bit must read as absent, be counted,
// and converge back to fsck-clean via tail truncation — and replay of
// records written with the retired request flag set.

#include "store/job_journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/miner_session.h"
#include "api/mining.h"
#include "api/mining_service.h"
#include "gen/random_graphs.h"
#include "store/page_file.h"
#include "test_util.h"
#include "util/byte_codec.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dcs {
namespace {

std::string JournalPath(const char* name) {
  return ::testing::TempDir() + "job_journal_test_" + name + ".dcsj";
}

std::shared_ptr<JobJournal> OpenOrDie(const std::string& path,
                                      JobJournalOptions options = {}) {
  Result<std::shared_ptr<JobJournal>> journal =
      JobJournal::Open(path, options);
  DCS_CHECK(journal.ok()) << journal.status().ToString();
  return std::move(journal).value();
}

std::span<const uint8_t> AsBytes(const std::string& bytes) {
  return {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()};
}

// A request exercising every serialized field, including both optionals.
MiningRequest FullRequest() {
  MiningRequest request;
  request.measure = Measure::kGraphAffinity;
  request.alpha = 1.625;
  request.flip = true;
  request.discretize = DiscretizeSpec{};
  request.discretize->strong_pos = 6.5;
  request.clamp_weights_above = 2.25;
  request.top_k = 4;
  request.disjoint = false;
  request.min_density = 0.125;
  request.min_affinity = 0.0625;
  request.ga_solver.parallelism = 3;
  request.warm_start = true;
  request.priority = -7;
  request.deadline_seconds = 12.5;
  request.ad_solver_name = "dcsad";
  request.ga_solver_name = "custom-ga";
  return request;
}

MiningResponse SampleResponse() {
  MiningResponse response;
  RankedSubgraph ad;
  ad.vertices = {0, 2, 3};
  ad.value = 2.3333333333333335;
  ad.ratio_bound = 0.5;
  response.average_degree.push_back(ad);
  RankedSubgraph ga;
  ga.vertices = {1, 2};
  ga.weights = {0.5, 0.5};
  ga.value = 1.5000000000000002;
  ga.positive_clique = true;
  response.graph_affinity.push_back(ga);
  // Telemetry must NOT round-trip: it is process state, not mined content.
  response.telemetry.cd_iterations = 42;
  return response;
}

TEST(JobJournalTest, RequestRoundTripsBitExactly) {
  const MiningRequest request = FullRequest();
  const std::string encoded = JobJournal::EncodeRequest(request);
  Result<MiningRequest> decoded = JobJournal::DecodeRequest(AsBytes(encoded));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(JobJournal::EncodeRequest(*decoded), encoded);
  EXPECT_EQ(decoded->measure, Measure::kGraphAffinity);
  EXPECT_EQ(decoded->alpha, 1.625);
  ASSERT_TRUE(decoded->discretize.has_value());
  EXPECT_EQ(decoded->discretize->strong_pos, 6.5);
  ASSERT_TRUE(decoded->clamp_weights_above.has_value());
  EXPECT_EQ(*decoded->clamp_weights_above, 2.25);
  EXPECT_EQ(decoded->priority, -7);
  EXPECT_EQ(decoded->ga_solver_name, "custom-ga");
  EXPECT_EQ(decoded->ga_solver.cancel, nullptr);
}

TEST(JobJournalTest, DecodeRequestRejectsGarbage) {
  const std::string encoded = JobJournal::EncodeRequest(MiningRequest{});
  // Truncation at every prefix length must fail, never crash or misparse.
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(
        JobJournal::DecodeRequest(AsBytes(encoded.substr(0, len))).ok())
        << "accepted prefix of " << len;
  }
  // Trailing bytes are rejected too: a parse must consume the exact image.
  EXPECT_FALSE(JobJournal::DecodeRequest(AsBytes(encoded + "x")).ok());
  // Out-of-range measure enum.
  std::string bad = encoded;
  bad[0] = 7;
  EXPECT_FALSE(JobJournal::DecodeRequest(AsBytes(bad)).ok());
}

TEST(JobJournalTest, ResponseContentRoundTripsWithoutTelemetry) {
  const MiningResponse response = SampleResponse();
  const std::string encoded = JobJournal::EncodeResponseContent(response);
  Result<MiningResponse> decoded =
      JobJournal::DecodeResponseContent(AsBytes(encoded));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(JobJournal::EncodeResponseContent(*decoded), encoded);
  ASSERT_EQ(decoded->average_degree.size(), 1u);
  EXPECT_EQ(decoded->average_degree[0].vertices,
            (std::vector<VertexId>{0, 2, 3}));
  EXPECT_EQ(decoded->average_degree[0].value, 2.3333333333333335);
  ASSERT_EQ(decoded->graph_affinity.size(), 1u);
  EXPECT_TRUE(decoded->graph_affinity[0].positive_clique);
  // Telemetry is deliberately excluded from the image.
  EXPECT_EQ(decoded->telemetry.cd_iterations, 0u);
  EXPECT_EQ(JobJournal::ResponseFingerprint(response),
            JobJournal::ResponseFingerprint(*decoded));
}

TEST(JobJournalTest, OpenCreatesAndMissingFailsWithoutCreate) {
  const std::string path = JournalPath("open");
  std::filesystem::remove(path);
  {
    auto journal = OpenOrDie(path);
    EXPECT_EQ(journal->stats().admitted_records, 0u);
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  JobJournalOptions no_create;
  no_create.create_if_missing = false;
  Result<std::shared_ptr<JobJournal>> missing =
      JobJournal::Open(JournalPath("does_not_exist"), no_create);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST(JobJournalTest, AppendReopenReplayFoldsExactlyOnce) {
  const std::string path = JournalPath("replay");
  std::filesystem::remove(path);
  {
    auto journal = OpenOrDie(path);
    // Job 7: admitted, started, done (with a response). Job 9: admitted
    // only. Job 11: admitted + failed. Admission order: 9 before 7.
    JournalAdmittedRecord nine;
    nine.job_id = 9;
    nine.tenant = 1;
    nine.admission_index = 1;
    nine.request = FullRequest();
    ASSERT_TRUE(journal->AppendAdmitted(nine).ok());

    JournalAdmittedRecord seven;
    seven.job_id = 7;
    seven.tenant = 0;
    seven.admission_index = 2;
    ASSERT_TRUE(journal->AppendAdmitted(seven).ok());
    ASSERT_TRUE(journal->AppendStarted(7).ok());
    JournalDoneRecord done;
    done.job_id = 7;
    done.state = JournalTerminalState::kDone;
    done.has_response = true;
    done.response = SampleResponse();
    ASSERT_TRUE(journal->AppendDone(done).ok());
    // A second Done for job 7 must lose to the first (exactly-once).
    JournalDoneRecord dupe = done;
    dupe.response.average_degree.clear();
    ASSERT_TRUE(journal->AppendDone(dupe).ok());

    JournalAdmittedRecord eleven;
    eleven.job_id = 11;
    eleven.tenant = 0;
    eleven.admission_index = 3;
    ASSERT_TRUE(journal->AppendAdmitted(eleven).ok());
    JournalDoneRecord failed;
    failed.job_id = 11;
    failed.state = JournalTerminalState::kFailed;
    failed.status_code = 2;  // kNotFound
    failed.status_message = "no such solver";
    ASSERT_TRUE(journal->AppendDone(failed).ok());
    // A Started record with no Admitted record is dropped by the fold.
    ASSERT_TRUE(journal->AppendStarted(99).ok());
    ASSERT_TRUE(journal->Flush().ok());
  }

  auto reopened = OpenOrDie(path);
  const JobJournalStats stats = reopened->stats();
  EXPECT_EQ(stats.admitted_records, 3u);
  EXPECT_EQ(stats.started_records, 2u);
  EXPECT_EQ(stats.done_records, 3u);
  Result<std::vector<JournalReplayJob>> replayed = reopened->Replay();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ASSERT_EQ(replayed->size(), 3u);
  // Admission order: 9 (index 1), 7 (index 2), 11 (index 3).
  EXPECT_EQ((*replayed)[0].admitted.job_id, 9u);
  EXPECT_FALSE((*replayed)[0].started);
  EXPECT_FALSE((*replayed)[0].done);
  EXPECT_EQ(JobJournal::EncodeRequest((*replayed)[0].admitted.request),
            JobJournal::EncodeRequest(FullRequest()));
  EXPECT_EQ((*replayed)[1].admitted.job_id, 7u);
  EXPECT_TRUE((*replayed)[1].started);
  ASSERT_TRUE((*replayed)[1].done);
  ASSERT_TRUE((*replayed)[1].done_record.has_response);
  // First Done wins: the response is the full one, bit-identical.
  EXPECT_EQ(
      JobJournal::EncodeResponseContent((*replayed)[1].done_record.response),
      JobJournal::EncodeResponseContent(SampleResponse()));
  EXPECT_EQ((*replayed)[2].admitted.job_id, 11u);
  ASSERT_TRUE((*replayed)[2].done);
  EXPECT_EQ((*replayed)[2].done_record.state, JournalTerminalState::kFailed);
  EXPECT_EQ((*replayed)[2].done_record.status_code, 2u);
  EXPECT_EQ((*replayed)[2].done_record.status_message, "no such solver");
}

TEST(JobJournalTest, TornTailReadsAsAbsentAndTruncatesClean) {
  const std::string path = JournalPath("torn");
  std::filesystem::remove(path);
  {
    auto journal = OpenOrDie(path);
    JournalAdmittedRecord first;
    first.job_id = 1;
    first.admission_index = 1;
    ASSERT_TRUE(journal->AppendAdmitted(first).ok());
    JournalAdmittedRecord second;
    second.job_id = 2;
    second.admission_index = 2;
    ASSERT_TRUE(journal->AppendAdmitted(second).ok());
    ASSERT_TRUE(journal->Flush().ok());
  }
  // Tear the tail: chop 5 bytes off the last frame, as a crash mid-write
  // would.
  const uintmax_t size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);

  Result<JournalFsckReport> before = JobJournal::Fsck(path);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->superblock_ok);
  EXPECT_EQ(before->valid_records, 1u);
  EXPECT_GT(before->unreliable_tail_bytes, 0u);

  auto reopened = OpenOrDie(path);
  Result<std::vector<JournalReplayJob>> replayed = reopened->Replay();
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 1u);  // the torn job reads as absent
  EXPECT_EQ((*replayed)[0].admitted.job_id, 1u);
  // Recovery converges the file back to fsck-clean without an append.
  ASSERT_TRUE(reopened->TruncateUnreliableTail().ok());
  EXPECT_GE(reopened->stats().truncations, 1u);
  EXPECT_GT(reopened->stats().truncated_tail_bytes, 0u);
  Result<JournalFsckReport> after = JobJournal::Fsck(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->unreliable_tail_bytes, 0u);
  EXPECT_EQ(after->valid_records, 1u);
}

TEST(JobJournalTest, FlippedPayloadBitReadsAsAbsent) {
  const std::string path = JournalPath("bitflip");
  std::filesystem::remove(path);
  uint64_t first_offset = 0;
  uint64_t first_payload = 0;
  {
    auto journal = OpenOrDie(path);
    JournalAdmittedRecord first;
    first.job_id = 1;
    first.admission_index = 1;
    ASSERT_TRUE(journal->AppendAdmitted(first).ok());
    JournalAdmittedRecord second;
    second.job_id = 2;
    second.admission_index = 2;
    ASSERT_TRUE(journal->AppendAdmitted(second).ok());
    ASSERT_TRUE(journal->Flush().ok());
    const std::vector<JournalRecordInfo> records = journal->ListRecords();
    ASSERT_EQ(records.size(), 2u);
    first_offset = records[0].offset;
    first_payload = records[0].payload_bytes;
  }
  // Flip one payload bit of the *first* record: structure stays walkable,
  // so the second record must survive while the first reads as absent.
  {
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(static_cast<std::streamoff>(first_offset + 32 +
                                           first_payload / 2));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(first_offset + 32 +
                                           first_payload / 2));
    file.write(&byte, 1);
  }
  Result<JournalFsckReport> fsck = JobJournal::Fsck(path);
  ASSERT_TRUE(fsck.ok());
  EXPECT_EQ(fsck->corrupt_pages, 1u);

  auto reopened = OpenOrDie(path);
  Result<std::vector<JournalReplayJob>> replayed = reopened->Replay();
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 1u);
  EXPECT_EQ((*replayed)[0].admitted.job_id, 2u);
  EXPECT_GE(reopened->stats().corrupt_pages, 1u);
}

TEST(JobJournalTest, AlwaysDurabilityFsyncsPerAppend) {
  const std::string path = JournalPath("always");
  std::filesystem::remove(path);
  JobJournalOptions options;
  options.durability = JournalDurability::kAlways;
  auto journal = OpenOrDie(path, options);
  JournalAdmittedRecord record;
  record.job_id = 1;
  record.admission_index = 1;
  ASSERT_TRUE(journal->AppendAdmitted(record).ok());
  ASSERT_TRUE(journal->AppendStarted(1).ok());
  const JobJournalStats stats = journal->stats();
  EXPECT_EQ(stats.appended_records, 2u);
  EXPECT_GE(stats.fsyncs, 2u);
  EXPECT_GT(stats.file_bytes, 32u);
}

// Two handles open one still-empty journal. The one that appends second
// must adopt the first one's record, not rewrite the file over it.
TEST(JobJournalTest, HandleOpenedOnEmptyFileKeepsOtherHandlesRecords) {
  const std::string path = JournalPath("late_first_append");
  std::filesystem::remove(path);
  auto first = OpenOrDie(path);
  auto second = OpenOrDie(path);
  JournalAdmittedRecord one;
  one.job_id = 1;
  one.admission_index = 1;
  ASSERT_TRUE(second->AppendAdmitted(one).ok());
  JournalAdmittedRecord two;
  two.job_id = 2;
  two.admission_index = 2;
  ASSERT_TRUE(first->AppendAdmitted(two).ok());
  EXPECT_EQ(first->stats().admitted_records, 2u);
  EXPECT_EQ(first->stats().truncations, 0u);
  ASSERT_TRUE(first->Flush().ok());
  ASSERT_TRUE(second->Flush().ok());

  Result<std::vector<JournalReplayJob>> replayed = OpenOrDie(path)->Replay();
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 2u);
  EXPECT_EQ((*replayed)[0].admitted.job_id, 1u);
  EXPECT_EQ((*replayed)[1].admitted.job_id, 2u);
}

// Byte 7 of the request flag block used to carry the since-removed opt-in
// to reassociating affinity reductions. A journal written before then can
// hold an Admitted record with the byte set: it must still replay, re-run
// on the exact kernels, and answer bit-identically to the same request
// without the flag.
TEST(JobJournalTest, RetiredFlagByteReplaysOnTheExactPath) {
  const std::string path = JournalPath("retired_flag");
  std::filesystem::remove(path);
  Rng rng(2024);
  Result<Graph> g1 = ErdosRenyiWeighted(120, 0.1, 0.5, 3.0, &rng);
  Result<Graph> g2 = ErdosRenyiWeighted(120, 0.1, 0.5, 3.0, &rng);
  ASSERT_TRUE(g1.ok() && g2.ok());
  MiningRequest request;
  request.measure = Measure::kGraphAffinity;
  request.top_k = 2;

  // The request image: u32 measure, f64 alpha, then the 8 flag bytes.
  const std::string exact_image = JobJournal::EncodeRequest(request);
  constexpr size_t kRetiredFlag = 4 + 8 + 7;
  ASSERT_GT(exact_image.size(), kRetiredFlag);
  ASSERT_EQ(exact_image[kRetiredFlag], 0);
  std::string flagged_image = exact_image;
  flagged_image[kRetiredFlag] = 1;

  // Frame it exactly as an Admitted record: job id, tenant, admission
  // index, request image — through the journal's own page format.
  std::string payload;
  AppendU64(1, &payload);
  AppendU32(0, &payload);
  AppendU64(1, &payload);
  payload += flagged_image;
  {
    Result<std::unique_ptr<PageFile>> file = PageFile::Open(
        path, JobJournal::kPageFormat, PageFileOptions{},
        [](const PageRecordInfo&) {}, [] {});
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE((*file)->Scan());
    ASSERT_TRUE((*file)->Append(JobJournal::kAdmittedRecord, 1, payload).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }

  // It replays as an incomplete job whose request is the unflagged one.
  {
    Result<std::vector<JournalReplayJob>> replayed =
        OpenOrDie(path)->Replay();
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    ASSERT_EQ(replayed->size(), 1u);
    EXPECT_FALSE((*replayed)[0].done);
    EXPECT_EQ(JobJournal::EncodeRequest((*replayed)[0].admitted.request),
              exact_image);
  }

  Result<MinerSession> direct = MinerSession::Create(*g1, *g2);
  ASSERT_TRUE(direct.ok());
  Result<MiningResponse> expected = direct->Mine(request);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_FALSE(expected->graph_affinity.empty());

  Result<MinerSession> tenant = MinerSession::Create(*g1, *g2);
  ASSERT_TRUE(tenant.ok());
  MiningServiceOptions options;
  options.journal_path = path;
  MiningService service(std::move(*tenant), options);
  EXPECT_EQ(service.num_recovered_jobs(), 1u);
  Result<JobStatus> rerun = service.Wait(1);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  ASSERT_EQ(rerun->state, JobState::kDone) << rerun->failure.ToString();
  EXPECT_EQ(testing::SerializeSubgraphs(rerun->response),
            testing::SerializeSubgraphs(*expected));
}

}  // namespace
}  // namespace dcs
