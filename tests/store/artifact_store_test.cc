// ArtifactStore tests: record round trips and reopen persistence, the
// append-mostly last-record-wins directory, warm boot into a PipelineCache,
// async write-back, and the trust model — a truncated tail, a flipped bit,
// a foreign magic and a future format version must all read as absent,
// force the silent rebuild-and-overwrite path, and leave the store-warmed
// MiningResponses bit-identical to cold-built ones.

#include "store/artifact_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/miner_session.h"
#include "api/mining.h"
#include "api/mining_service.h"
#include "core/newsea.h"
#include "gen/coauthor.h"
#include "test_util.h"
#include "util/checksum.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace dcs {
namespace {

using ::dcs::testing::Fig1G1;
using ::dcs::testing::Fig1G2;
using ::dcs::testing::Fig1Gd;
using ::dcs::testing::SerializeSubgraphs;

std::string StorePath(const char* name) {
  return ::testing::TempDir() + "artifact_store_test_" + name + ".dcs";
}

std::shared_ptr<ArtifactStore> OpenOrDie(const std::string& path) {
  Result<std::shared_ptr<ArtifactStore>> store = ArtifactStore::Open(path);
  DCS_CHECK(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

// A fully populated pipeline (difference + GD+ + smart bounds) over Fig. 1,
// with a key exercising every optional field.
std::pair<PipelineCacheKey, PreparedPipeline> MakeFig1Pipeline() {
  PipelineCacheKey key;
  key.graph_fingerprint = PipelineGraphFingerprint(Fig1G1(), Fig1G2());
  key.alpha = 1.25;
  key.flip = true;
  key.discretize = DiscretizeSpec{};
  key.clamp_weights_above = 3.5;
  PreparedPipeline pipeline;
  pipeline.difference = Fig1Gd();
  pipeline.positive_part = pipeline.difference.PositivePart();
  pipeline.smart_bounds = ComputeSmartInitBounds(pipeline.positive_part);
  pipeline.has_ga_artifacts = true;
  pipeline.validated_nonnegative = true;
  return {key, pipeline};
}

void ExpectPipelinesBitIdentical(const PreparedPipeline& a,
                                 const PreparedPipeline& b) {
  EXPECT_EQ(a.difference.ContentFingerprint(),
            b.difference.ContentFingerprint());
  EXPECT_EQ(a.has_ga_artifacts, b.has_ga_artifacts);
  EXPECT_EQ(a.validated_nonnegative, b.validated_nonnegative);
  if (a.has_ga_artifacts && b.has_ga_artifacts) {
    EXPECT_EQ(a.positive_part.ContentFingerprint(),
              b.positive_part.ContentFingerprint());
    EXPECT_EQ(a.smart_bounds.w, b.smart_bounds.w);
    EXPECT_EQ(a.smart_bounds.tau, b.smart_bounds.tau);
    EXPECT_EQ(a.smart_bounds.mu, b.smart_bounds.mu);
    EXPECT_EQ(a.smart_bounds.max_incident, b.smart_bounds.max_incident);
    EXPECT_EQ(a.smart_bounds.order, b.smart_bounds.order);
  }
}

TEST(ArtifactStoreTest, OpenCreatesReopenKeepsEmpty) {
  const std::string path = StorePath("open_empty");
  std::filesystem::remove(path);
  {
    auto store = OpenOrDie(path);
    const ArtifactStoreStats stats = store->stats();
    EXPECT_EQ(stats.graph_records, 0u);
    EXPECT_EQ(stats.pipeline_records, 0u);
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  auto reopened = OpenOrDie(path);
  EXPECT_EQ(reopened->stats().graph_records, 0u);

  ArtifactStoreOptions no_create;
  no_create.create_if_missing = false;
  Result<std::shared_ptr<ArtifactStore>> missing =
      ArtifactStore::Open(StorePath("does_not_exist"), no_create);
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST(ArtifactStoreTest, GraphRoundTripByFingerprint) {
  const std::string path = StorePath("graph_roundtrip");
  std::filesystem::remove(path);
  auto store = OpenOrDie(path);
  const Graph g1 = Fig1G1();
  ASSERT_TRUE(store->PutGraph(g1).ok());
  EXPECT_TRUE(store->ContainsGraph(g1.ContentFingerprint()));
  EXPECT_FALSE(store->ContainsGraph(g1.ContentFingerprint() + 1));

  Result<Graph> loaded = store->LoadGraph(g1.ContentFingerprint());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ContentFingerprint(), g1.ContentFingerprint());
  EXPECT_EQ(loaded->UndirectedEdges(), g1.UndirectedEdges());

  Result<Graph> absent = store->LoadGraph(0xDEADBEEFu);
  EXPECT_FALSE(absent.ok());
  EXPECT_TRUE(absent.status().IsNotFound());
}

TEST(ArtifactStoreTest, PipelineRoundTripAcrossReopen) {
  const std::string path = StorePath("pipeline_roundtrip");
  std::filesystem::remove(path);
  const auto [key, pipeline] = MakeFig1Pipeline();
  {
    auto store = OpenOrDie(path);
    ASSERT_TRUE(store->PutPipeline(key, pipeline).ok());
    Result<PreparedPipeline> same_handle = store->LoadPipeline(key);
    ASSERT_TRUE(same_handle.ok());
    ExpectPipelinesBitIdentical(*same_handle, pipeline);
  }
  auto reopened = OpenOrDie(path);
  Result<PreparedPipeline> loaded = reopened->LoadPipeline(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectPipelinesBitIdentical(*loaded, pipeline);

  // A key differing in any field — here alpha's sign bit — reads as absent
  // even though it may share the same record by hash-bucket.
  PipelineCacheKey other = key;
  other.alpha = -key.alpha;
  EXPECT_FALSE(reopened->LoadPipeline(other).ok());
}

TEST(ArtifactStoreTest, NewestRecordWinsPerKey) {
  const std::string path = StorePath("last_wins");
  std::filesystem::remove(path);
  auto [key, full] = MakeFig1Pipeline();
  PreparedPipeline difference_only;
  difference_only.difference = full.difference;
  {
    auto store = OpenOrDie(path);
    ASSERT_TRUE(store->PutPipeline(key, difference_only).ok());
    ASSERT_TRUE(store->PutPipeline(key, full).ok());
    // One directory entry, two physical records.
    EXPECT_EQ(store->stats().pipeline_records, 1u);
    EXPECT_EQ(store->stats().appended_records, 2u);
  }
  Result<ArtifactFsckReport> report = ArtifactStore::Fsck(path);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->valid_records, 2u);
  EXPECT_EQ(report->corrupt_pages, 0u);

  auto reopened = OpenOrDie(path);
  Result<PreparedPipeline> loaded = reopened->LoadPipeline(key);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->has_ga_artifacts);  // the newer, upgraded record
  ExpectPipelinesBitIdentical(*loaded, full);
}

TEST(ArtifactStoreTest, AsyncWriteBackLandsAfterFlush) {
  const std::string path = StorePath("async");
  std::filesystem::remove(path);
  const auto [key, pipeline] = MakeFig1Pipeline();
  {
    auto store = OpenOrDie(path);
    store->PutPipelineAsync(
        key, std::make_shared<const PreparedPipeline>(pipeline));
    store->Flush();
    EXPECT_EQ(store->stats().appended_records, 1u);
    EXPECT_EQ(store->stats().write_errors, 0u);
  }
  auto reopened = OpenOrDie(path);
  Result<PreparedPipeline> loaded = reopened->LoadPipeline(key);
  ASSERT_TRUE(loaded.ok());
  ExpectPipelinesBitIdentical(*loaded, pipeline);
}

// A failed async write-back is counted in the critical section of its
// append. Ordered by the fault site's hit count, not a timer: once append h
// has hit the site, the writer holds the store mutex through the injected
// delay, so a stats() call made then waits for that append (or a later
// one) and must count at least h failures. Eight queued appends give the
// race eight chances to show.
TEST(ArtifactStoreTest, StatsWaitingOnAFailingWriteBackSeesItCounted) {
  constexpr uint64_t kAppends = 8;
  const std::string path = StorePath("counted_failure");
  std::filesystem::remove(path);
  const auto [key, pipeline] = MakeFig1Pipeline();
  ArtifactStoreOptions options;
  options.max_io_retries = 0;  // one attempt per append: one hit, one failure
  Result<std::shared_ptr<ArtifactStore>> opened =
      ArtifactStore::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::shared_ptr<ArtifactStore> store = std::move(*opened);
  ASSERT_TRUE(FaultInjection::Global()
                  .ArmText("store.append:every=1,delay_ms=20")
                  .ok());
  const auto shared = std::make_shared<const PreparedPipeline>(pipeline);
  for (uint64_t i = 0; i < kAppends; ++i) store->PutPipelineAsync(key, shared);
  uint64_t seen = 0;
  while (seen < kAppends) {
    const uint64_t hits =
        FaultInjection::Global().hits(fault_sites::kStoreAppend);
    if (hits == seen) {
      std::this_thread::yield();
      continue;
    }
    seen = hits;
    EXPECT_GE(store->stats().write_errors, seen) << "append " << seen;
  }
  EXPECT_FALSE(store->Flush().ok());
  EXPECT_EQ(store->stats().write_errors, kAppends);
  FaultInjection::Global().Reset();
  store.reset();
  std::filesystem::remove(path);
}

TEST(ArtifactStoreTest, WarmBootHydratesMatchingFingerprint) {
  const std::string path = StorePath("warm_boot");
  std::filesystem::remove(path);
  auto [key_a, pipeline] = MakeFig1Pipeline();
  PipelineCacheKey key_a2 = key_a;
  key_a2.alpha = 2.0;
  PipelineCacheKey key_b = key_a;
  key_b.graph_fingerprint = key_a.graph_fingerprint + 1;
  auto store = OpenOrDie(path);
  ASSERT_TRUE(store->PutPipeline(key_a, pipeline).ok());
  ASSERT_TRUE(store->PutPipeline(key_a2, pipeline).ok());
  ASSERT_TRUE(store->PutPipeline(key_b, pipeline).ok());

  PipelineCache cache;
  EXPECT_EQ(store->WarmBootFingerprint(key_a.graph_fingerprint, &cache), 2u);
  EXPECT_EQ(cache.EntriesFor(key_a.graph_fingerprint), 2u);
  EXPECT_EQ(cache.EntriesFor(key_b.graph_fingerprint), 0u);

  PipelineCache all;
  EXPECT_EQ(store->WarmBootAll(&all), 3u);
  EXPECT_EQ(all.stats().entries, 3u);
}

// ---- facade integration ----------------------------------------------------

CoauthorData PlantedCoauthor() {
  Rng rng(20260807);
  CoauthorConfig config;
  config.num_authors = 300;
  config.emerging_sizes = {5};
  config.disappearing_sizes = {4};
  Result<CoauthorData> data = GenerateCoauthorData(config, &rng);
  DCS_CHECK(data.ok());
  return std::move(data).value();
}

MiningRequest StandardRequest() {
  MiningRequest request;
  request.measure = Measure::kBoth;
  request.alpha = 1.0;
  request.top_k = 2;
  request.discretize = DiscretizeSpec{};
  return request;
}

// Mines `request` in a fresh session, optionally store-attached; returns
// the response and (via out-params) the session's store counters.
MiningResponse MineOnce(const CoauthorData& data,
                        const MiningRequest& request,
                        std::shared_ptr<ArtifactStore> store,
                        uint64_t* hits = nullptr,
                        uint64_t* misses = nullptr) {
  SessionOptions options;
  options.artifact_store = std::move(store);
  Result<MinerSession> session =
      MinerSession::Create(data.g1, data.g2, options);
  DCS_CHECK(session.ok()) << session.status().ToString();
  Result<MiningResponse> response = session->Mine(request);
  DCS_CHECK(response.ok()) << response.status().ToString();
  if (hits != nullptr) *hits = session->num_store_hits();
  if (misses != nullptr) *misses = session->num_store_misses();
  if (session->artifact_store() != nullptr) {
    session->artifact_store()->Flush();
  }
  return std::move(response).value();
}

TEST(ArtifactStoreSessionTest, StoreWarmedEqualsColdBuilt) {
  const std::string path = StorePath("session_warm");
  std::filesystem::remove(path);
  const CoauthorData data = PlantedCoauthor();
  const MiningRequest request = StandardRequest();

  const MiningResponse cold = MineOnce(data, request, nullptr);

  // First store-attached run: a miss that writes the pipeline back.
  uint64_t hits = 0, misses = 0;
  const MiningResponse first =
      MineOnce(data, request, OpenOrDie(path), &hits, &misses);
  EXPECT_EQ(hits, 0u);
  EXPECT_GE(misses, 1u);
  EXPECT_EQ(first.telemetry.store_misses, misses);

  // Second run on a fresh handle: the warm boot serves the pipeline from
  // disk — and the response must be bit-identical to the cold build.
  const MiningResponse warmed =
      MineOnce(data, request, OpenOrDie(path), &hits, &misses);
  EXPECT_GE(hits, 1u);
  EXPECT_EQ(misses, 0u);
  EXPECT_GE(warmed.telemetry.store_hits, 1u);
  EXPECT_EQ(warmed.telemetry.store_corrupt_pages, 0u);

  EXPECT_EQ(SerializeSubgraphs(cold), SerializeSubgraphs(first));
  EXPECT_EQ(SerializeSubgraphs(cold), SerializeSubgraphs(warmed));
}

TEST(ArtifactStoreSessionTest, MiningServiceAttachesStore) {
  const std::string path = StorePath("service");
  std::filesystem::remove(path);
  const CoauthorData data = PlantedCoauthor();
  const MiningRequest request = StandardRequest();
  const MiningResponse cold = MineOnce(data, request, nullptr);

  auto store = OpenOrDie(path);
  {
    Result<MinerSession> session = MinerSession::Create(data.g1, data.g2);
    ASSERT_TRUE(session.ok());
    MiningServiceOptions options;
    options.artifact_store = store;
    MiningService service(std::move(*session), options);
    Result<JobId> job = service.Submit(request);
    ASSERT_TRUE(job.ok());
    Result<JobStatus> status = service.Wait(*job);
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(status->state, JobState::kDone);
    EXPECT_EQ(SerializeSubgraphs(cold),
              SerializeSubgraphs(status->response));
  }
  store->Flush();
  EXPECT_GE(store->stats().pipeline_records, 1u);

  // A fresh service over the same store warm-boots and reports the hit.
  {
    Result<MinerSession> session = MinerSession::Create(data.g1, data.g2);
    ASSERT_TRUE(session.ok());
    MiningServiceOptions options;
    options.artifact_store = OpenOrDie(path);
    MiningService service(std::move(*session), options);
    Result<JobId> job = service.Submit(request);
    ASSERT_TRUE(job.ok());
    Result<JobStatus> status = service.Wait(*job);
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(status->state, JobState::kDone);
    EXPECT_GE(status->response.telemetry.store_hits, 1u);
    EXPECT_EQ(SerializeSubgraphs(cold),
              SerializeSubgraphs(status->response));
  }
}

// ---- corruption recovery ---------------------------------------------------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DCS_CHECK(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DCS_CHECK(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  DCS_CHECK(out.good());
}

// Seeds `path` with one store-attached mine, then corrupts it via `corrupt`
// and asserts the recovery contract: the next store-attached session still
// answers bit-identically, counts corruption where expected, silently
// rebuilds, and its write-back leaves a store that passes fsck and serves
// the following session from disk again.
void ExpectRecoversFromCorruption(
    const std::string& path, bool expect_corrupt_pages,
    const std::function<void(const std::string&)>& corrupt) {
  std::filesystem::remove(path);
  const CoauthorData data = PlantedCoauthor();
  const MiningRequest request = StandardRequest();
  const MiningResponse cold = MineOnce(data, request, nullptr);
  MineOnce(data, request, OpenOrDie(path));  // seed the store

  corrupt(path);

  uint64_t hits = 0, misses = 0;
  const MiningResponse recovered =
      MineOnce(data, request, OpenOrDie(path), &hits, &misses);
  EXPECT_EQ(SerializeSubgraphs(cold), SerializeSubgraphs(recovered));
  EXPECT_GE(misses, 1u) << "corrupt store should force a rebuild";
  if (expect_corrupt_pages) {
    EXPECT_GE(recovered.telemetry.store_corrupt_pages, 1u);
  }

  // The rebuild-and-overwrite pass must leave a clean store...
  Result<ArtifactFsckReport> report = ArtifactStore::Fsck(path);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->superblock_ok);
  EXPECT_EQ(report->corrupt_pages, 0u);
  EXPECT_GE(report->valid_records, 1u);

  // ...that the next session warm-boots from, bit-identically.
  const MiningResponse rewarmed =
      MineOnce(data, request, OpenOrDie(path), &hits, &misses);
  EXPECT_GE(hits, 1u);
  EXPECT_EQ(misses, 0u);
  EXPECT_EQ(SerializeSubgraphs(cold), SerializeSubgraphs(rewarmed));
}

TEST(ArtifactStoreCorruptionTest, TruncatedFile) {
  ExpectRecoversFromCorruption(
      StorePath("truncated"), /*expect_corrupt_pages=*/true,
      [](const std::string& path) {
        // Chop into the middle of the last record: the scan keeps the valid
        // prefix and discards the torn tail.
        const uintmax_t size = std::filesystem::file_size(path);
        std::filesystem::resize_file(path, size - size / 3);
      });
}

TEST(ArtifactStoreCorruptionTest, SingleFlippedBit) {
  ExpectRecoversFromCorruption(
      StorePath("bitflip"), /*expect_corrupt_pages=*/true,
      [](const std::string& path) {
        // One bit inside the LIVE tail record (the newest pipeline, the one
        // a warm boot must load). Rot in a superseded record is invisible to
        // sessions by design — only fsck reports it — so the recovery
        // contract is exercised on a record that is actually read.
        std::string bytes = ReadFileBytes(path);
        ASSERT_GT(bytes.size(), 200u);
        bytes[bytes.size() - 5] ^= 0x10;
        WriteFileBytes(path, bytes);
      });
}

TEST(ArtifactStoreCorruptionTest, WrongMagic) {
  ExpectRecoversFromCorruption(
      StorePath("wrong_magic"), /*expect_corrupt_pages=*/true,
      [](const std::string& path) {
        std::string bytes = ReadFileBytes(path);
        ASSERT_GE(bytes.size(), 8u);
        bytes.replace(0, 8, "NOTSTORE");
        WriteFileBytes(path, bytes);
      });
}

TEST(ArtifactStoreCorruptionTest, FutureFormatVersion) {
  ExpectRecoversFromCorruption(
      StorePath("future_version"), /*expect_corrupt_pages=*/true,
      [](const std::string& path) {
        // A *checksum-valid* superblock from the future: the version gate
        // itself — not the checksum — must reject it.
        std::string bytes = ReadFileBytes(path);
        ASSERT_GE(bytes.size(), 32u);
        const uint32_t future = ArtifactStore::kFormatVersion + 1;
        bytes.replace(8, 4,
                      std::string(reinterpret_cast<const char*>(&future), 4));
        const uint64_t checksum = PageChecksum(bytes.data(), 16);
        bytes.replace(16, 8,
                      std::string(reinterpret_cast<const char*>(&checksum), 8));
        WriteFileBytes(path, bytes);
      });
}

TEST(ArtifactStoreCorruptionTest, FsckReportsDamage) {
  const std::string path = StorePath("fsck_damage");
  std::filesystem::remove(path);
  const auto [key, pipeline] = MakeFig1Pipeline();
  {
    auto store = OpenOrDie(path);
    ASSERT_TRUE(store->PutGraph(Fig1G1()).ok());
    ASSERT_TRUE(store->PutPipeline(key, pipeline).ok());
  }
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 4] ^= 0x01;  // rot inside the last record
  WriteFileBytes(path, bytes);

  Result<ArtifactFsckReport> report = ArtifactStore::Fsck(path);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->superblock_ok);
  EXPECT_EQ(report->valid_records, 1u);
  EXPECT_EQ(report->corrupt_pages, 1u);
  EXPECT_GT(report->unreliable_tail_bytes, 0u);

  // The damaged record reads as absent through a handle, and is counted.
  auto store = OpenOrDie(path);
  EXPECT_FALSE(store->LoadPipeline(key).ok());
  EXPECT_TRUE(store->LoadGraph(Fig1G1().ContentFingerprint()).ok());
  EXPECT_GE(store->stats().corrupt_pages, 1u);
}

TEST(ArtifactStoreTest, ListRecordsOffsetAscending) {
  const std::string path = StorePath("ls");
  std::filesystem::remove(path);
  const auto [key, pipeline] = MakeFig1Pipeline();
  auto store = OpenOrDie(path);
  ASSERT_TRUE(store->PutGraph(Fig1G1()).ok());
  ASSERT_TRUE(store->PutGraph(Fig1G2()).ok());
  ASSERT_TRUE(store->PutPipeline(key, pipeline).ok());
  const std::vector<ArtifactRecordInfo> records = store->ListRecords();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, 1u);
  EXPECT_EQ(records[0].key, Fig1G1().ContentFingerprint());
  EXPECT_EQ(records[2].type, 2u);
  EXPECT_EQ(records[2].key, key.Hash());
  EXPECT_LT(records[0].offset, records[1].offset);
  EXPECT_LT(records[1].offset, records[2].offset);
}

// Two handles open one still-empty file. The one that appends second must
// adopt the first one's record, not rewrite the file over it.
TEST(ArtifactStoreTest, HandleOpenedOnEmptyFileKeepsOtherHandlesRecords) {
  const std::string path = StorePath("late_first_append");
  std::filesystem::remove(path);
  auto first = OpenOrDie(path);
  auto second = OpenOrDie(path);
  ASSERT_TRUE(second->PutGraph(Fig1G1()).ok());
  ASSERT_TRUE(first->PutGraph(Fig1G2()).ok());
  EXPECT_EQ(first->stats().graph_records, 2u);
  EXPECT_EQ(first->stats().truncated_tail_bytes, 0u);
  EXPECT_TRUE(first->LoadGraph(Fig1G1().ContentFingerprint()).ok());

  auto fresh = OpenOrDie(path);
  EXPECT_TRUE(fresh->LoadGraph(Fig1G1().ContentFingerprint()).ok());
  EXPECT_TRUE(fresh->LoadGraph(Fig1G2().ContentFingerprint()).ok());
  Result<ArtifactFsckReport> report = ArtifactStore::Fsck(path);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->valid_records, 2u);
  EXPECT_EQ(report->corrupt_pages, 0u);
}

// Two handles both see a rotted record. One cuts the rot and appends in its
// place; the other's later repair must re-check the file under the
// exclusive lock and keep that record instead of cutting at its own stale
// watermark.
TEST(ArtifactStoreTest, RotRepairKeepsRecordsAnotherHandleAppendedSince) {
  const std::string path = StorePath("rot_two_handles");
  std::filesystem::remove(path);
  ASSERT_TRUE(OpenOrDie(path)->PutGraph(Fig1G1()).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 3] ^= 0x08;  // inside the only record's payload
  WriteFileBytes(path, bytes);

  auto first = OpenOrDie(path);
  auto second = OpenOrDie(path);
  EXPECT_FALSE(first->LoadGraph(Fig1G1().ContentFingerprint()).ok());
  EXPECT_FALSE(second->LoadGraph(Fig1G1().ContentFingerprint()).ok());
  ASSERT_TRUE(second->PutGraph(Fig1G2()).ok());
  ASSERT_TRUE(first->PutGraph(Fig1Gd()).ok());
  EXPECT_TRUE(first->LoadGraph(Fig1G2().ContentFingerprint()).ok());

  auto fresh = OpenOrDie(path);
  EXPECT_TRUE(fresh->LoadGraph(Fig1G2().ContentFingerprint()).ok());
  EXPECT_TRUE(fresh->LoadGraph(Fig1Gd().ContentFingerprint()).ok());
  Result<ArtifactFsckReport> report = ArtifactStore::Fsck(path);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->valid_records, 2u);
  EXPECT_EQ(report->corrupt_pages, 0u);
}

// One handle cuts rot that another handle never read, leaving the file
// shorter than the other handle's view of it. That handle's next append
// must re-read the file, not write past its end at its stale watermark.
TEST(ArtifactStoreTest, AppendAfterAnotherHandleShrankTheFileRereadsIt) {
  const std::string path = StorePath("shrunk_under_handle");
  std::filesystem::remove(path);
  {
    auto seed = OpenOrDie(path);
    ASSERT_TRUE(seed->PutGraph(Fig1G1()).ok());
    ASSERT_TRUE(seed->PutGraph(Fig1G2()).ok());
  }
  const auto offsets = [&] {
    auto lister = OpenOrDie(path);
    return std::make_pair(lister->ListRecords()[0].offset,
                          lister->ListRecords()[1].offset);
  }();
  std::string bytes = ReadFileBytes(path);
  bytes[offsets.first + 40] ^= 0x08;  // inside the first record's payload
  WriteFileBytes(path, bytes);

  auto stale = OpenOrDie(path);    // indexes both records, reads neither
  auto repairer = OpenOrDie(path);
  EXPECT_FALSE(repairer->LoadGraph(Fig1G1().ContentFingerprint()).ok());
  const Graph small = Fig1Gd().PositivePart();
  ASSERT_TRUE(repairer->PutGraph(small).ok());  // cuts both, appends one
  ASSERT_LT(std::filesystem::file_size(path), offsets.second);
  ASSERT_TRUE(stale->PutGraph(Fig1G2()).ok());
  EXPECT_TRUE(stale->LoadGraph(small.ContentFingerprint()).ok());

  Result<ArtifactFsckReport> report = ArtifactStore::Fsck(path);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->corrupt_pages, 0u);
  EXPECT_EQ(report->valid_records, 2u);
  auto fresh = OpenOrDie(path);
  EXPECT_TRUE(fresh->LoadGraph(small.ContentFingerprint()).ok());
  EXPECT_TRUE(fresh->LoadGraph(Fig1G2().ContentFingerprint()).ok());
}

}  // namespace
}  // namespace dcs
