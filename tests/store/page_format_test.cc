// Format pin for the page-file layer (store/page_file.h): the superblock
// and every page header it encodes, and the whole files the artifact store
// and the job journal write, must equal byte for byte the images below.
// They were captured from the store and journal as they stood before the
// page-file layer was extracted, so a file written by that code must still
// open, load and fsck clean — checked here on those bytes, not assumed.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "api/artifact_store.h"
#include "api/job_journal.h"
#include "core/newsea.h"
#include "store/page_file.h"
#include "test_util.h"

namespace dcs {
namespace {

using ::dcs::testing::MakeGraph;

// Store: superblock, a graph record of PinGraph(), a pipeline record of
// PinPipeline() under PinKey().
constexpr char kStoreFileHex[] =
    "44435353544f52310100000004030201359933408f12dec80000000000000000"
    "50414745010000001e264856ee71d9077400000000000000dd43edbfc602bc3e"
    "0300000006000000000000000000000000000000020000000000000004000000"
    "00000000060000000000000001000000000000000000f83f0200000000000000"
    "0000d03f00000000000000000000f83f0200000000000000000000c000000000"
    "000000000000d03f0100000000000000000000c05041474502000000685c8715"
    "e11741694c010000000000005e9baecc8ce6a6541e264856ee71d90700000000"
    "0000f03f00000001010000000300000006000000000000000000000000000000"
    "0200000000000000040000000000000006000000000000000100000000000000"
    "0000f83f02000000000000000000d03f00000000000000000000f83f02000000"
    "00000000000000c000000000000000000000d03f0100000000000000000000c0"
    "0300000004000000000000000000000000000000020000000000000003000000"
    "00000000040000000000000001000000000000000000f83f0200000000000000"
    "0000d03f00000000000000000000f83f00000000000000000000d03f03000000"
    "000000000000f83f000000000000f83f000000000000f83f0100000001000000"
    "01000000000000000000e83f000000000000e83f000000000000e83f00000000"
    "0000f83f000000000000f83f000000000000d03f000000000100000002000000";

// Journal: superblock, then Admitted(PinAdmitted()), Started(7) and
// Done(PinDone()) for job 7.
constexpr char kJournalFileHex[] =
    "4443534a524e4c310100000004030201c480e73b312ea9790000000000000000"
    "504147450100000007000000000000009a00000000000000be53ac45aa056758"
    "070000000000000001000000030000000000000001000000000000000000f83f"
    "0000000100000000020000000000000000000000000000000000000000000000"
    "7b14ae47e17a843f80841e0000000000102700008dedb5a0f7c6b03e400d0300"
    "00000000d00700007b14ae47e17a843f80841e00000000000100000000000000"
    "0000000000000000050000006463736164050000006463736761504147450200"
    "000007000000000000000800000000000000f176aaca39cd92da070000000000"
    "0000504147450300000007000000000000005c000000000000002d1687fb7b6b"
    "38b407000000000000000000000000000000000000005ec0c0fd0e27d93b0100"
    "0000000000000100000002000000000000000100000002000000000000000000"
    "e03f000000000000e03f000000000000e83f000000000000000001000000";

Graph PinGraph() {
  return MakeGraph(3, {{0, 1, 1.5}, {1, 2, -2.0}, {0, 2, 0.25}});
}

PipelineCacheKey PinKey() {
  PipelineCacheKey key;
  key.graph_fingerprint = PinGraph().ContentFingerprint();
  key.alpha = 1.0;
  return key;
}

PreparedPipeline PinPipeline() {
  PreparedPipeline pipeline;
  pipeline.difference = PinGraph();
  pipeline.has_ga_artifacts = true;
  pipeline.positive_part = pipeline.difference.PositivePart();
  pipeline.smart_bounds = ComputeSmartInitBounds(pipeline.positive_part);
  pipeline.validated_nonnegative = true;
  return pipeline;
}

JournalAdmittedRecord PinAdmitted() {
  JournalAdmittedRecord record;
  record.job_id = 7;
  record.tenant = 1;
  record.admission_index = 3;
  record.request.measure = Measure::kGraphAffinity;
  record.request.alpha = 1.5;
  record.request.top_k = 2;
  return record;
}

JournalDoneRecord PinDone() {
  JournalDoneRecord record;
  record.job_id = 7;
  record.state = JournalTerminalState::kDone;
  record.has_response = true;
  RankedSubgraph subgraph;
  subgraph.vertices = {0, 1};
  subgraph.weights = {0.5, 0.5};
  subgraph.value = 0.75;
  subgraph.positive_clique = true;
  record.response.graph_affinity.push_back(subgraph);
  return record;
}

std::string FromHex(const char* hex) {
  std::string bytes;
  for (size_t i = 0; hex[i] != '\0' && hex[i + 1] != '\0'; i += 2) {
    bytes.push_back(static_cast<char>(std::stoi(std::string(hex + i, 2),
                                                nullptr, 16)));
  }
  return bytes;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "page_format_" + name;
  std::filesystem::remove(path);
  return path;
}

struct Frame {
  uint32_t type = 0;
  uint64_t key = 0;
  std::string header;
  std::string payload;
};

// Splits a pinned image into its frames by the header's own length field.
std::vector<Frame> SplitFrames(const std::string& file) {
  std::vector<Frame> frames;
  size_t offset = kSuperblockBytes;
  while (offset + kPageHeaderBytes <= file.size()) {
    Frame frame;
    uint64_t payload_bytes = 0;
    std::memcpy(&frame.type, file.data() + offset + 4, 4);
    std::memcpy(&frame.key, file.data() + offset + 8, 8);
    std::memcpy(&payload_bytes, file.data() + offset + 16, 8);
    frame.header = file.substr(offset, kPageHeaderBytes);
    frame.payload = file.substr(offset + kPageHeaderBytes, payload_bytes);
    offset += kPageHeaderBytes + payload_bytes;
    frames.push_back(frame);
  }
  EXPECT_EQ(offset, file.size());
  return frames;
}

TEST(PageFormatTest, SuperblockAndPageHeadersMatchThePinnedBytes) {
  const std::string store = FromHex(kStoreFileHex);
  ASSERT_EQ(store.size(), 544u);
  EXPECT_EQ(EncodeSuperblock(ArtifactStore::kPageFormat),
            store.substr(0, kSuperblockBytes));
  const std::vector<Frame> store_frames = SplitFrames(store);
  ASSERT_EQ(store_frames.size(), 2u);
  EXPECT_EQ(store_frames[0].type, ArtifactStore::kGraphRecord);
  EXPECT_EQ(store_frames[0].key, PinGraph().ContentFingerprint());
  EXPECT_EQ(store_frames[1].type, ArtifactStore::kPipelineRecord);
  EXPECT_EQ(store_frames[1].key, PinKey().Hash());

  const std::string journal = FromHex(kJournalFileHex);
  ASSERT_EQ(journal.size(), 382u);
  EXPECT_EQ(EncodeSuperblock(JobJournal::kPageFormat),
            journal.substr(0, kSuperblockBytes));
  const std::vector<Frame> journal_frames = SplitFrames(journal);
  ASSERT_EQ(journal_frames.size(), 3u);
  EXPECT_EQ(journal_frames[0].type, JobJournal::kAdmittedRecord);
  EXPECT_EQ(journal_frames[1].type, JobJournal::kStartedRecord);
  EXPECT_EQ(journal_frames[2].type, JobJournal::kDoneRecord);

  // One page of each record type, re-encoded through the layer.
  for (const std::vector<Frame>* frames : {&store_frames, &journal_frames}) {
    for (const Frame& frame : *frames) {
      EXPECT_EQ(EncodePageHeader(frame.type, frame.key, frame.payload),
                frame.header)
          << "record type " << frame.type;
    }
  }
}

TEST(PageFormatTest, WritersProduceThePinnedFiles) {
  const std::string store_path = TempPath("write.dcs");
  {
    Result<std::shared_ptr<ArtifactStore>> store =
        ArtifactStore::Open(store_path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PutGraph(PinGraph()).ok());
    ASSERT_TRUE((*store)->PutPipeline(PinKey(), PinPipeline()).ok());
  }
  EXPECT_EQ(ReadFile(store_path), FromHex(kStoreFileHex));

  const std::string journal_path = TempPath("write.dcsj");
  {
    JobJournalOptions options;
    options.durability = JournalDurability::kAlways;
    Result<std::shared_ptr<JobJournal>> journal =
        JobJournal::Open(journal_path, options);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->AppendAdmitted(PinAdmitted()).ok());
    ASSERT_TRUE((*journal)->AppendStarted(7).ok());
    ASSERT_TRUE((*journal)->AppendDone(PinDone()).ok());
  }
  EXPECT_EQ(ReadFile(journal_path), FromHex(kJournalFileHex));
}

TEST(PageFormatTest, PinnedFilesOpenLoadAndFsckClean) {
  const std::string store_path = TempPath("pinned.dcs");
  WriteFile(store_path, FromHex(kStoreFileHex));
  Result<ArtifactFsckReport> store_fsck = ArtifactStore::Fsck(store_path);
  ASSERT_TRUE(store_fsck.ok());
  EXPECT_TRUE(store_fsck->superblock_ok);
  EXPECT_EQ(store_fsck->format_version, ArtifactStore::kFormatVersion);
  EXPECT_EQ(store_fsck->valid_records, 2u);
  EXPECT_EQ(store_fsck->corrupt_pages, 0u);
  EXPECT_EQ(store_fsck->unreliable_tail_bytes, 0u);

  Result<std::shared_ptr<ArtifactStore>> store =
      ArtifactStore::Open(store_path);
  ASSERT_TRUE(store.ok());
  Result<Graph> graph = (*store)->LoadGraph(PinGraph().ContentFingerprint());
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->UndirectedEdges(), PinGraph().UndirectedEdges());
  Result<PreparedPipeline> pipeline = (*store)->LoadPipeline(PinKey());
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  const PreparedPipeline expected = PinPipeline();
  EXPECT_TRUE(pipeline->has_ga_artifacts);
  EXPECT_EQ(pipeline->positive_part.ContentFingerprint(),
            expected.positive_part.ContentFingerprint());
  EXPECT_EQ(pipeline->smart_bounds.mu, expected.smart_bounds.mu);
  EXPECT_EQ(pipeline->smart_bounds.order, expected.smart_bounds.order);
  EXPECT_EQ((*store)->stats().corrupt_pages, 0u);

  const std::string journal_path = TempPath("pinned.dcsj");
  WriteFile(journal_path, FromHex(kJournalFileHex));
  Result<JournalFsckReport> journal_fsck = JobJournal::Fsck(journal_path);
  ASSERT_TRUE(journal_fsck.ok());
  EXPECT_TRUE(journal_fsck->superblock_ok);
  EXPECT_EQ(journal_fsck->format_version, JobJournal::kFormatVersion);
  EXPECT_EQ(journal_fsck->valid_records, 3u);
  EXPECT_EQ(journal_fsck->corrupt_pages, 0u);
  EXPECT_EQ(journal_fsck->unreliable_tail_bytes, 0u);

  Result<std::shared_ptr<JobJournal>> journal = JobJournal::Open(journal_path);
  ASSERT_TRUE(journal.ok());
  Result<std::vector<JournalReplayJob>> jobs = (*journal)->Replay();
  ASSERT_TRUE(jobs.ok());
  ASSERT_EQ(jobs->size(), 1u);
  const JournalReplayJob& job = jobs->front();
  EXPECT_EQ(job.admitted.job_id, 7u);
  EXPECT_EQ(job.admitted.tenant, 1u);
  EXPECT_EQ(job.admitted.admission_index, 3u);
  EXPECT_EQ(job.admitted.request.alpha, 1.5);
  EXPECT_EQ(job.admitted.request.top_k, 2u);
  EXPECT_TRUE(job.started);
  ASSERT_TRUE(job.done);
  ASSERT_EQ(job.done_record.response.graph_affinity.size(), 1u);
  EXPECT_EQ(job.done_record.response.graph_affinity[0].value, 0.75);
  EXPECT_EQ(job.done_record.response_fingerprint,
            JobJournal::ResponseFingerprint(PinDone().response));
  EXPECT_EQ((*journal)->stats().corrupt_pages, 0u);
}

}  // namespace
}  // namespace dcs
