// ArtifactStore — the disk-backed persistence layer of libdcs: a single-file,
// page-checksummed store of graphs and prepared pipelines that survives
// restarts.
//
// Every in-memory scale layer (the shared PipelineCache, the O(Δ)-patched
// artifacts) dies with the process; a service restarting under traffic pays
// a full cold rebuild storm for every graph pair. The store closes that gap
// in the single-file storage-engine style of store/page_file.h — a
// self-checksummed superblock under the magic "DCSSTOR1", then an
// append-mostly log of record pages, each framed by a header carrying a
// 64-bit checksum of its payload. Two record types exist: CSR graphs
// (graph/serialize.h) keyed by Graph::ContentFingerprint, and
// PreparedPipeline contents (difference graph, GD+, smart-init bounds with
// the cached seed order) keyed by their full PipelineCacheKey.
//
// Trust model: the file is *never* trusted — no bytes reach a caller
// without verifying first. Open validates the superblock and walks the
// page-header chain structurally (O(records) I/O, payloads untouched, so
// opening a large store is cheap); the walk stops at the first broken frame
// (a torn tail, header garbage) and the next append truncates that
// unreliable tail. Content verification happens on every load, where it
// matters: the payload checksum is re-checked, the bytes are parsed
// defensively (every Graph invariant is re-established), and the content
// key is re-derived — a graph record must fingerprint to its key, a
// pipeline record must embed its exact key. Any mismatch reads as
// "absent", counted in `corrupt_pages`, and de-indexes the record and
// everything appended after it so the next write-back truncates the rot
// away: the caller silently rebuilds, the store converges back to clean,
// and a stale or corrupt file can never poison a session. (Rot inside a
// superseded record that no load ever touches is surfaced by Fsck's deep
// scan, not by sessions.) Records are append-mostly — a rewrite appends a
// fresh page and the directory points at the newest valid record per key.
//
// Concurrency: all methods are thread-safe (one internal mutex over the
// directory and the page file). Across processes the page file's flock
// protocol applies, so N processes may serve one store file: appends never
// interleave, a reader never observes a half-written page, and a repair
// re-checks the file under the exclusive lock, so it never discards another
// handle's records (store/page_file.h). Asynchronous write-back
// (PutPipelineAsync) runs on an owned background thread so a mining hot path
// never blocks on disk; Flush() drains it, and the destructor drains before
// closing.
//
// Determinism: payloads carry exact IEEE-754 bit patterns, so an artifact
// loaded from the store is bit-identical to the one written — a
// store-warmed solve equals a cold-built one bit for bit (pinned by
// tests/store/artifact_store_test.cc and the bench_cold_start cycle).

#ifndef DCS_STORE_ARTIFACT_STORE_H_
#define DCS_STORE_ARTIFACT_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/pipeline_cache.h"
#include "graph/graph.h"
#include "store/page_file.h"
#include "util/status.h"

namespace dcs {

/// Store-level tuning.
struct ArtifactStoreOptions {
  /// Create the file (with a fresh superblock) when absent. When false,
  /// opening a missing file fails with NotFound.
  bool create_if_missing = true;
  /// fsync after every append. Off by default: the store is a cache of
  /// rebuildable artifacts, so losing a tail on power failure only costs a
  /// rebuild — the checksummed scan recovers the valid prefix either way.
  bool sync_writes = false;
  /// Transient-I/O retry budget: a failing pread/pwrite inside one append or
  /// payload read is retried up to this many extra times before the error
  /// surfaces (counted in stats().io_retries). 0 disables retrying.
  uint32_t max_io_retries = 3;
  /// Base of the deterministic exponential backoff between retries: attempt
  /// k sleeps retry_backoff_ms * 2^k milliseconds. No jitter on purpose —
  /// recovery timing is reproducible, which the chaos tests and
  /// bench_fault_recovery rely on.
  double retry_backoff_ms = 0.5;
};

/// Store-lifetime counters (since Open).
struct ArtifactStoreStats {
  /// Valid records currently indexed, by type.
  uint64_t graph_records = 0;
  uint64_t pipeline_records = 0;
  /// Pages rejected — bad magic, truncated frame, checksum or content-key
  /// mismatch — at scan time or on a load.
  uint64_t corrupt_pages = 0;
  /// Records appended through this handle (sync and async).
  uint64_t appended_records = 0;
  /// Loads served (LoadGraph/LoadPipeline/warm boots) and loads that found
  /// no valid record.
  uint64_t loads = 0;
  uint64_t load_misses = 0;
  /// Async write-backs that failed after exhausting the retry budget. Never
  /// silent: the most recent failure is retained (last_write_error()),
  /// returned by Flush(), and feeds the session degradation ladder.
  uint64_t write_errors = 0;
  /// Transient I/O attempts that were retried (reads and writes, including
  /// retries that ultimately failed).
  uint64_t io_retries = 0;
  /// Bytes appends through this handle discarded: an unreliable tail cut
  /// back to the last frame that still verifies, or a whole untrusted file
  /// rewritten from scratch. The opening scan itself never modifies the file.
  uint64_t truncated_tail_bytes = 0;
  /// Current file size in bytes.
  uint64_t file_bytes = 0;
};

/// One indexed record page, for `dcs_store ls` and tests: type 1 = graph
/// (key = content fingerprint), 2 = pipeline (key = key hash).
using ArtifactRecordInfo = PageRecordInfo;

/// Offline integrity report, for `dcs_store fsck/stat`.
using ArtifactFsckReport = PageFsckReport;

/// \brief Single-file, checksummed, fingerprint-keyed store of graphs and
/// prepared pipelines. See the file comment for the trust, concurrency and
/// determinism contract.
class ArtifactStore {
 public:
  /// Current on-disk format version; a file with a newer version is treated
  /// as unreadable (rebuild-and-overwrite), never half-parsed.
  static constexpr uint32_t kFormatVersion = 1;

  /// Record type tags, as stored in the page header.
  static constexpr uint32_t kGraphRecord = 1;
  static constexpr uint32_t kPipelineRecord = 2;

  /// The store's page-file format: magic "DCSSTOR1", kFormatVersion, record
  /// types kGraphRecord..kPipelineRecord.
  static const PageFormat kPageFormat;

  /// \brief Opens (or creates) the store at `path`, validates the
  /// superblock, and indexes every valid record.
  ///
  /// A bad superblock — wrong magic, foreign endianness, future version, or
  /// a checksum mismatch — marks the whole file untrusted: the store opens
  /// empty and the first append rewrites the file from scratch. I/O errors
  /// (unreachable path, permissions) fail the open.
  static Result<std::shared_ptr<ArtifactStore>> Open(
      std::string path, ArtifactStoreOptions options = {});

  /// Drains the async write-back queue, then closes the file.
  ~ArtifactStore();

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// \brief Appends `graph` keyed by its ContentFingerprint (synchronous).
  Status PutGraph(const Graph& graph);

  /// \brief Loads the graph with `fingerprint`; NotFound when absent or
  /// when the only record is corrupt (which also counts a corrupt page).
  Result<Graph> LoadGraph(uint64_t fingerprint);

  /// True when a record page is indexed under `fingerprint` (no payload
  /// verification — a cheap existence probe to skip redundant PutGraphs).
  bool ContainsGraph(uint64_t fingerprint) const;

  /// \brief Appends `pipeline` under `key` (synchronous).
  Status PutPipeline(const PipelineCacheKey& key,
                     const PreparedPipeline& pipeline);

  /// \brief Enqueues `pipeline` for the background writer and returns
  /// immediately — the publish/republish hot path never blocks on disk.
  /// Write failures are absorbed into stats().write_errors.
  void PutPipelineAsync(const PipelineCacheKey& key,
                        std::shared_ptr<const PreparedPipeline> pipeline);

  /// \brief Loads the pipeline stored under `key`; NotFound when absent,
  /// corrupt, or when the stored record's exact key differs (hash
  /// collision).
  Result<PreparedPipeline> LoadPipeline(const PipelineCacheKey& key);

  /// \brief Hydrates every valid stored pipeline of `graph_fingerprint`
  /// into `cache` (PipelineCache::Publish) — the warm-boot path a session
  /// runs when it attaches the store. Corrupt records are skipped (and
  /// counted); returns the number hydrated.
  size_t WarmBootFingerprint(uint64_t graph_fingerprint, PipelineCache* cache);

  /// WarmBootFingerprint over every stored pipeline regardless of
  /// fingerprint (tools and multi-tenant boots). Returns the number hydrated.
  size_t WarmBootAll(PipelineCache* cache);

  /// \brief Blocks until the async write-back queue is empty and idle, then
  /// returns the most recent async write failure (OK when every write-back
  /// since Open landed) — the synchronous observation point for errors the
  /// async path would otherwise only count.
  Status Flush();

  /// The most recent async write-back failure; OK when none occurred.
  /// Non-blocking (does not drain the queue — Flush() does).
  Status last_write_error() const;

  /// Point-in-time counters.
  ArtifactStoreStats stats() const;

  /// The indexed records, offset-ascending (newest record wins per key, so
  /// a key superseded by a later append lists only once).
  std::vector<ArtifactRecordInfo> ListRecords() const;

  const std::string& path() const { return path_; }

  /// \brief Offline integrity check of the file at `path` — validates the
  /// superblock and every page checksum without opening a store handle.
  /// Fails only on I/O errors; corruption is reported, not failed.
  static Result<ArtifactFsckReport> Fsck(const std::string& path);

 private:
  struct PendingWrite {
    PipelineCacheKey key;
    std::shared_ptr<const PreparedPipeline> pipeline;
  };

  ArtifactStore(std::string path, ArtifactStoreOptions options);

  // Appends one record page, then fsyncs under sync_writes. Mutex held.
  Status AppendLocked(uint32_t type, uint64_t key, const std::string& payload);
  // Reads and verifies the payload of `entry`; a failure counts a corrupt
  // page and de-indexes the record and everything after it so the next
  // append truncates the rot. Mutex held.
  Status ReadPayloadLocked(const ArtifactRecordInfo& entry,
                           std::vector<uint8_t>* payload);
  // Background thread: drains pending_writes_, appending each under mutex_
  // and counting a failure in the same critical section.
  void WriterLoop();

  const std::string path_;
  const ArtifactStoreOptions options_;

  mutable std::mutex mutex_;
  std::unique_ptr<PageFile> file_;
  // Newest valid record per (type, key), fed by file_'s frame sink.
  std::unordered_map<uint64_t, ArtifactRecordInfo> graphs_;
  std::unordered_map<uint64_t, ArtifactRecordInfo> pipelines_;
  // Stats (mutex-guarded); the I/O counters live in file_.
  uint64_t corrupt_pages_ = 0;
  uint64_t loads_ = 0;
  uint64_t load_misses_ = 0;
  uint64_t write_errors_ = 0;
  // Most recent async write-back failure (mutex_-guarded, like the stats).
  Status last_write_error_;

  // Async writer.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable queue_idle_cv_;
  std::deque<PendingWrite> pending_writes_;
  bool writer_busy_ = false;
  bool shutdown_ = false;
  std::thread writer_;
};

}  // namespace dcs

#endif  // DCS_STORE_ARTIFACT_STORE_H_
