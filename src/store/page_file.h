// PageFile — the one on-disk format and file protocol under the artifact
// store (store/artifact_store.h) and the job journal (store/job_journal.h).
//
// Format. A fixed 32-byte superblock — magic u64 | version u32 | endianness
// tag u32 | checksum u64 of the preceding 16 bytes | reserved u64 — then an
// append-only log of record frames. A frame is a 32-byte page header —
// "PAGE" magic u32 | record type u32 | key u64 | payload_bytes u64 |
// util/checksum.h payload checksum u64 — followed by the payload. Owners
// differ only in their PageFormat: superblock magic, format version and the
// valid record-type range; the payload schemas are theirs alone.
//
// Trust model. The file is never trusted. Opening walks the frame chain
// structurally (headers only, O(records) I/O) and stops at the first broken
// frame; payload checksums are verified where the bytes are used
// (ReadPayload) and by the offline Fsck. A handle that finds a broken or
// rotted frame marks its tail unreliable from there, and the next append or
// TruncateUnreliableTail repairs it.
//
// Cross-process protocol. Every read holds a shared flock, every append and
// repair an exclusive one, so N handles in one or many processes may share
// a file. An append writes at the true end of file, never over another
// handle's frames. A repair never trusts this handle's view of the file: it
// re-reads the superblock and re-walks the frames from the handle's
// reliable end while it holds the exclusive lock, adopts every frame that
// verifies (another handle may have created the file or appended since this
// handle looked), and cuts only from the first frame that still fails. The
// whole file is rewritten only when its superblock is absent or untrusted.
//
// Thread safety: none. Owners serialize calls under their own mutex.

#ifndef DCS_STORE_PAGE_FILE_H_
#define DCS_STORE_PAGE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace dcs {

inline constexpr size_t kSuperblockBytes = 32;
inline constexpr size_t kPageHeaderBytes = 32;

/// What distinguishes one page-file owner's files from another's.
struct PageFormat {
  const char* name;       ///< "artifact store", "job journal" (messages)
  uint64_t magic;         ///< superblock magic
  uint32_t version;       ///< the one readable format version
  uint32_t min_type;      ///< valid record types, inclusive range
  uint32_t max_type;
  const char* append_site;  ///< fault site hit per append attempt
  const char* read_site;    ///< fault site hit per payload read, or nullptr
};

/// One record frame: its header fields and where it sits in the file.
struct PageRecordInfo {
  uint32_t type = 0;
  /// Content fingerprint or key hash (artifact store), job id (journal).
  uint64_t key = 0;
  uint64_t offset = 0;  ///< of the page header
  uint64_t payload_bytes = 0;
};

/// Offline integrity report, for `dcs_store fsck/stat`.
struct PageFsckReport {
  bool superblock_ok = false;
  uint32_t format_version = 0;
  uint64_t valid_records = 0;
  uint64_t corrupt_pages = 0;
  /// Bytes past the last valid record (the tail a writer would truncate).
  uint64_t unreliable_tail_bytes = 0;
  uint64_t file_bytes = 0;
};

/// Handle-lifetime counters.
struct PageFileCounters {
  uint64_t appended_records = 0;
  /// Transient I/O attempts that were retried (appends and payload reads).
  uint64_t io_retries = 0;
  /// Repairs that discarded bytes, and the bytes they discarded (a cut
  /// tail, or a whole untrusted file that was rewritten).
  uint64_t truncations = 0;
  uint64_t truncated_tail_bytes = 0;
};

/// Open and retry policy; mirrors the owners' option fields.
struct PageFileOptions {
  bool create_if_missing = true;
  uint32_t max_io_retries = 3;
  double retry_backoff_ms = 0.5;
};

/// The superblock and page-header images (exposed for the format-pin test).
std::string EncodeSuperblock(const PageFormat& format);
std::string EncodePageHeader(uint32_t type, uint64_t key,
                             const std::string& payload);

/// \brief flock() held for one read or append. Advisory: every handle takes
/// it around file I/O, so appends never interleave and reads never observe
/// a torn append. EINTR is retried; a failing flock() — or the store.flock
/// fault site — degrades to lockless I/O (single-process use stays correct
/// under the owner's mutex).
class ScopedFileLock {
 public:
  ScopedFileLock(int fd, bool exclusive);
  ~ScopedFileLock();
  ScopedFileLock(const ScopedFileLock&) = delete;
  ScopedFileLock& operator=(const ScopedFileLock&) = delete;

 private:
  int fd_;
};

/// \brief One open page file. See the file comment for the format, trust
/// and cross-process contract.
class PageFile {
 public:
  /// Receives every frame the handle indexes — by the opening scan, by a
  /// repair that adopts other handles' frames, and by its own appends — in
  /// ascending offset order.
  using FrameSink = std::function<void(const PageRecordInfo&)>;
  /// Told that every frame reported so far is gone (a rescan starts, or an
  /// untrusted file was rewritten).
  using ResetSink = std::function<void()>;

  /// \brief Opens (or creates) the file; does not read it (see Scan). Fails
  /// with NotFound when absent and not created, IoError otherwise.
  static Result<std::unique_ptr<PageFile>> Open(const std::string& path,
                                                const PageFormat& format,
                                                const PageFileOptions& options,
                                                FrameSink on_frame,
                                                ResetSink on_reset);
  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// \brief Structural walk under a shared lock: validates the superblock and
  /// reports each well-framed record. Returns false when it met corruption
  /// (an untrusted superblock or a broken frame) — one corrupt page.
  bool Scan();

  /// \brief Appends one frame under the exclusive lock: repairs an unreliable
  /// tail first, then writes at the true end of file, retrying transient
  /// failures with deterministic exponential backoff.
  Status Append(uint32_t type, uint64_t key, const std::string& payload);

  /// \brief Reads and verifies the payload of `frame` — header match and
  /// payload checksum. The caller holds LockShared(). Fails on I/O errors
  /// (after retries) and on any mismatch.
  Status ReadPayload(const PageRecordInfo& frame,
                     std::vector<uint8_t>* payload);

  /// A shared file lock for a run of ReadPayload calls.
  [[nodiscard]] ScopedFileLock LockShared() const;

  /// Marks the frame at `offset` and everything after it as rot for the next
  /// repair to re-check.
  void MarkUnreliableFrom(uint64_t offset);

  /// Repairs an unreliable tail now, under the exclusive lock. No-op when
  /// the tail is reliable.
  Status TruncateUnreliableTail();

  /// fsync, checking `fault_site` first when non-null.
  Status Sync(const char* fault_site = nullptr);

  /// Current file size; 0 when fstat fails.
  uint64_t FileBytes() const;

  const PageFileCounters& counters() const { return counters_; }

  /// \brief Offline check of the file at `path`: superblock and every payload
  /// checksum. Fails only on I/O errors; corruption is reported.
  static Result<PageFsckReport> Fsck(const std::string& path,
                                     const PageFormat& format);

 private:
  PageFile(const PageFormat& format, const PageFileOptions& options, int fd,
           FrameSink on_frame, ResetSink on_reset);

  // Walks frames from reliable_end_ to `size`, reporting and advancing past
  // each one that is well framed (and, with `verify`, checksum-valid). On
  // the first one that is not, marks the tail unreliable and returns false.
  bool WalkFrames(uint64_t size, bool verify);
  // The repair, exclusive lock held. See the file comment.
  Status RepairTailLocked();
  // Runs `op` with the retry policy, hitting `fault_site` per attempt.
  Status WithRetries(const char* fault_site,
                     const std::function<Status()>& op);

  const PageFormat& format_;
  const PageFileOptions options_;
  const int fd_;
  FrameSink on_frame_;
  ResetSink on_reset_;
  // First byte past the last frame this handle knows to be valid.
  uint64_t reliable_end_ = 0;
  bool tail_unreliable_ = true;
  PageFileCounters counters_;
};

}  // namespace dcs

#endif  // DCS_STORE_PAGE_FILE_H_
