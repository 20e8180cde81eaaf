#include "store/page_file.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/byte_codec.h"
#include "util/checksum.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace dcs {

namespace {

// "PAGE" as a little-endian u32; the same frame magic in every owner's file
// (the superblock magic is what tells the files apart).
constexpr uint32_t kPageMagic = 0x45474150u;
constexpr uint32_t kEndianTag = 0x01020304u;

struct PageHeader {
  uint32_t type = 0;
  uint64_t key = 0;
  uint64_t payload_bytes = 0;
  uint64_t checksum = 0;
};

// Validates a superblock image; reports the version it claims (0 when the
// magic/endianness/checksum already disqualify it).
bool ValidSuperblock(const PageFormat& format, std::span<const uint8_t> bytes,
                     uint32_t* version) {
  *version = 0;
  if (bytes.size() < kSuperblockBytes) return false;
  size_t cursor = 0;
  uint64_t magic = 0, checksum = 0;
  uint32_t file_version = 0, endian = 0;
  ReadU64(bytes, &cursor, &magic);
  ReadU32(bytes, &cursor, &file_version);
  ReadU32(bytes, &cursor, &endian);
  ReadU64(bytes, &cursor, &checksum);
  if (magic != format.magic || endian != kEndianTag ||
      checksum != PageChecksum(bytes.data(), 16)) {
    return false;
  }
  *version = file_version;
  // A future format version is unreadable by construction: treat the whole
  // file as untrusted rather than guessing at its layout.
  return file_version == format.version;
}

bool ParsePageHeader(const PageFormat& format, std::span<const uint8_t> bytes,
                     size_t* cursor, PageHeader* header) {
  uint32_t magic = 0;
  return ReadU32(bytes, cursor, &magic) && magic == kPageMagic &&
         ReadU32(bytes, cursor, &header->type) &&
         header->type >= format.min_type && header->type <= format.max_type &&
         ReadU64(bytes, cursor, &header->key) &&
         ReadU64(bytes, cursor, &header->payload_bytes) &&
         ReadU64(bytes, cursor, &header->checksum);
}

Status Errno(const char* call) {
  return Status::IoError(std::string(call) + " failed: " +
                         std::strerror(errno));
}

Result<uint64_t> FileSize(int fd) {
  struct stat st;
  if (fstat(fd, &st) != 0) return Errno("fstat");
  return static_cast<uint64_t>(st.st_size);
}

Status ReadExact(int fd, uint64_t offset, size_t size, uint8_t* out) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = pread(fd, out + done, size - done,
                            static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pread");
    }
    if (n == 0) return Status::IoError("unexpected end of file");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteExact(int fd, uint64_t offset, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = pwrite(fd, bytes.data() + done, bytes.size() - done,
                             static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pwrite");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

// True when the file at `fd` opens with a valid superblock of `format`.
bool TrustedSuperblock(int fd, const PageFormat& format) {
  uint8_t superblock[kSuperblockBytes];
  uint32_t version = 0;
  return ReadExact(fd, 0, kSuperblockBytes, superblock).ok() &&
         ValidSuperblock(format, superblock, &version);
}

Result<int> OpenFd(const std::string& path, const PageFormat& format,
                   int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  if (fd >= 0) return fd;
  const std::string reason = std::strerror(errno);
  if (errno == ENOENT) {
    return Status::NotFound(std::string(format.name) + " " + path + ": " +
                            reason);
  }
  return Status::IoError(std::string("cannot open ") + format.name + " " +
                         path + ": " + reason);
}

}  // namespace

// ---- codec -----------------------------------------------------------------

std::string EncodeSuperblock(const PageFormat& format) {
  std::string out;
  out.reserve(kSuperblockBytes);
  AppendU64(format.magic, &out);
  AppendU32(format.version, &out);
  AppendU32(kEndianTag, &out);
  AppendU64(PageChecksum(out.data(), out.size()), &out);
  AppendU64(0, &out);  // reserved
  DCS_CHECK(out.size() == kSuperblockBytes);
  return out;
}

std::string EncodePageHeader(uint32_t type, uint64_t key,
                             const std::string& payload) {
  std::string out;
  out.reserve(kPageHeaderBytes);
  AppendU32(kPageMagic, &out);
  AppendU32(type, &out);
  AppendU64(key, &out);
  AppendU64(payload.size(), &out);
  AppendU64(PageChecksum(payload.data(), payload.size()), &out);
  DCS_CHECK(out.size() == kPageHeaderBytes);
  return out;
}

// ---- advisory file locking -------------------------------------------------

ScopedFileLock::ScopedFileLock(int fd, bool exclusive) : fd_(fd) {
  // The store.flock fault site models a failing flock() for every page
  // file — the lock degrades to lockless I/O, exactly the real-error path.
  if (FaultHit(fault_sites::kStoreFlock)) {
    fd_ = -1;
    return;
  }
  while (flock(fd_, exclusive ? LOCK_EX : LOCK_SH) != 0 && errno == EINTR) {
  }
}

ScopedFileLock::~ScopedFileLock() {
  if (fd_ < 0) return;
  while (flock(fd_, LOCK_UN) != 0 && errno == EINTR) {
  }
}

// ---- open / scan -----------------------------------------------------------

PageFile::PageFile(const PageFormat& format, const PageFileOptions& options,
                   int fd, FrameSink on_frame, ResetSink on_reset)
    : format_(format),
      options_(options),
      fd_(fd),
      on_frame_(std::move(on_frame)),
      on_reset_(std::move(on_reset)) {}

PageFile::~PageFile() { ::close(fd_); }

Result<std::unique_ptr<PageFile>> PageFile::Open(
    const std::string& path, const PageFormat& format,
    const PageFileOptions& options, FrameSink on_frame, ResetSink on_reset) {
  DCS_ASSIGN_OR_RETURN(
      const int fd,
      OpenFd(path, format,
             options.create_if_missing ? (O_RDWR | O_CREAT) : O_RDWR));
  return std::unique_ptr<PageFile>(new PageFile(
      format, options, fd, std::move(on_frame), std::move(on_reset)));
}

bool PageFile::Scan() {
  on_reset_();
  reliable_end_ = 0;
  tail_unreliable_ = true;
  ScopedFileLock file_lock(fd_, /*exclusive=*/false);
  Result<uint64_t> size = FileSize(fd_);
  // Brand-new (or unreadable) file: trust nothing yet; the first append
  // writes the superblock, and until then the file is just empty.
  if (!size.ok() || *size == 0) return true;
  if (!TrustedSuperblock(fd_, format_)) {
    // Wrong magic, foreign endianness, bad checksum or a future format
    // version: the whole file is untrusted. Open empty; the first append
    // rewrites it.
    return false;
  }
  // Structural walk only — O(records) I/O regardless of payload volume.
  // Payloads are verified where they are used (ReadPayload), which is where
  // "never trust the file" is enforced: a record that rots after this scan
  // would dodge an open-time checksum anyway.
  reliable_end_ = kSuperblockBytes;
  tail_unreliable_ = false;
  return WalkFrames(*size, /*verify=*/false);
}

bool PageFile::WalkFrames(uint64_t size, bool verify) {
  std::vector<uint8_t> bytes;
  while (reliable_end_ < size) {
    uint8_t header_bytes[kPageHeaderBytes];
    PageHeader header;
    size_t cursor = 0;
    const uint64_t room = size - reliable_end_;
    bool ok = room >= kPageHeaderBytes &&
              ReadExact(fd_, reliable_end_, kPageHeaderBytes, header_bytes)
                  .ok() &&
              ParsePageHeader(format_, header_bytes, &cursor, &header) &&
              header.payload_bytes <= room - kPageHeaderBytes;
    if (ok && verify) {
      bytes.resize(static_cast<size_t>(header.payload_bytes));
      ok = ReadExact(fd_, reliable_end_ + kPageHeaderBytes, bytes.size(),
                     bytes.data())
               .ok() &&
           PageChecksum(bytes.data(), bytes.size()) == header.checksum;
    }
    if (!ok) {
      // A torn append, header garbage or (verified) rot: everything from
      // here on is unreachable.
      tail_unreliable_ = true;
      return false;
    }
    on_frame_(PageRecordInfo{header.type, header.key, reliable_end_,
                             header.payload_bytes});
    reliable_end_ += kPageHeaderBytes + header.payload_bytes;
  }
  return true;
}

// ---- repair / append -------------------------------------------------------

Status PageFile::RepairTailLocked() {
  DCS_ASSIGN_OR_RETURN(const uint64_t size, FileSize(fd_));
  if (!TrustedSuperblock(fd_, format_)) {
    // Absent or untrusted superblock — checked now, under the exclusive
    // lock, not at open: rewrite the file from scratch.
    if (size > 0) {
      ++counters_.truncations;
      counters_.truncated_tail_bytes += size;
    }
    if (ftruncate(fd_, 0) != 0) return Errno("ftruncate");
    DCS_RETURN_NOT_OK(WriteExact(fd_, 0, EncodeSuperblock(format_)));
    on_reset_();
    reliable_end_ = kSuperblockBytes;
    tail_unreliable_ = false;
    return Status::OK();
  }
  // A trusted superblock, possibly written by another handle since this one
  // scanned. Re-walk from our reliable end with payloads verified: adopt
  // every frame that other handles completed meanwhile, and cut only from
  // the first frame that still fails.
  reliable_end_ = std::max<uint64_t>(reliable_end_, kSuperblockBytes);
  tail_unreliable_ = false;
  if (WalkFrames(size, /*verify=*/true)) return Status::OK();
  ++counters_.truncations;
  counters_.truncated_tail_bytes += size - reliable_end_;
  if (ftruncate(fd_, static_cast<off_t>(reliable_end_)) != 0) {
    return Errno("ftruncate");
  }
  tail_unreliable_ = false;
  return Status::OK();
}

Status PageFile::WithRetries(const char* fault_site,
                             const std::function<Status()>& op) {
  // Only I/O errors retry; the operations target fixed offsets, so a retry
  // over a partial pread/pwrite is idempotent. No jitter on purpose:
  // recovery timing is reproducible, which the chaos tests and
  // bench_fault_recovery rely on.
  for (uint32_t attempt = 0;; ++attempt) {
    const Status status = fault_site != nullptr && FaultHit(fault_site)
                              ? FaultInjection::InjectedError(fault_site)
                              : op();
    if (status.ok() || !status.IsIoError() ||
        attempt >= options_.max_io_retries) {
      return status;
    }
    ++counters_.io_retries;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.retry_backoff_ms * static_cast<double>(1u << attempt)));
  }
}

Status PageFile::Append(uint32_t type, uint64_t key,
                        const std::string& payload) {
  ScopedFileLock file_lock(fd_, /*exclusive=*/true);
  // Another handle may have appended since we last looked; never overwrite
  // its frames — append at the true end of file.
  DCS_ASSIGN_OR_RETURN(uint64_t offset, FileSize(fd_));
  if (offset < reliable_end_) {
    // Another handle cut the file below what this one indexed (it repaired
    // rot this handle never read): any frame reported so far may be stale.
    on_reset_();
    reliable_end_ = 0;
    tail_unreliable_ = true;
  }
  if (tail_unreliable_) {
    DCS_RETURN_NOT_OK(RepairTailLocked());
    offset = reliable_end_;  // the repair leaves the file ending here
  }
  std::string frame = EncodePageHeader(type, key, payload);
  frame += payload;
  DCS_RETURN_NOT_OK(WithRetries(format_.append_site, [&] {
    return WriteExact(fd_, offset, frame);
  }));
  reliable_end_ = offset + frame.size();
  ++counters_.appended_records;
  on_frame_(PageRecordInfo{type, key, offset, payload.size()});
  return Status::OK();
}

Status PageFile::TruncateUnreliableTail() {
  if (!tail_unreliable_) return Status::OK();
  ScopedFileLock file_lock(fd_, /*exclusive=*/true);
  return RepairTailLocked();
}

void PageFile::MarkUnreliableFrom(uint64_t offset) {
  if (!tail_unreliable_ || offset < reliable_end_) {
    reliable_end_ = std::max<uint64_t>(offset, kSuperblockBytes);
    tail_unreliable_ = true;
  }
}

// ---- reads -----------------------------------------------------------------

ScopedFileLock PageFile::LockShared() const {
  return ScopedFileLock(fd_, /*exclusive=*/false);
}

Status PageFile::ReadPayload(const PageRecordInfo& frame,
                             std::vector<uint8_t>* payload) {
  payload->resize(kPageHeaderBytes + static_cast<size_t>(frame.payload_bytes));
  DCS_RETURN_NOT_OK(WithRetries(format_.read_site, [&] {
    return ReadExact(fd_, frame.offset, payload->size(), payload->data());
  }));
  PageHeader header;
  size_t cursor = 0;
  if (!ParsePageHeader(format_, *payload, &cursor, &header) ||
      header.type != frame.type || header.key != frame.key ||
      header.payload_bytes != frame.payload_bytes ||
      PageChecksum(payload->data() + kPageHeaderBytes,
                   static_cast<size_t>(frame.payload_bytes)) !=
          header.checksum) {
    return Status::InvalidArgument(std::string(format_.name) +
                                   " record failed verification");
  }
  payload->erase(payload->begin(), payload->begin() + kPageHeaderBytes);
  return Status::OK();
}

Status PageFile::Sync(const char* fault_site) {
  if (fault_site != nullptr && FaultHit(fault_site)) {
    return FaultInjection::InjectedError(fault_site);
  }
  if (fsync(fd_) != 0) return Errno("fsync");
  return Status::OK();
}

uint64_t PageFile::FileBytes() const {
  Result<uint64_t> size = FileSize(fd_);
  return size.ok() ? *size : 0;
}

Result<PageFsckReport> PageFile::Fsck(const std::string& path,
                                      const PageFormat& format) {
  DCS_ASSIGN_OR_RETURN(const int fd, OpenFd(path, format, O_RDONLY));
  PageFsckReport report;
  std::vector<uint8_t> bytes;
  Status read;
  {
    ScopedFileLock file_lock(fd, /*exclusive=*/false);
    Result<uint64_t> size = FileSize(fd);
    read = size.status();
    if (size.ok()) {
      report.file_bytes = *size;
      bytes.resize(static_cast<size_t>(*size));
      read = ReadExact(fd, 0, bytes.size(), bytes.data());
    }
  }
  ::close(fd);
  DCS_RETURN_NOT_OK(read);

  report.superblock_ok = ValidSuperblock(format, bytes, &report.format_version);
  if (!report.superblock_ok) {
    report.corrupt_pages = bytes.empty() ? 0 : 1;
    report.unreliable_tail_bytes = bytes.size();
    return report;
  }
  size_t cursor = kSuperblockBytes;
  while (cursor < bytes.size()) {
    PageHeader header;
    const size_t record_offset = cursor;
    if (!ParsePageHeader(format, bytes, &cursor, &header) ||
        header.payload_bytes > bytes.size() - cursor ||
        PageChecksum(bytes.data() + cursor,
                     static_cast<size_t>(header.payload_bytes)) !=
            header.checksum) {
      ++report.corrupt_pages;
      report.unreliable_tail_bytes = bytes.size() - record_offset;
      break;
    }
    cursor += static_cast<size_t>(header.payload_bytes);
    ++report.valid_records;
  }
  return report;
}

}  // namespace dcs
