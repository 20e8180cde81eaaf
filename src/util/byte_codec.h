// Little-endian fixed-width byte codec shared by every on-disk image: the
// page-file superblock and frame headers (store/page_file.h), the graph CSR
// payload (graph/serialize.h), the artifact store's pipeline payload and the
// job journal's record payloads.
//
// Appends write the host representation byte for byte (every supported
// target is little-endian; the page-file superblock carries an endianness
// tag that rejects a foreign file). Reads are bounds-checked against the
// span: a read that would run past the end returns false and leaves the
// cursor untouched, so a truncated payload can never be over-read. Doubles
// travel as their exact IEEE-754 bit pattern, which is what makes every
// persisted artifact bit-identical after a round trip.

#ifndef DCS_UTIL_BYTE_CODEC_H_
#define DCS_UTIL_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

namespace dcs {

inline void AppendU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

inline void AppendU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

inline bool ReadU32(std::span<const uint8_t> bytes, size_t* cursor,
                    uint32_t* v) {
  if (bytes.size() - *cursor < 4) return false;
  std::memcpy(v, bytes.data() + *cursor, 4);
  *cursor += 4;
  return true;
}

inline bool ReadU64(std::span<const uint8_t> bytes, size_t* cursor,
                    uint64_t* v) {
  if (bytes.size() - *cursor < 8) return false;
  std::memcpy(v, bytes.data() + *cursor, 8);
  *cursor += 8;
  return true;
}

inline void AppendDoubleBits(double v, std::string* out) {
  AppendU64(std::bit_cast<uint64_t>(v), out);
}

inline bool ReadDoubleBits(std::span<const uint8_t> bytes, size_t* cursor,
                           double* v) {
  uint64_t b = 0;
  if (!ReadU64(bytes, cursor, &b)) return false;
  *v = std::bit_cast<double>(b);
  return true;
}

/// A u32 length prefix followed by the raw bytes.
inline void AppendString(const std::string& s, std::string* out) {
  AppendU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

inline bool ReadString(std::span<const uint8_t> bytes, size_t* cursor,
                       std::string* s) {
  uint32_t len = 0;
  size_t at = *cursor;
  if (!ReadU32(bytes, &at, &len) || bytes.size() - at < len) return false;
  s->assign(reinterpret_cast<const char*>(bytes.data() + at), len);
  *cursor = at + len;
  return true;
}

}  // namespace dcs

#endif  // DCS_UTIL_BYTE_CODEC_H_
