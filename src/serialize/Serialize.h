//===- serialize/Serialize.h - Versioned binary snapshot bytes --*- C++ -*-===//
///
/// \file
/// The byte layer of the persistent-cache snapshot format (DESIGN.md §13):
/// explicit little-endian primitives, a bounds-checked sticky-error Reader,
/// and a tagged-section container with a version header and per-section
/// FNV-1a checksums.
///
/// Container layout (all integers little-endian):
///
///   magic   8 bytes   "SUSSNAP\0"
///   version u32       FormatVersion
///   count   u32       number of sections
///   count × section:
///     tag      u32    SectionTag
///     length   u64    payload byte count
///     checksum u64    fnv1a64(payload)
///     payload  length bytes
///
/// Robustness contract: a loader fed a wrong-version, truncated or
/// bit-flipped snapshot must fail with a clean diagnostic — never UB,
/// never a crash. Everything here is therefore *strict*: unknown section
/// tags, duplicate tags, checksum mismatches and trailing bytes are all
/// hard errors, so any single corrupted byte is caught either by the
/// header checks, a checksum, or the per-field validation in the codecs
/// above this layer (serialize/Snapshot.h). The fuzz harness's corruption
/// oracle (src/fuzz) enforces this bit-for-bit.
///
/// Endianness: byte order is assembled and disassembled explicitly (shift
/// and mask, no memcpy of host integers), so snapshots written on any
/// machine load on any other.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SERIALIZE_SERIALIZE_H
#define SUS_SERIALIZE_SERIALIZE_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sus {
namespace serialize {

/// Bumped on any incompatible layout change; loaders reject mismatches.
constexpr uint32_t FormatVersion = 3;

/// The 8-byte magic prefix of every snapshot.
constexpr char Magic[8] = {'S', 'U', 'S', 'S', 'N', 'A', 'P', '\0'};

/// Section tags. Tags are part of the format: a reader encountering any
/// other tag fails (strictness contract above). Tag 8 held the fused
/// monitor DFAs up to v2; it stays retired.
enum class SectionTag : uint32_t {
  Strings = 1,     ///< Snapshot-local string table.
  Exprs = 2,       ///< Hash-consed expression pool.
  Repository = 3,  ///< (location, service) pairs the snapshot was cut from.
  Projections = 4, ///< VerifierCache projection memo.
  Compliances = 5, ///< VerifierCache compliance verdicts + witnesses.
  Validities = 6,  ///< VerifierCache static-validity verdicts.
  Index = 7,       ///< ServiceIndex per-service contract summaries.
};

/// FNV-1a 64-bit over \p Bytes (the per-section checksum).
uint64_t fnv1a64(std::string_view Bytes);

/// Appends explicit little-endian primitives to a byte buffer.
class Writer {
public:
  void putU8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void putU16(uint16_t V);
  void putU32(uint32_t V);
  void putU64(uint64_t V);
  void putI64(int64_t V) { putU64(static_cast<uint64_t>(V)); }
  void putBytes(std::string_view Bytes) { Buf.append(Bytes); }
  /// u32 length prefix + raw bytes.
  void putString(std::string_view Str);

  size_t size() const { return Buf.size(); }
  std::string take() { return std::move(Buf); }
  const std::string &bytes() const { return Buf; }

private:
  std::string Buf;
};

/// Bounds-checked reader with a sticky error. After any failure every
/// subsequent get* returns 0/empty, so decoders can batch their reads and
/// check failed() once per record — no partial value is ever interpreted.
class Reader {
public:
  explicit Reader(std::string_view Bytes) : Buf(Bytes) {}

  uint8_t getU8();
  uint16_t getU16();
  uint32_t getU32();
  uint64_t getU64();
  int64_t getI64() { return static_cast<int64_t>(getU64()); }
  /// \p N raw bytes; empty view on underrun.
  std::string_view getBytes(size_t N);
  /// u32 length prefix + raw bytes.
  std::string_view getString();

  /// Marks the reader failed with \p Msg (first failure wins).
  void fail(std::string Msg);

  bool failed() const { return Failed; }
  const std::string &error() const { return Err; }

  size_t remaining() const { return Failed ? 0 : Buf.size() - Pos; }
  bool atEnd() const { return Failed || Pos == Buf.size(); }

  /// Sanity-checks an upcoming \p Count records of at least
  /// \p MinRecordSize bytes each against the remaining input, failing
  /// with a "\p What count corrupt" diagnostic when they cannot fit —
  /// the guard that keeps a corrupted count from driving a huge
  /// allocation or a long loop of doomed reads.
  bool checkCount(uint64_t Count, size_t MinRecordSize, const char *What);

private:
  bool need(size_t N);

  std::string_view Buf;
  size_t Pos = 0;
  bool Failed = false;
  std::string Err;
};

/// Assembles a whole snapshot: header + tagged, checksummed sections.
class SectionWriter {
public:
  /// Appends one section. Tags must be distinct (the reader rejects
  /// duplicates).
  void addSection(SectionTag Tag, std::string Payload);

  /// The finished snapshot bytes.
  std::string finish() const;

private:
  std::vector<std::pair<SectionTag, std::string>> Sections;
};

/// Parses and validates a whole snapshot container. Construction runs
/// every header, tag, bounds and checksum check; decoding of section
/// payloads is the codecs' job.
class SectionReader {
public:
  explicit SectionReader(std::string_view Bytes);

  bool ok() const { return Err.empty(); }
  const std::string &error() const { return Err; }

  /// The payload of \p Tag, or std::nullopt when the snapshot has no such
  /// section. Views into the constructor's input; the caller keeps the
  /// bytes alive.
  std::optional<std::string_view> section(SectionTag Tag) const;

private:
  std::string Err;
  std::vector<std::pair<SectionTag, std::string_view>> Sections;
};

} // namespace serialize
} // namespace sus

#endif // SUS_SERIALIZE_SERIALIZE_H
