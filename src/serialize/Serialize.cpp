//===- serialize/Serialize.cpp - Versioned binary snapshot bytes ----------===//

#include "serialize/Serialize.h"

#include <algorithm>

using namespace sus;
using namespace sus::serialize;

uint64_t sus::serialize::fnv1a64(std::string_view Bytes) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  for (char C : Bytes) {
    Hash ^= static_cast<uint8_t>(C);
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

void Writer::putU16(uint16_t V) {
  putU8(static_cast<uint8_t>(V));
  putU8(static_cast<uint8_t>(V >> 8));
}

void Writer::putU32(uint32_t V) {
  putU8(static_cast<uint8_t>(V));
  putU8(static_cast<uint8_t>(V >> 8));
  putU8(static_cast<uint8_t>(V >> 16));
  putU8(static_cast<uint8_t>(V >> 24));
}

void Writer::putU64(uint64_t V) {
  putU32(static_cast<uint32_t>(V));
  putU32(static_cast<uint32_t>(V >> 32));
}

void Writer::putString(std::string_view Str) {
  putU32(static_cast<uint32_t>(Str.size()));
  putBytes(Str);
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

bool Reader::need(size_t N) {
  if (Failed)
    return false;
  if (Buf.size() - Pos < N) {
    fail("unexpected end of snapshot data");
    return false;
  }
  return true;
}

void Reader::fail(std::string Msg) {
  if (!Failed) {
    Failed = true;
    Err = std::move(Msg);
  }
}

uint8_t Reader::getU8() {
  if (!need(1))
    return 0;
  return static_cast<uint8_t>(Buf[Pos++]);
}

uint16_t Reader::getU16() {
  // Whole-width bounds check first: an underrun must yield 0, never a
  // value assembled from the bytes that did fit.
  if (!need(2))
    return 0;
  uint16_t Lo = getU8();
  uint16_t Hi = getU8();
  return static_cast<uint16_t>(Lo | (Hi << 8));
}

uint32_t Reader::getU32() {
  if (!need(4))
    return 0;
  // Fetch bytes before assembling: evaluation order of | operands is
  // unspecified, so each byte is pulled through a named sequence point.
  uint32_t B0 = getU8();
  uint32_t B1 = getU8();
  uint32_t B2 = getU8();
  uint32_t B3 = getU8();
  return B0 | (B1 << 8) | (B2 << 16) | (B3 << 24);
}

uint64_t Reader::getU64() {
  if (!need(8))
    return 0;
  uint64_t Lo = getU32();
  uint64_t Hi = getU32();
  return Lo | (Hi << 32);
}

std::string_view Reader::getBytes(size_t N) {
  if (!need(N))
    return {};
  std::string_view Out = Buf.substr(Pos, N);
  Pos += N;
  return Out;
}

std::string_view Reader::getString() {
  uint32_t Len = getU32();
  return getBytes(Len);
}

bool Reader::checkCount(uint64_t Count, size_t MinRecordSize,
                        const char *What) {
  if (Failed)
    return false;
  uint64_t Min = MinRecordSize == 0 ? 1 : MinRecordSize;
  if (Count > remaining() / Min) {
    fail(std::string(What) + " count corrupt (" + std::to_string(Count) +
         " records cannot fit in " + std::to_string(remaining()) +
         " remaining bytes)");
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// SectionWriter / SectionReader
//===----------------------------------------------------------------------===//

void SectionWriter::addSection(SectionTag Tag, std::string Payload) {
  Sections.emplace_back(Tag, std::move(Payload));
}

std::string SectionWriter::finish() const {
  Writer W;
  W.putBytes(std::string_view(Magic, sizeof(Magic)));
  W.putU32(FormatVersion);
  W.putU32(static_cast<uint32_t>(Sections.size()));
  for (const auto &[Tag, Payload] : Sections) {
    W.putU32(static_cast<uint32_t>(Tag));
    W.putU64(Payload.size());
    W.putU64(fnv1a64(Payload));
    W.putBytes(Payload);
  }
  return W.take();
}

namespace {

bool knownTag(uint32_t Tag) {
  return Tag >= static_cast<uint32_t>(SectionTag::Strings) &&
         Tag <= static_cast<uint32_t>(SectionTag::Index);
}

} // namespace

SectionReader::SectionReader(std::string_view Bytes) {
  Reader R(Bytes);
  std::string_view Head = R.getBytes(sizeof(Magic));
  if (R.failed() || Head != std::string_view(Magic, sizeof(Magic))) {
    Err = "not a susd snapshot (bad magic)";
    return;
  }
  uint32_t Version = R.getU32();
  if (R.failed()) {
    Err = "not a susd snapshot (truncated header)";
    return;
  }
  if (Version != FormatVersion) {
    Err = "unsupported snapshot format version " + std::to_string(Version) +
          " (this build reads version " + std::to_string(FormatVersion) + ")";
    return;
  }
  uint32_t Count = R.getU32();
  if (!R.checkCount(Count, 20, "section")) {
    Err = R.failed() ? R.error() : "truncated section table";
    return;
  }
  for (uint32_t I = 0; I < Count; ++I) {
    uint32_t Tag = R.getU32();
    uint64_t Len = R.getU64();
    uint64_t Sum = R.getU64();
    if (R.failed()) {
      Err = R.error();
      return;
    }
    if (!knownTag(Tag)) {
      Err = "unknown snapshot section tag " + std::to_string(Tag);
      return;
    }
    SectionTag T = static_cast<SectionTag>(Tag);
    for (const auto &[Seen, Payload] : Sections)
      if (Seen == T) {
        Err = "duplicate snapshot section tag " + std::to_string(Tag);
        return;
      }
    if (Len > R.remaining()) {
      Err = "snapshot section " + std::to_string(Tag) +
            " truncated (declares " + std::to_string(Len) + " bytes, " +
            std::to_string(R.remaining()) + " remain)";
      return;
    }
    std::string_view Payload = R.getBytes(static_cast<size_t>(Len));
    if (fnv1a64(Payload) != Sum) {
      Err = "snapshot section " + std::to_string(Tag) +
            " checksum mismatch (corrupt data)";
      return;
    }
    Sections.emplace_back(T, Payload);
  }
  if (!R.atEnd()) {
    Err = "trailing bytes after the last snapshot section";
    Sections.clear();
  }
}

std::optional<std::string_view> SectionReader::section(SectionTag Tag) const {
  for (const auto &[T, Payload] : Sections)
    if (T == Tag)
      return Payload;
  return std::nullopt;
}
