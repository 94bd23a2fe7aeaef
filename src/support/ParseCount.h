//===- support/ParseCount.h - Digits-only count parsing ---------*- C++ -*-===//
///
/// \file
/// The one parser behind every count-valued CLI flag, daemon request
/// parameter and tenant-budget field: unsigned decimal digits only. A
/// sign, space, suffix or empty string is rejected (strtoull would accept
/// a sign and silently wrap "-1"), and a value past UINT64_MAX is out of
/// range. Callers apply their own minimum and maximum and word their own
/// message.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SUPPORT_PARSECOUNT_H
#define SUS_SUPPORT_PARSECOUNT_H

#include <charconv>
#include <cstdint>
#include <string_view>

namespace sus {

enum class CountParse { Ok, NotDigits, OutOfRange };

/// Parses \p Text into \p Out; \p Out is untouched unless the result is Ok.
inline CountParse parseCount(std::string_view Text, uint64_t &Out) {
  if (Text.empty() || Text.find_first_not_of("0123456789") != Text.npos)
    return CountParse::NotDigits;
  // Digits only, so the one possible failure is overflow.
  if (std::from_chars(Text.data(), Text.data() + Text.size(), Out).ec !=
      std::errc())
    return CountParse::OutOfRange;
  return CountParse::Ok;
}

} // namespace sus

#endif // SUS_SUPPORT_PARSECOUNT_H
