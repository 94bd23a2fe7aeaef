//===- daemon/Protocol.h - The susd wire protocol ---------------*- C++ -*-===//
///
/// \file
/// The line-oriented request/response protocol between susd and
/// `susc --connect`. Deliberately trivial — one request line, one
/// response header line, one opaque payload — so a client is a few
/// dozen lines in any language and the daemon never parses attacker-
/// shaped framing with more state than a split-on-space.
///
/// Request:   `sus/1 <verb> [key=value]...\n`
/// Response:  `sus/1 <exit> <payload-bytes>\n` followed by exactly that
///            many payload bytes (the tool output; exit is the code the
///            client should exit with, same contract as plain susc).
///
/// Keys and values are percent-escaped (%XX for '%', ' ', '=', and
/// control bytes including newline), so arbitrary strings survive the
/// space/equals framing. A request line is capped at 64 KiB — longer
/// lines are a protocol error, not an allocation — and must arrive
/// within RequestReadTimeoutMs of the daemon starting to read it.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_DAEMON_PROTOCOL_H
#define SUS_DAEMON_PROTOCOL_H

#include <cstdint>
#include <map>
#include <string>

namespace sus {
namespace daemon {

/// Cap on one request line (framing included). Far above any real
/// request, low enough that a hostile peer cannot balloon the daemon.
constexpr size_t MaxRequestLine = 64 * 1024;

/// How long the daemon waits for a connection's request line. A client
/// that connects and stays silent gets an exit-2 response after this and
/// frees its worker; real clients send the line as soon as they connect.
constexpr int RequestReadTimeoutMs = 5000;

/// A parsed request: a verb plus string parameters.
struct Request {
  std::string Verb;
  std::map<std::string, std::string> Params;

  /// The value of \p Key, or \p Default when absent.
  std::string param(const std::string &Key,
                    const std::string &Default = "") const {
    auto It = Params.find(Key);
    return It == Params.end() ? Default : It->second;
  }
  bool has(const std::string &Key) const { return Params.count(Key) != 0; }
};

/// A response: the exit code the client should propagate plus the tool
/// output to print.
struct Response {
  int Exit = 0;
  std::string Body;
};

/// Percent-escapes '%', ' ', '=' and control bytes (so tokens survive
/// the space framing and values the '=' split).
std::string escape(const std::string &S);

/// Reverses escape(). Malformed escapes (truncated or non-hex) fail.
bool unescape(const std::string &S, std::string &Out);

/// Renders a request line (without the trailing newline).
std::string formatRequest(const Request &R);

/// Parses a request line (no trailing newline). On failure \p Err holds
/// a one-line diagnostic.
bool parseRequest(const std::string &Line, Request &R, std::string &Err);

/// Renders the response header line (without the payload).
std::string formatResponseHeader(const Response &R);

/// Parses a response header line; \p PayloadLen receives the byte count
/// that follows on the wire.
bool parseResponseHeader(const std::string &Line, int &Exit,
                         uint64_t &PayloadLen, std::string &Err);

} // namespace daemon
} // namespace sus

#endif // SUS_DAEMON_PROTOCOL_H
