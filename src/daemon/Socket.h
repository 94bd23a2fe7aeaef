//===- daemon/Socket.h - AF_UNIX plumbing for susd --------------*- C++ -*-===//
///
/// \file
/// Thin blocking AF_UNIX helpers shared by the daemon and the
/// `susc --connect` client: listen/accept with a poll()-based timeout
/// (so the daemon's accept loop can notice a shutdown flag), connect,
/// one buffered reader (capped lines, exact payloads, an optional
/// deadline), and write-all. Every function reports failure through an
/// errno-derived message instead of printing, so callers own the
/// diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_DAEMON_SOCKET_H
#define SUS_DAEMON_SOCKET_H

#include <chrono>
#include <string>
#include <string_view>

namespace sus {
namespace daemon {

/// Creates, binds and listens on an AF_UNIX socket at \p Path (removing
/// a stale socket file first). Returns the listening fd, or -1 with a
/// diagnostic in \p Err. sun_path is finite: overlong paths are rejected
/// up front with a clear message.
int listenOn(const std::string &Path, std::string &Err);

/// Waits up to \p TimeoutMs for a connection. Returns the accepted fd,
/// -1 on timeout, -2 on a hard error (in \p Err).
int acceptClient(int ListenFd, int TimeoutMs, std::string &Err);

/// Connects to the daemon at \p Path. Returns the fd, or -1 with a
/// diagnostic in \p Err.
int connectTo(const std::string &Path, std::string &Err);

/// The one reader of a connection, for both the daemon's request line
/// and the client's response header and payload. It reads through a
/// buffer of a few KiB, so a request line costs one read(2) rather than
/// one per byte, and bytes read past a line stay buffered for the next
/// call: a header and its payload arriving in one segment lose nothing.
///
/// With a deadline, every read first tries a non-blocking recv and
/// polls only when no data is waiting; past the deadline (counted from
/// construction) the read fails. Without one, reads block.
class ConnectionReader {
public:
  /// Reads \p Fd, a connected socket. \p DeadlineMs < 0: no deadline.
  explicit ConnectionReader(int Fd, int DeadlineMs = -1);

  /// Reads bytes up to and including '\n' (stripped from \p Line),
  /// capped at \p MaxLen. False on EOF-before-newline, overflow, expired
  /// deadline or error.
  bool readLine(std::string &Line, size_t MaxLen, std::string &Err);

  /// Reads exactly \p Len bytes into \p Out. False on short read.
  bool readExact(size_t Len, std::string &Out, std::string &Err);

private:
  /// Reads at most \p Len bytes into \p Dst: the count, 0 on EOF, -1
  /// with a diagnostic in \p Err on error or an expired deadline.
  long readSome(char *Dst, size_t Len, std::string &Err);

  int Fd;
  int DeadlineMs;
  std::chrono::steady_clock::time_point Deadline;
  size_t Begin = 0, End = 0; ///< The unread bytes are Buf[Begin, End).
  char Buf[4096];
};

/// Writes all of \p Bytes. False on error (e.g. peer hung up).
bool writeAll(int Fd, std::string_view Bytes, std::string &Err);

/// close() wrapper (keeps <unistd.h> out of callers).
void closeFd(int Fd);

} // namespace daemon
} // namespace sus

#endif // SUS_DAEMON_SOCKET_H
