//===- daemon/Socket.cpp - AF_UNIX plumbing for susd ----------------------===//

#include "daemon/Socket.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace sus;
using namespace sus::daemon;

namespace {

std::string errnoMessage(const char *What) {
  return std::string(What) + ": " + std::strerror(errno);
}

} // namespace

int daemon::listenOn(const std::string &Path, std::string &Err) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path '" + Path + "' is too long (max " +
          std::to_string(sizeof(Addr.sun_path) - 1) + " bytes)";
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = errnoMessage("socket");
    return -1;
  }
  // A stale socket file from a crashed daemon would make bind fail with
  // EADDRINUSE even though nobody is listening; remove it first. A *live*
  // daemon also loses its file this way — callers pick distinct paths.
  ::unlink(Path.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Err = errnoMessage("bind");
    ::close(Fd);
    return -1;
  }
  if (::listen(Fd, /*backlog=*/64) < 0) {
    Err = errnoMessage("listen");
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int daemon::acceptClient(int ListenFd, int TimeoutMs, std::string &Err) {
  pollfd P;
  P.fd = ListenFd;
  P.events = POLLIN;
  P.revents = 0;
  int N = ::poll(&P, 1, TimeoutMs);
  if (N == 0)
    return -1;
  if (N < 0) {
    if (errno == EINTR)
      return -1; // Treat a signal like a timeout: the loop re-polls.
    Err = errnoMessage("poll");
    return -2;
  }
  int Fd = ::accept(ListenFd, nullptr, nullptr);
  if (Fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED)
      return -1;
    Err = errnoMessage("accept");
    return -2;
  }
  return Fd;
}

int daemon::connectTo(const std::string &Path, std::string &Err) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path '" + Path + "' is too long (max " +
          std::to_string(sizeof(Addr.sun_path) - 1) + " bytes)";
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = errnoMessage("socket");
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Err = "cannot connect to '" + Path + "': " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

ConnectionReader::ConnectionReader(int Fd, int DeadlineMs)
    : Fd(Fd), DeadlineMs(DeadlineMs) {
  if (DeadlineMs >= 0)
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(DeadlineMs);
}

long ConnectionReader::readSome(char *Dst, size_t Len, std::string &Err) {
  while (true) {
    ssize_t N = DeadlineMs < 0 ? ::read(Fd, Dst, Len)
                               : ::recv(Fd, Dst, Len, MSG_DONTWAIT);
    if (N >= 0)
      return N;
    if (errno == EINTR)
      continue;
    if (DeadlineMs < 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      Err = errnoMessage("read");
      return -1;
    }
    // Nothing waiting: sleep in poll until data arrives or time runs out.
    auto Left = std::chrono::ceil<std::chrono::milliseconds>(
                    Deadline - std::chrono::steady_clock::now())
                    .count();
    pollfd P;
    P.fd = Fd;
    P.events = POLLIN;
    P.revents = 0;
    int Ready = Left > 0 ? ::poll(&P, 1, static_cast<int>(Left)) : 0;
    if (Ready == 0) {
      Err = "read timed out after " + std::to_string(DeadlineMs) + " ms";
      return -1;
    }
    if (Ready < 0 && errno != EINTR) {
      Err = errnoMessage("poll");
      return -1;
    }
  }
}

bool ConnectionReader::readLine(std::string &Line, size_t MaxLen,
                                std::string &Err) {
  Line.clear();
  while (true) {
    const char *Start = Buf + Begin;
    size_t Avail = End - Begin;
    const char *Newline =
        static_cast<const char *>(std::memchr(Start, '\n', Avail));
    size_t Take = Newline ? static_cast<size_t>(Newline - Start) : Avail;
    if (Take > MaxLen - Line.size()) {
      Err = "line exceeds " + std::to_string(MaxLen) + " bytes";
      return false;
    }
    Line.append(Start, Take);
    if (Newline) {
      Begin += Take + 1; // What follows the newline stays buffered.
      return true;
    }
    Begin = End = 0;
    long N = readSome(Buf, sizeof(Buf), Err);
    if (N <= 0) {
      if (N == 0)
        Err = "connection closed before end of line";
      return false;
    }
    End = static_cast<size_t>(N);
  }
}

bool ConnectionReader::readExact(size_t Len, std::string &Out,
                                 std::string &Err) {
  size_t Buffered = std::min(Len, End - Begin);
  Out.assign(Buf + Begin, Buffered);
  Begin += Buffered;
  // The rest goes straight into Out, which grows geometrically: a
  // garbage header's length is never allocated up front.
  while (Out.size() < Len) {
    size_t Got = Out.size();
    size_t Want = std::min(Len - Got, std::max(sizeof(Buf), Got));
    Out.resize(Got + Want);
    long N = readSome(&Out[Got], Want, Err);
    Out.resize(Got + static_cast<size_t>(std::max(N, 0L)));
    if (N <= 0) {
      if (N == 0)
        Err = "connection closed mid-payload (" + std::to_string(Got) +
              " of " + std::to_string(Len) + " bytes)";
      return false;
    }
  }
  return true;
}

bool daemon::writeAll(int Fd, std::string_view Bytes, std::string &Err) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE here, not
    // as a SIGPIPE that kills the whole daemon mid-service.
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = errnoMessage("send");
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

void daemon::closeFd(int Fd) { ::close(Fd); }
