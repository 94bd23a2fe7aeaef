//===- tests/DaemonTest.cpp - susd protocol, budgets and engine -----------===//
///
/// \file
/// Unit tests for the resident daemon: the percent-escaped wire protocol
/// (framing survives arbitrary bytes, the line cap and malformed frames
/// are clean errors), the buffered connection reader over a socketpair
/// (split lines, coalesced header and payload, the line cap, EOF and the
/// deadline), the per-tenant budget table (spec parsing,
/// min-combination, governor arming), and the Engine itself driven
/// in-process through the same handle() path a connection uses —
/// verify/lint/churn verdicts, the report memo against fresh engines,
/// snapshot save/load and the atomic snapshot file writer, per-request
/// deadlines, malformed count parameters and the shutdown handshake.
///
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"
#include "daemon/Protocol.h"
#include "daemon/Socket.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

using namespace sus;
using namespace sus::daemon;

namespace {

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

TEST(Protocol, EscapeRoundTripsArbitraryBytes) {
  std::string Nasty;
  for (int C = 0; C < 256; ++C)
    Nasty.push_back(static_cast<char>(C));
  std::string Escaped = escape(Nasty);
  // The framing bytes never appear raw in an escaped token.
  EXPECT_EQ(Escaped.find(' '), std::string::npos);
  EXPECT_EQ(Escaped.find('='), std::string::npos);
  EXPECT_EQ(Escaped.find('\n'), std::string::npos);
  std::string Back;
  ASSERT_TRUE(unescape(Escaped, Back));
  EXPECT_EQ(Back, Nasty);
}

TEST(Protocol, UnescapeRejectsMalformedEscapes) {
  std::string Out;
  EXPECT_FALSE(unescape("%", Out));   // Truncated.
  EXPECT_FALSE(unescape("%4", Out));  // Truncated.
  EXPECT_FALSE(unescape("%zz", Out)); // Non-hex.
}

TEST(Protocol, RequestRoundTripsWithHostileParams) {
  Request R;
  R.Verb = "verify";
  R.Params["client"] = "c 1=weird\nname%";
  R.Params["plan"] = "pi1";
  Request Back;
  std::string Err;
  ASSERT_TRUE(parseRequest(formatRequest(R), Back, Err)) << Err;
  EXPECT_EQ(Back.Verb, "verify");
  EXPECT_EQ(Back.Params, R.Params);
}

TEST(Protocol, ParseRequestRejectsBadFrames) {
  Request R;
  std::string Err;
  EXPECT_FALSE(parseRequest("", R, Err));
  EXPECT_FALSE(parseRequest("sus/1", R, Err));         // No verb.
  EXPECT_FALSE(parseRequest("sus/2 ping", R, Err));    // Wrong proto.
  EXPECT_FALSE(parseRequest("ping", R, Err));          // Missing prefix.
  EXPECT_FALSE(parseRequest("sus/1 ping a=1 a=2", R, Err)); // Dup key.
  EXPECT_FALSE(parseRequest("sus/1 ping noequals", R, Err));
  EXPECT_FALSE(
      parseRequest("sus/1 ping " + std::string(MaxRequestLine, 'a'), R, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(Protocol, ResponseHeaderRoundTrips) {
  Response Resp;
  Resp.Exit = 3;
  Resp.Body = "twelve bytes";
  int Exit = 0;
  uint64_t Len = 0;
  std::string Err;
  // formatResponseHeader renders the bare line; the wire adds the '\n'.
  std::string Header = formatResponseHeader(Resp);
  ASSERT_TRUE(parseResponseHeader(Header, Exit, Len, Err)) << Err;
  EXPECT_EQ(Exit, 3);
  EXPECT_EQ(Len, Resp.Body.size());
  EXPECT_FALSE(parseResponseHeader("sus/1 0 5 extra", Exit, Len, Err));
  EXPECT_FALSE(parseResponseHeader("sus/1 999 5", Exit, Len, Err));
  EXPECT_FALSE(parseResponseHeader("sus/1 0", Exit, Len, Err));
}

//===----------------------------------------------------------------------===//
// The connection reader
//===----------------------------------------------------------------------===//

/// A connected socketpair: the test writes to Writer and reads Reader.
struct SocketPair {
  int Reader = -1, Writer = -1;

  SocketPair() {
    int Fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    Reader = Fds[0];
    Writer = Fds[1];
  }
  ~SocketPair() {
    ::close(Reader);
    closeWriter();
  }

  void write(const std::string &Bytes) {
    std::string Err;
    EXPECT_TRUE(writeAll(Writer, Bytes, Err)) << Err;
  }
  /// EOF for the reader.
  void closeWriter() {
    if (Writer >= 0)
      ::close(Writer);
    Writer = -1;
  }
};

TEST(ConnectionReader, LineSplitAcrossSeveralWrites) {
  SocketPair P;
  std::thread Slow([&P] {
    for (const char *Piece :
         {"sus/1 ", "verify cli", "ent=c1\nsus/1 pi", "ng\n"}) {
      P.write(Piece);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  ConnectionReader R(P.Reader, /*DeadlineMs=*/10000);
  std::string Line, Err;
  ASSERT_TRUE(R.readLine(Line, MaxRequestLine, Err)) << Err;
  EXPECT_EQ(Line, "sus/1 verify client=c1");
  ASSERT_TRUE(R.readLine(Line, MaxRequestLine, Err)) << Err;
  EXPECT_EQ(Line, "sus/1 ping");
  Slow.join();
}

TEST(ConnectionReader, HeaderAndPayloadInOneWriteLoseNothing) {
  SocketPair P;
  // A payload past the buffer, so it is read partly buffered, partly
  // straight from the socket.
  std::string Payload(10000, 'x');
  Payload[0] = 'a';
  Payload.back() = 'z';
  std::thread Send([&] { P.write("sus/1 0 10000\n" + Payload + "tail"); });
  ConnectionReader R(P.Reader);
  std::string Header, Body, Err;
  ASSERT_TRUE(R.readLine(Header, 4096, Err)) << Err;
  EXPECT_EQ(Header, "sus/1 0 10000");
  ASSERT_TRUE(R.readExact(Payload.size(), Body, Err)) << Err;
  EXPECT_EQ(Body, Payload);
  ASSERT_TRUE(R.readExact(4, Body, Err)) << Err;
  EXPECT_EQ(Body, "tail");
  Send.join();

  // A short header and payload in one segment.
  SocketPair Q;
  Q.write("sus/1 1 5\nhello");
  ConnectionReader RQ(Q.Reader);
  ASSERT_TRUE(RQ.readLine(Header, 4096, Err)) << Err;
  EXPECT_EQ(Header, "sus/1 1 5");
  ASSERT_TRUE(RQ.readExact(5, Body, Err)) << Err;
  EXPECT_EQ(Body, "hello");
}

TEST(ConnectionReader, LineCapIsExact) {
  {
    SocketPair P;
    std::thread Send(
        [&P] { P.write(std::string(MaxRequestLine, 'a') + "\n"); });
    ConnectionReader R(P.Reader);
    std::string Line, Err;
    EXPECT_TRUE(R.readLine(Line, MaxRequestLine, Err)) << Err;
    EXPECT_EQ(Line.size(), MaxRequestLine);
    Send.join();
  }
  {
    SocketPair P;
    std::thread Send(
        [&P] { P.write(std::string(MaxRequestLine + 1, 'a') + "\n"); });
    ConnectionReader R(P.Reader);
    std::string Line, Err;
    EXPECT_FALSE(R.readLine(Line, MaxRequestLine, Err));
    EXPECT_EQ(Err, "line exceeds " + std::to_string(MaxRequestLine) +
                       " bytes");
    P.closeWriter(); // Unblock the writer if the reader stopped early.
    Send.join();
  }
}

TEST(ConnectionReader, EofMidLineAndMidPayloadAreErrors) {
  {
    SocketPair P;
    P.write("sus/1 pi");
    P.closeWriter();
    ConnectionReader R(P.Reader, /*DeadlineMs=*/10000);
    std::string Line, Err;
    EXPECT_FALSE(R.readLine(Line, MaxRequestLine, Err));
    EXPECT_EQ(Err, "connection closed before end of line");
  }
  {
    SocketPair P;
    P.write("sus/1 0 10\nabc");
    P.closeWriter();
    ConnectionReader R(P.Reader);
    std::string Line, Body, Err;
    ASSERT_TRUE(R.readLine(Line, 4096, Err)) << Err;
    EXPECT_FALSE(R.readExact(10, Body, Err));
    EXPECT_EQ(Err, "connection closed mid-payload (3 of 10 bytes)");
  }
}

TEST(ConnectionReader, DeadlineExpiresOnASilentPeer) {
  SocketPair P;
  ConnectionReader R(P.Reader, /*DeadlineMs=*/50);
  auto Start = std::chrono::steady_clock::now();
  std::string Line, Err;
  EXPECT_FALSE(R.readLine(Line, MaxRequestLine, Err));
  auto Waited = std::chrono::steady_clock::now() - Start;
  EXPECT_EQ(Err, "read timed out after 50 ms");
  EXPECT_GE(Waited, std::chrono::milliseconds(50));
  EXPECT_LT(Waited, std::chrono::seconds(5));

  // A peer that sends part of a line and then stalls times out too: the
  // deadline covers the whole line, not each read.
  SocketPair Q;
  Q.write("sus/1 pi");
  ConnectionReader RQ(Q.Reader, /*DeadlineMs=*/50);
  EXPECT_FALSE(RQ.readLine(Line, MaxRequestLine, Err));
  EXPECT_EQ(Err, "read timed out after 50 ms");
}

//===----------------------------------------------------------------------===//
// Tenant budgets
//===----------------------------------------------------------------------===//

TEST(TenantBudgets, SpecsParseAndDefaultApplies) {
  TenantBudgetTable T;
  std::string Err;
  ASSERT_TRUE(T.addSpec("web:100:", Err)) << Err;
  ASSERT_TRUE(T.addSpec("batch::50000", Err)) << Err;
  ASSERT_TRUE(T.addSpec("*:5000:", Err)) << Err;
  EXPECT_EQ(T.lookup("web").DeadlineMs, 100u);
  EXPECT_EQ(T.lookup("web").MaxProductStates, TenantBudget::NoLimit);
  EXPECT_EQ(T.lookup("batch").DeadlineMs, TenantBudget::NoLimit);
  EXPECT_EQ(T.lookup("batch").MaxProductStates, 50000u);
  // Unlisted tenants inherit the "*" default.
  EXPECT_EQ(T.lookup("someone-else").DeadlineMs, 5000u);
}

TEST(TenantBudgets, MalformedSpecsAreDiagnosed) {
  TenantBudgetTable T;
  std::string Err;
  EXPECT_FALSE(T.addSpec("", Err));
  EXPECT_FALSE(T.addSpec("web:100", Err));      // Too few fields.
  EXPECT_FALSE(T.addSpec("web:100:1:2", Err));  // Too many fields.
  EXPECT_NE(Err.find("NAME:DEADLINE_MS:PRODUCT_STATES"), std::string::npos)
      << Err;
  EXPECT_FALSE(T.addSpec("web:abc:", Err));     // Non-numeric.
  EXPECT_FALSE(T.addSpec(":100:", Err));        // Empty name.
  ASSERT_TRUE(T.addSpec("web:100:", Err)) << Err;
  EXPECT_FALSE(T.addSpec("web:200:", Err));     // Duplicate tenant.
  EXPECT_FALSE(Err.empty());
}

TEST(TenantBudgets, OverridesCombineByMinimum) {
  TenantBudget Tenant;
  Tenant.DeadlineMs = 100;
  TenantBudget Override;
  Override.DeadlineMs = 10000; // Cannot raise the tenant cap...
  Override.MaxProductStates = 7;
  TenantBudget Combined = Tenant.min(Override);
  EXPECT_EQ(Combined.DeadlineMs, 100u);
  EXPECT_EQ(Combined.MaxProductStates, 7u); // ...but can add a new one.

  Override.DeadlineMs = 5; // A tighter request wins.
  EXPECT_EQ(Tenant.min(Override).DeadlineMs, 5u);
}

TEST(TenantBudgets, GovernorOnlyArmsWhenLimited) {
  TenantBudgetTable T;
  std::string Err;
  ASSERT_TRUE(T.addSpec("web:100:", Err)) << Err;
  EXPECT_EQ(T.governorFor("anyone", TenantBudget()), nullptr);
  EXPECT_NE(T.governorFor("web", TenantBudget()), nullptr);
  TenantBudget Override;
  Override.MaxProductStates = 9;
  EXPECT_NE(T.governorFor("anyone", Override), nullptr);
}

//===----------------------------------------------------------------------===//
// The engine, driven in-process
//===----------------------------------------------------------------------===//

std::string exampleSource(const char *Name) {
  std::ifstream In(std::string(SUS_EXAMPLES_DIR "/") + Name);
  EXPECT_TRUE(In.good());
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::unique_ptr<Engine> makeEngine(const char *Name = "hotel.sus",
                                   EngineOptions Opts = {}) {
  std::string Err;
  std::unique_ptr<Engine> E =
      Engine::create(exampleSource(Name), Name, std::move(Opts), Err);
  EXPECT_NE(E, nullptr) << Err;
  return E;
}

Request req(const char *Verb) {
  Request R;
  R.Verb = Verb;
  return R;
}

TEST(Engine, RejectsUnparsableSource) {
  std::string Err;
  EXPECT_EQ(Engine::create("service { nope", "bad.sus", {}, Err), nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST(Engine, PingStatsAndUnknownVerbs) {
  auto E = makeEngine();
  EXPECT_EQ(E->handle(req("ping")).Exit, 0);
  EXPECT_EQ(E->handle(req("ping")).Body, "pong\n");
  Response Stats = E->handle(req("stats"));
  EXPECT_EQ(Stats.Exit, 0);
  EXPECT_NE(Stats.Body.find("compliance"), std::string::npos);
  Response Bad = E->handle(req("frobnicate"));
  EXPECT_EQ(Bad.Exit, 2);
  EXPECT_NE(Bad.Body.find("frobnicate"), std::string::npos);
}

TEST(Engine, VerifyMatchesWarmAllByteForByte) {
  auto E = makeEngine();
  std::ostringstream Warm;
  int WarmCode = E->warmAll(Warm);
  Response R = E->handle(req("verify"));
  EXPECT_EQ(R.Exit, WarmCode);
  EXPECT_EQ(R.Body, Warm.str());

  Request One = req("verify");
  One.Params["client"] = "c1";
  Response ROne = E->handle(One);
  EXPECT_EQ(ROne.Exit, 0);
  EXPECT_NE(ROne.Body.find("client c1"), std::string::npos);

  Request Missing = req("verify");
  Missing.Params["client"] = "nobody";
  EXPECT_EQ(E->handle(Missing).Exit, 2);
}

TEST(Engine, LintRunsCleanOnTheExamples) {
  auto E = makeEngine();
  Response R = E->handle(req("lint"));
  EXPECT_EQ(R.Exit, 0) << R.Body;
}

TEST(Engine, ChurnRepairsDeterministically) {
  auto E = makeEngine();
  Request Churn = req("churn");
  Churn.Params["rounds"] = "2";
  Churn.Params["seed"] = "7";
  Response A = E->handle(Churn);
  EXPECT_EQ(A.Exit, 0) << A.Body;
  EXPECT_NE(A.Body.find("repairs"), std::string::npos);
}

TEST(Engine, PerRequestDeadlineTripsToInconclusive) {
  auto E = makeEngine("marketplace.sus");
  Request R = req("verify");
  R.Params["deadline_ms"] = "0"; // Trips at the first governor poll.
  EXPECT_EQ(E->handle(R).Exit, 3);
  // And the armed governor did not leak into the next request.
  EXPECT_EQ(E->handle(req("verify")).Exit, 0);
}

TEST(Engine, SnapshotBytesRoundTripThroughAFreshEngine) {
  auto E = makeEngine();
  std::ostringstream Cold;
  E->warmAll(Cold);
  core::SnapshotStats SaveStats;
  std::string Bytes = E->saveSnapshotBytes(&SaveStats);
  EXPECT_EQ(SaveStats.Bytes, Bytes.size());
  EXPECT_GT(SaveStats.Compliances, 0u);

  auto Fresh = makeEngine();
  std::string Err;
  core::SnapshotStats LoadStats;
  ASSERT_TRUE(Fresh->loadSnapshotBytes(Bytes, Err, &LoadStats)) << Err;
  EXPECT_EQ(LoadStats.Compliances, SaveStats.Compliances);
  std::ostringstream Warm;
  EXPECT_EQ(Fresh->warmAll(Warm), 0);
  EXPECT_EQ(Warm.str(), Cold.str());

  // Corrupt bytes are rejected with a diagnostic, never absorbed.
  std::string Bad = Bytes;
  Bad[Bytes.size() / 2] = static_cast<char>(Bad[Bytes.size() / 2] ^ 0x10);
  auto Victim = makeEngine();
  EXPECT_FALSE(Victim->loadSnapshotBytes(Bad, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(Engine, ShutdownVerbFlipsTheFlag) {
  auto E = makeEngine();
  EXPECT_FALSE(E->shutdownRequested());
  Response R = E->handle(req("shutdown"));
  EXPECT_EQ(R.Exit, 0);
  EXPECT_TRUE(E->shutdownRequested());
}

TEST(Engine, MalformedCountParametersAreUsageErrors) {
  auto E = makeEngine();
  Request Churn = req("churn");
  Churn.Params["rounds"] = "1x";
  Response RChurn = E->handle(Churn);
  EXPECT_EQ(RChurn.Exit, 2);
  EXPECT_NE(RChurn.Body.find("'rounds'"), std::string::npos) << RChurn.Body;

  Request Verify = req("verify");
  Verify.Params["deadline_ms"] = "-1";
  Response RVerify = E->handle(Verify);
  EXPECT_EQ(RVerify.Exit, 2);
  EXPECT_NE(RVerify.Body.find("'deadline_ms'"), std::string::npos)
      << RVerify.Body;
}

//===----------------------------------------------------------------------===//
// The report memo
//===----------------------------------------------------------------------===//

/// The client names of \p E, in report order.
std::vector<std::string> clientNames(Engine &E) {
  std::vector<std::string> Names;
  std::istringstream In(E.handle(req("verify")).Body);
  const std::string Prefix = "== client ", Suffix = " ==";
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind(Prefix, 0) == 0)
      Names.push_back(
          Line.substr(Prefix.size(), Line.size() - Prefix.size() -
                                         Suffix.size()));
  return Names;
}

/// The H and L of the stats verb's "reports: H/L memo hits" line.
std::pair<uint64_t, uint64_t> memoCounters(Engine &E) {
  std::string Body = E.handle(req("stats")).Body;
  size_t At = Body.find("reports: ");
  EXPECT_NE(At, std::string::npos) << Body;
  uint64_t Hits = 0, Lookups = 0;
  std::sscanf(Body.c_str() + At, "reports: %" SCNu64 "/%" SCNu64, &Hits,
              &Lookups);
  return {Hits, Lookups};
}

/// One step of a memo scenario: a request, or a snapshot round trip
/// (save the engine's cache and load it back into the same engine).
struct Step {
  Request R;
  bool Snapshot = false;
};

Step verifyStep(const std::string &Client = "", bool Enumerate = true) {
  Step S;
  S.R = req("verify");
  if (!Client.empty())
    S.R.Params["client"] = Client;
  if (!Enumerate)
    S.R.Params["enumerate"] = "0";
  return S;
}

Step churnStep(int Seed) {
  Step S;
  S.R = req("churn");
  S.R.Params["rounds"] = "1";
  S.R.Params["seed"] = std::to_string(Seed);
  return S;
}

Step snapshotStep() {
  Step S;
  S.Snapshot = true;
  return S;
}

Response runStep(Engine &E, const Step &S) {
  if (!S.Snapshot)
    return E.handle(S.R);
  std::string Err;
  EXPECT_TRUE(E.loadSnapshotBytes(E.saveSnapshotBytes(), Err)) << Err;
  return {};
}

class ReportMemoScenario : public testing::TestWithParam<const char *> {};

TEST_P(ReportMemoScenario, EveryAnswerMatchesAFreshEngine) {
  auto E = makeEngine(GetParam());
  std::vector<std::string> Clients = clientNames(*E);
  ASSERT_FALSE(Clients.empty());
  const std::string &First = Clients.front(), &Last = Clients.back();
  std::vector<Step> Steps = {verifyStep(First),
                             verifyStep(),
                             verifyStep(First),
                             verifyStep(Last, /*Enumerate=*/false),
                             verifyStep(Last, /*Enumerate=*/false),
                             churnStep(3),
                             verifyStep(),
                             verifyStep(Last),
                             verifyStep(),
                             snapshotStep(),
                             verifyStep(First),
                             verifyStep(),
                             churnStep(11),
                             verifyStep(First),
                             verifyStep(First),
                             snapshotStep(),
                             churnStep(5),
                             verifyStep(),
                             verifyStep(Last),
                             verifyStep(Last, /*Enumerate=*/false)};

  for (size_t I = 0; I < Steps.size(); ++I) {
    Response Got = runStep(*E, Steps[I]);
    if (Steps[I].Snapshot || Steps[I].R.Verb != "verify")
      continue;
    // The reference replays every step that changes the engine and then
    // answers this one, its first and so fresh request of the kind.
    auto Fresh = makeEngine(GetParam());
    for (size_t J = 0; J < I; ++J)
      if (Steps[J].Snapshot || Steps[J].R.Verb != "verify")
        (void)runStep(*Fresh, Steps[J]);
    Response Want = Fresh->handle(Steps[I].R);
    EXPECT_EQ(Got.Exit, Want.Exit) << "step " << I;
    EXPECT_EQ(Got.Body, Want.Body) << "step " << I;
  }
  // The scenario exercised the memo, not just its misses.
  EXPECT_GT(memoCounters(*E).first, 0u);
}

INSTANTIATE_TEST_SUITE_P(Examples, ReportMemoScenario,
                         testing::Values("hotel.sus", "marketplace.sus"));

TEST(ReportMemo, GovernedRequestBypassesMemo) {
  auto E = makeEngine("marketplace.sus");
  Response Warm = E->handle(req("verify"));
  ASSERT_EQ(Warm.Exit, 0);
  ASSERT_EQ(E->handle(req("verify")).Body, Warm.Body); // A memo hit.
  std::pair<uint64_t, uint64_t> Before = memoCounters(*E);
  ASSERT_GT(Before.first, 0u);

  Request Governed = req("verify");
  Governed.Params["deadline_ms"] = "0";
  EXPECT_EQ(E->handle(Governed).Exit, 3);
  // The governed request neither read nor filled the memo...
  EXPECT_EQ(memoCounters(*E), Before);
  // ...and the next unbudgeted answer is the kept, conclusive one.
  Response After = E->handle(req("verify"));
  EXPECT_EQ(After.Exit, 0);
  EXPECT_EQ(After.Body, Warm.Body);
}

TEST(ReportMemo, PlanFloodLeavesTheMemoUnchanged) {
  core::Session S;
  DiagnosticEngine Diags;
  ASSERT_TRUE(S.open(exampleSource("hotel.sus"), "hotel.sus",
                     core::VerifierOptions(), Diags));
  std::ostringstream Sink;
  ASSERT_EQ(S.verifyAll("", /*Enumerate=*/true, Sink), 0);
  core::ReportMemoStats Before = S.reportMemoStats();
  EXPECT_EQ(Before.Entries, S.file().Clients.size());

  const auto &[Name, Client] = S.file().Clients.front();
  for (int I = 0; I < 500; ++I)
    (void)S.verifyClient(Name, Client, "flood" + std::to_string(I),
                         /*Enumerate=*/true, Sink);
  core::ReportMemoStats After = S.reportMemoStats();
  EXPECT_EQ(After.Entries, Before.Entries);
  EXPECT_EQ(After.Lookups, Before.Lookups);

  // The same through the daemon's verb: no lookup is counted either.
  auto E = makeEngine();
  std::pair<uint64_t, uint64_t> Counters = memoCounters(*E);
  Request Flood = req("verify");
  Flood.Params["client"] = "c1";
  for (int I = 0; I < 100; ++I) {
    Flood.Params["plan"] = "p" + std::to_string(I);
    (void)E->handle(Flood);
  }
  EXPECT_EQ(memoCounters(*E), Counters);
}

/// A fresh empty directory, removed with its contents at scope exit.
struct ScratchDir {
  std::filesystem::path Path;

  ScratchDir() {
    std::string Template = testing::TempDir() + "sus_daemon_test_XXXXXX";
    EXPECT_NE(::mkdtemp(Template.data()), nullptr);
    Path = Template;
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }

  std::vector<std::string> entries() const {
    std::vector<std::string> Names;
    for (const auto &Entry : std::filesystem::directory_iterator(Path))
      Names.push_back(Entry.path().filename().string());
    return Names;
  }
};

TEST(Engine, SnapshotSavedTwiceLeavesOneLoadableFile) {
  auto E = makeEngine();
  std::ostringstream Sink;
  E->warmAll(Sink);
  ScratchDir Dir;
  Request Snap = req("snapshot");
  Snap.Params["file"] = (Dir.Path / "cache.snap").string();
  Response First = E->handle(Snap);
  ASSERT_EQ(First.Exit, 0) << First.Body;
  Response Second = E->handle(Snap);
  ASSERT_EQ(Second.Exit, 0) << Second.Body;
  // No temp file survives the rename.
  EXPECT_EQ(Dir.entries(), std::vector<std::string>{"cache.snap"});

  std::ifstream In(Dir.Path / "cache.snap", std::ios::binary);
  std::stringstream Bytes;
  Bytes << In.rdbuf();
  auto Fresh = makeEngine();
  std::string Err;
  EXPECT_TRUE(Fresh->loadSnapshotBytes(Bytes.str(), Err)) << Err;
}

TEST(Engine, SaveSweepsTempFilesOfDeadWritersOnly) {
  // A pid that no longer runs: a child that has exited and been reaped.
  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0)
    ::_exit(0);
  ASSERT_EQ(::waitpid(Child, nullptr, 0), Child);
  std::string Dead = std::to_string(Child);
  std::string Self = std::to_string(::getpid());

  ScratchDir Dir;
  std::vector<std::string> Kept = {
      "cache.snap.tmp." + Self + ".999999", // A live writer's save.
      "cache.snap.tmp.x.0",                 // Not the writer's name.
      "other.snap.tmp." + Dead + ".0",      // Another target's temp.
  };
  for (const std::string &Name :
       {Kept[0], Kept[1], Kept[2], "cache.snap.tmp." + Dead + ".3"})
    std::ofstream(Dir.Path / Name) << "partial";

  std::string Err;
  ASSERT_TRUE(core::writeFileAtomic((Dir.Path / "cache.snap").string(),
                                    "bytes", Err))
      << Err;
  Kept.push_back("cache.snap");
  std::vector<std::string> Left = Dir.entries();
  std::sort(Left.begin(), Left.end());
  std::sort(Kept.begin(), Kept.end());
  EXPECT_EQ(Left, Kept);
}

TEST(Engine, SnapshotIntoAMissingDirectoryCreatesNothing) {
  auto E = makeEngine();
  ScratchDir Dir;
  Request Snap = req("snapshot");
  Snap.Params["file"] = (Dir.Path / "missing" / "cache.snap").string();
  Response R = E->handle(Snap);
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Body.find("cannot write snapshot"), std::string::npos)
      << R.Body;
  EXPECT_TRUE(Dir.entries().empty());
}

} // namespace
