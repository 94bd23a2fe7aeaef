//===- perfbench/susbench/susbench.cpp - End-to-end benchmark harness ----===//
///
/// \file
/// The compiled half of the end-to-end benchmark (perfbench/run.py is the
/// other half). Three subcommands:
///
///   load     closed-loop sus/1 client: up to N connections, one thread
///            each, speaking the wire protocol over AF_UNIX directly (no
///            `susc --connect` process per request). Every response is
///            checked; a JSON summary and a binary file of per-request
///            samples are written.
///   monitor  in-process monitor::MonitorEngine ingest over a generated
///            trace whose per-event admit/block decisions are known.
///   replay   the traced run: re-executes one workload's work in process
///            through the public functions of each layer, with a span
///            around every call, and reads the program's own counters.
///
/// Spans are kept in memory (a preallocated buffer; overflow is counted,
/// never silently dropped) and written once, when the subcommand ends.
///
//===----------------------------------------------------------------------===//

#include "automata/KernelStats.h"
#include "core/Repair.h"
#include "core/Snapshot.h"
#include "core/Verifier.h"
#include "daemon/Daemon.h"
#include "daemon/Protocol.h"
#include "hist/HistContext.h"
#include "monitor/MonitorEngine.h"
#include "plan/RepositoryDelta.h"
#include "plan/ServiceIndex.h"
#include "support/Diagnostics.h"
#include "support/Metrics.h"
#include "syntax/FileParser.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace sus;

namespace {

using Clock = std::chrono::steady_clock;

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void die(const std::string &Msg) {
  std::cerr << "susbench: " << Msg << "\n";
  std::exit(2);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot open '" + Path + "'");
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Peak resident set of this process (VmHWM), in KiB.
long peakRssKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atol(Line.c_str() + 6);
  return 0;
}

/// Minimal JSON string escaping (names, messages).
std::string jstr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

template <typename T> std::string jlist(const std::vector<T> &V) {
  std::ostringstream OS;
  OS << "[";
  for (size_t I = 0; I < V.size(); ++I)
    OS << (I ? "," : "") << V[I];
  OS << "]";
  return OS.str();
}

/// Command-line flags: `--name value` pairs after the subcommand.
struct Flags {
  std::map<std::string, std::string> Values;

  Flags(int Argc, char **Argv) {
    for (int I = 2; I < Argc; ++I) {
      std::string A = Argv[I];
      if (A.rfind("--", 0) != 0 || I + 1 >= Argc)
        die("bad argument '" + A + "'");
      Values[A.substr(2)] = Argv[++I];
    }
  }
  std::string get(const std::string &K) const {
    auto It = Values.find(K);
    if (It == Values.end())
      die("missing --" + K);
    return It->second;
  }
  std::string get(const std::string &K, const std::string &Def) const {
    auto It = Values.find(K);
    return It == Values.end() ? Def : It->second;
  }
  long num(const std::string &K, long Def) const {
    return std::atol(get(K, std::to_string(Def)).c_str());
  }
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder for one thread. Each span has a name, the
/// operation it belongs to (spans of one operation share the id), its
/// enclosing span and its start and end.
class Tracer {
public:
  struct Rec {
    const char *Name;
    int32_t Parent;
    uint32_t Op;
    int64_t Start, End;
  };

  explicit Tracer(size_t Capacity) { Spans.reserve(Capacity); }

  bool On = false;

  int32_t open(const char *Name, uint32_t Op) {
    if (!On)
      return -1;
    if (Spans.size() == Spans.capacity()) {
      ++Dropped;
      return -1;
    }
    int32_t Parent = Stack.empty() ? -1 : Stack.back();
    Spans.push_back({Name, Parent, Op, nowNs(), 0});
    int32_t Id = static_cast<int32_t>(Spans.size() - 1);
    Stack.push_back(Id);
    return Id;
  }

  void close(int32_t Id) {
    if (Id < 0)
      return;
    Spans[Id].End = nowNs();
    Stack.pop_back();
  }

  /// True when the buffer is nearly full: the traced loops stop there,
  /// so a run never drops spans (their output stays a few MB).
  bool full() const { return Spans.size() + 4096 >= Spans.capacity(); }

  std::string json() const {
    std::ostringstream OS;
    OS << "{\"dropped\":" << Dropped << ",\"spans\":[";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Rec &R = Spans[I];
      OS << (I ? "," : "") << "[" << jstr(R.Name) << "," << R.Op << ","
         << R.Parent << "," << R.Start << "," << R.End << "]";
    }
    OS << "]}";
    return OS.str();
  }

private:
  std::vector<Rec> Spans;
  std::vector<int32_t> Stack;
  uint64_t Dropped = 0;
};

class Span {
public:
  Span(Tracer &T, const char *Name, uint32_t Op)
      : T(T), Id(T.open(Name, Op)) {}
  ~Span() { T.close(Id); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer &T;
  int32_t Id;
};

/// The program's own counters the traced run reads (sus-metrics-v1
/// registry names).
const char *const CounterNames[] = {
    "plan.enumerator.bindings_tried", "plan.enumerator.plans",
    "plan.index.candidates",          "plan.index.lookups",
    "plan.prescreen.alphabet_rejects", "plan.prescreen.first_step_rejects",
    "plan.cache.compliance_evictions", "plan.cache.projection_evictions",
    "plan.cache.validity_evictions",  "compliance.checks",
    "validity.checks",                "policy.compiles",
    "verifier.plans_checked",         "pool.tasks",
    "pool.steals",                    "monitor.fusions",
    "monitor.fused_states",           "monitor.events",
    "monitor.blocked"};

std::string countersJson() {
  std::ostringstream OS;
  OS << "{";
  bool First = true;
  for (const char *N : CounterNames) {
    OS << (First ? "" : ",") << jstr(N) << ":"
       << metrics::counter(N).value();
    First = false;
  }
  OS << ",\"automata.kernel_ns\":"
     << metrics::timeAccount(automata::KernelTimeAccountName).nanos();
  OS << "}";
  return OS.str();
}

void resetCounters() {
  metrics::reset();
  metrics::timeAccount(automata::KernelTimeAccountName).resetValue();
}

std::string statsJson(const core::VerifierStats &S) {
  std::ostringstream OS;
  OS << "{\"compliance_lookups\":" << S.ComplianceLookups
     << ",\"compliance_hits\":" << S.ComplianceHits
     << ",\"projection_lookups\":" << S.ProjectionLookups
     << ",\"projection_hits\":" << S.ProjectionHits
     << ",\"validity_lookups\":" << S.ValidityLookups
     << ",\"validity_hits\":" << S.ValidityHits << "}";
  return OS.str();
}

core::VerifierStats minus(core::VerifierStats A, const core::VerifierStats &B) {
  A.ComplianceLookups -= B.ComplianceLookups;
  A.ComplianceHits -= B.ComplianceHits;
  A.ProjectionLookups -= B.ProjectionLookups;
  A.ProjectionHits -= B.ProjectionHits;
  A.ValidityLookups -= B.ValidityLookups;
  A.ValidityHits -= B.ValidityHits;
  return A;
}

//===----------------------------------------------------------------------===//
// Request mixes (shared by `load` and `replay`)
//===----------------------------------------------------------------------===//

/// One request kind of a workload's traffic mix. The mix file has one
/// kind per line:
///   NAME WEIGHT CHECK EXIT REFFILE REQUEST...
/// CHECK is `bytes` (the body must equal REFFILE), `prefix` (the body
/// must start with it) or `lines` (the body's lines starting with
/// "valid plans" must equal REFFILE's lines). `{seed}` in REQUEST is
/// replaced by a fresh number per request.
struct Kind {
  std::string Name;
  unsigned Weight = 0;
  std::string Check;
  int Exit = 0;
  std::string Ref;
  std::string Request;
};

std::vector<Kind> readMix(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot open mix '" + Path + "'");
  std::vector<Kind> Mix;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::istringstream LS(Line);
    Kind K;
    std::string RefPath;
    LS >> K.Name >> K.Weight >> K.Check >> K.Exit >> RefPath;
    std::getline(LS, K.Request);
    K.Request.erase(0, K.Request.find_first_not_of(' '));
    if (K.Request.empty() || K.Weight == 0)
      die("bad mix line '" + Line + "'");
    K.Ref = readFile(RefPath);
    Mix.push_back(std::move(K));
  }
  if (Mix.empty())
    die("empty mix");
  return Mix;
}

/// Draws request kinds by weight; deterministic per seed.
class MixPicker {
public:
  MixPicker(const std::vector<Kind> &Mix, uint64_t Seed) : Rng(Seed) {
    for (size_t I = 0; I < Mix.size(); ++I)
      for (unsigned W = 0; W < Mix[I].Weight; ++W)
        Slots.push_back(I);
  }
  size_t next() { return Slots[Rng() % Slots.size()]; }
  uint64_t number() { return Rng() % 1000000007ull; }

private:
  std::mt19937_64 Rng;
  std::vector<size_t> Slots;
};

std::string instantiate(const Kind &K, MixPicker &P) {
  std::string R = K.Request;
  size_t At = R.find("{seed}");
  if (At != std::string::npos)
    R.replace(At, 6, std::to_string(P.number()));
  return R;
}

std::vector<std::string> validPlanLines(const std::string &Body) {
  std::vector<std::string> Out;
  std::istringstream In(Body);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("valid plans", 0) == 0)
      Out.push_back(Line);
  return Out;
}

/// Checks one response against its kind; empty when correct.
std::string checkResponse(const Kind &K, int Exit, const std::string &Body) {
  if (Exit != K.Exit)
    return K.Name + ": exit " + std::to_string(Exit) + ", expected " +
           std::to_string(K.Exit);
  if (K.Check == "bytes" && Body != K.Ref)
    return K.Name + ": body differs from the reference answer";
  if (K.Check == "prefix" && Body.compare(0, K.Ref.size(), K.Ref) != 0)
    return K.Name + ": body lacks the expected prefix";
  if (K.Check == "lines" && validPlanLines(Body) != validPlanLines(K.Ref))
    return K.Name + ": valid-plan counts differ from the known answer";
  return "";
}

//===----------------------------------------------------------------------===//
// load: closed-loop sus/1 client
//===----------------------------------------------------------------------===//

/// One request over a fresh connection: connect, send the line, read the
/// header and exactly the announced payload. Returns an error message,
/// empty on success.
std::string roundTrip(const std::string &SocketPath, const std::string &Line,
                      int &Exit, std::string &Body) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path))
    return "socket path too long";
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return std::string("socket: ") + std::strerror(errno);
  timeval Tv{30, 0}; // A request that takes longer counts as timed out.
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof Tv);
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof Tv);
  auto Fail = [Fd](const std::string &Msg) {
    ::close(Fd);
    return Msg;
  };
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) < 0)
    return Fail(std::string("connect: ") + std::strerror(errno));
  std::string Out = Line + "\n";
  for (size_t Done = 0; Done < Out.size();) {
    ssize_t N = ::send(Fd, Out.data() + Done, Out.size() - Done, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return Fail(std::string("send: ") + std::strerror(errno));
    Done += static_cast<size_t>(N);
  }
  std::string In;
  size_t HeaderEnd = std::string::npos;
  uint64_t Len = 0;
  char Buf[65536];
  while (true) {
    if (HeaderEnd != std::string::npos && In.size() >= HeaderEnd + 1 + Len)
      break;
    ssize_t N = ::read(Fd, Buf, sizeof Buf);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      return Fail(errno == EAGAIN ? "timeout"
                                  : std::string("read: ") + std::strerror(errno));
    if (N == 0)
      return Fail("short read");
    In.append(Buf, static_cast<size_t>(N));
    if (HeaderEnd == std::string::npos) {
      HeaderEnd = In.find('\n');
      if (HeaderEnd == std::string::npos)
        continue;
      std::istringstream HS(In.substr(0, HeaderEnd));
      std::string Version;
      if (!(HS >> Version >> Exit >> Len) || Version != "sus/1")
        return Fail("protocol error: bad header '" + In.substr(0, HeaderEnd) +
                    "'");
    }
  }
  ::close(Fd);
  if (In.size() != HeaderEnd + 1 + Len)
    return "protocol error: trailing bytes";
  Body = In.substr(HeaderEnd + 1);
  return "";
}

int runLoad(const Flags &F) {
  std::string SocketPath = F.get("socket");
  std::vector<Kind> Mix = readMix(F.get("mix"));
  unsigned Conns = static_cast<unsigned>(F.num("conns", 4));
  double Seconds = std::atof(F.get("seconds").c_str());
  uint64_t Seed = static_cast<uint64_t>(F.num("seed", 1));
  long Pings = F.num("pings", 0);

  struct Sample {
    uint32_t Kind;
    uint8_t Ok;
    int64_t StartNs, LatNs;
  };

  // The transport floor: sequential pings on an otherwise idle daemon.
  std::vector<int64_t> PingNs;
  std::vector<std::string> Errors;
  int PingFailed = 0;
  for (long I = 0; I < Pings; ++I) {
    int Exit = 0;
    std::string Body;
    int64_t T0 = nowNs();
    std::string Err = roundTrip(SocketPath, "sus/1 ping", Exit, Body);
    PingNs.push_back(nowNs() - T0);
    if (Err.empty() && (Exit != 0 || Body != "pong\n"))
      Err = "ping: unexpected answer";
    if (!Err.empty()) {
      Errors.push_back(Err);
      ++PingFailed;
      break;
    }
  }

  std::vector<std::vector<Sample>> PerThread(Conns);
  std::vector<std::vector<std::string>> ThreadErrors(Conns);
  int64_t Start = nowNs();
  int64_t Deadline = Start + static_cast<int64_t>(Seconds * 1e9);
  {
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < Conns; ++T)
      Threads.emplace_back([&, T] {
        MixPicker P(Mix, Seed * 1000003ull + T);
        std::vector<Sample> &Out = PerThread[T];
        while (nowNs() < Deadline) {
          size_t K = P.next();
          std::string Line = instantiate(Mix[K], P);
          int Exit = 0;
          std::string Body;
          int64_t T0 = nowNs();
          std::string Err = roundTrip(SocketPath, Line, Exit, Body);
          int64_t T1 = nowNs();
          if (Err.empty())
            Err = checkResponse(Mix[K], Exit, Body);
          Out.push_back({static_cast<uint32_t>(K), Err.empty() ? uint8_t(1)
                                                              : uint8_t(0),
                         T0 - Start, T1 - T0});
          if (!Err.empty() && ThreadErrors[T].size() < 5)
            ThreadErrors[T].push_back(Err);
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
  }
  int64_t End = nowNs();
  for (const auto &E : ThreadErrors)
    Errors.insert(Errors.end(), E.begin(), E.end());

  std::ofstream Out(F.get("out"));
  Out << "{\"kinds\":[";
  for (size_t I = 0; I < Mix.size(); ++I)
    Out << (I ? "," : "") << jstr(Mix[I].Name);
  Out << "],\"wall_ns\":" << (End - Start) << ",\"ping_ns\":" << jlist(PingNs)
      << ",\"ping_failed\":" << PingFailed
      << ",\"errors\":[";
  for (size_t I = 0; I < Errors.size(); ++I)
    Out << (I ? "," : "") << jstr(Errors[I]);
  // Samples go to a binary side file: a run at tens of thousands of
  // requests per second would make JSON of tens of MB.
  std::string SamplesPath = F.get("out") + ".bin";
  Out << "],\"samples_file\":" << jstr(SamplesPath) << "}\n";
  std::ofstream Bin(SamplesPath, std::ios::binary);
  for (const auto &V : PerThread)
    for (const Sample &S : V) {
      int64_t Rec[4] = {S.Kind, S.Ok, S.StartNs, S.LatNs};
      Bin.write(reinterpret_cast<const char *>(Rec), sizeof Rec);
    }
  return Bin.good() ? 0 : 2;
}

//===----------------------------------------------------------------------===//
// monitor: in-process MonitorEngine ingest
//===----------------------------------------------------------------------===//

struct MonitorInput {
  hist::HistContext Ctx;
  std::optional<syntax::SusFile> File;
  std::vector<std::vector<hist::PolicyRef>> Sessions;
  std::vector<hist::Event> Universe;
  std::vector<std::vector<monitor::MonitorEngine::BatchItem>> Batches;
  std::vector<std::vector<uint8_t>> Expected;
  size_t Events = 0;
};

/// Reads the generator's monitor trace: `sessions N`, one line of
/// `kind:threshold` policies per session, `events M batch B values V`,
/// then one `session kind value decision` line per event (0 <= value < V).
std::unique_ptr<MonitorInput> readMonitorInput(const std::string &Policies,
                                               const std::string &TracePath) {
  auto In = std::make_unique<MonitorInput>();
  DiagnosticEngine Diags;
  std::string Source = readFile(Policies);
  In->File = syntax::parseSusFile(In->Ctx, Source, Diags);
  if (!In->File)
    die("policy file does not parse");
  StringInterner &Names = In->Ctx.interner();

  std::ifstream T(TracePath);
  std::string Word;
  size_t NumSessions = 0, NumEvents = 0, Batch = 0;
  T >> Word >> NumSessions;
  std::string Line;
  std::getline(T, Line);
  for (size_t S = 0; S < NumSessions; ++S) {
    std::getline(T, Line);
    std::istringstream LS(Line);
    std::vector<hist::PolicyRef> Refs;
    std::string Tok;
    while (LS >> Tok) {
      size_t Colon = Tok.find(':');
      Refs.push_back({Names.intern(Tok.substr(0, Colon)),
                      {{Value::integer(std::atol(Tok.c_str() + Colon + 1))}}});
    }
    In->Sessions.push_back(std::move(Refs));
  }
  int64_t NumValues = 0;
  T >> Word >> NumEvents >> Word >> Batch >> Word >> NumValues;
  if (!T || Batch == 0 || NumValues <= 0)
    die("bad monitor trace header");
  std::map<std::string, Symbol> EventNames;
  for (size_t I = 0; I < NumEvents; ++I) {
    if (I % Batch == 0) {
      In->Batches.emplace_back();
      In->Expected.emplace_back();
    }
    uint32_t Session = 0;
    std::string Name;
    int64_t V = 0;
    int D = 0;
    if (!(T >> Session >> Name >> V >> D) || Session >= NumSessions)
      die("bad monitor trace event");
    auto It = EventNames.find(Name);
    if (It == EventNames.end())
      It = EventNames.emplace(Name, Names.intern(Name)).first;
    if (V < 0 || V >= NumValues)
      die("monitor trace event value out of range");
    In->Batches.back().push_back(
        {Session, hist::Label::event({It->second, Value::integer(V)})});
    In->Expected.back().push_back(static_cast<uint8_t>(D));
  }
  // The closed universe: every event name with every value.
  for (const auto &[Name, Sym] : EventNames)
    for (int64_t V = 0; V < NumValues; ++V)
      In->Universe.push_back({Sym, Value::integer(V)});
  In->Events = NumEvents;
  return In;
}

/// Builds an engine and opens (and frames) every session. \p FuseNs
/// accumulates the time of the openSession calls that had to fuse.
std::unique_ptr<monitor::MonitorEngine>
openAll(const MonitorInput &In, unsigned Workers, monitor::FusedCache &Cache,
        Tracer &T, uint32_t Op, int64_t &FuseNs) {
  monitor::MonitorEngine::Options O;
  O.Workers = Workers;
  O.Cache = &Cache;
  auto E = std::make_unique<monitor::MonitorEngine>(
      In.File->Registry, In.Ctx.interner(), O);
  for (const std::vector<hist::PolicyRef> &Refs : In.Sessions) {
    monitor::MonitorEngine::SessionId S;
    size_t Fusions = Cache.stats().Fusions;
    int64_t T0 = nowNs();
    {
      Span Sp(T, "monitor.open_session", Op);
      S = E->openSession(Refs, In.Universe);
    }
    if (Cache.stats().Fusions != Fusions)
      FuseNs += nowNs() - T0;
    for (const hist::PolicyRef &R : Refs)
      if (!E->advance(S, hist::Label::frameOpen(R)))
        die("opening a policy frame was refused");
  }
  return E;
}

int runMonitor(const Flags &F) {
  std::unique_ptr<MonitorInput> In =
      readMonitorInput(F.get("policies"), F.get("trace"));
  unsigned Workers = static_cast<unsigned>(F.num("workers", 4));
  double Seconds = std::atof(F.get("seconds").c_str());
  long Setups = F.num("setups", 5);
  bool Traced = F.num("traced", 0) != 0;
  Tracer T(1 << 17);

  // Set-up: a fresh engine and fusion cache each time, so every
  // repetition pays fusion.
  std::vector<int64_t> SetupNs, FuseNs;
  for (long I = 0; I < Setups; ++I) {
    monitor::FusedCache Fresh;
    int64_t Fuse = 0;
    int64_t T0 = nowNs();
    std::unique_ptr<monitor::MonitorEngine> E =
        openAll(*In, Workers, Fresh, T, 0, Fuse);
    SetupNs.push_back(nowNs() - T0);
    FuseNs.push_back(Fuse);
  }

  // Timed passes. Each pass replays the trace on freshly opened sessions
  // (fusions come from a shared cache; opening is not timed), so every
  // pass has the same known decisions and memory stays bounded.
  monitor::FusedCache Shared;
  std::vector<int64_t> BatchNs, BatchStartNs, BatchEvents, TracedBatchNs;
  uint64_t Events = 0, Mismatches = 0, Passes = 0;
  int64_t IngestNs = 0;
  monitor::MonitorEngine::Stats Last;
  std::string FirstMismatch;
  int64_t Start = nowNs();
  int64_t Deadline = Start + static_cast<int64_t>(Seconds * 1e9);
  // A traced run alternates passes: untraced ones (the overhead baseline,
  // and the only ones timed for the end-to-end metrics) and traced ones
  // (spans and the program's metrics on).
  resetCounters();
  while ((nowNs() < Deadline || Passes < 2) && !T.full()) {
    bool On = Traced && Passes % 2 == 1;
    T.On = On;
    if (On)
      metrics::enable();
    else
      metrics::disable();
    int64_t Unused = 0;
    std::unique_ptr<monitor::MonitorEngine> E = openAll(
        *In, Workers, Shared, T, static_cast<uint32_t>(Passes + 1), Unused);
    // Count only the ingested events, not the frame openings.
    monitor::MonitorEngine::Stats Opened = E->stats();
    std::vector<uint8_t> Decisions;
    for (size_t B = 0; B < In->Batches.size(); ++B) {
      int64_t T0 = nowNs();
      {
        Span Sp(T, "monitor.ingest", static_cast<uint32_t>(Passes + 1));
        E->ingest(In->Batches[B], &Decisions);
      }
      int64_t Lat = nowNs() - T0;
      (On ? TracedBatchNs : BatchNs).push_back(Lat);
      if (!On) {
        BatchStartNs.push_back(T0 - Start);
        BatchEvents.push_back(static_cast<int64_t>(In->Batches[B].size()));
        IngestNs += Lat;
        Events += In->Batches[B].size();
      }
      if (Decisions != In->Expected[B]) {
        ++Mismatches;
        if (FirstMismatch.empty())
          FirstMismatch = "batch " + std::to_string(B) + " of pass " +
                          std::to_string(Passes) +
                          ": decisions differ from the known answer";
      }
    }
    Last = E->stats();
    Last.Events -= Opened.Events;
    Last.Blocked -= Opened.Blocked;
    ++Passes;
  }
  metrics::disable();

  size_t FusedStates = 0, Fused = 0;
  for (const auto &A : Shared.snapshot()) {
    FusedStates += A->numStates();
    ++Fused;
  }

  std::ofstream Out(F.get("out"));
  Out << "{\"setup_ns\":" << jlist(SetupNs) << ",\"batch_ns\":"
      << jlist(BatchNs) << ",\"batch_start_ns\":" << jlist(BatchStartNs)
      << ",\"batch_events\":" << jlist(BatchEvents)
      << ",\"traced_batch_ns\":" << jlist(TracedBatchNs)
      << ",\"events\":" << Events << ",\"ingest_ns\":" << IngestNs
      << ",\"passes\":" << Passes << ",\"batches_per_pass\":"
      << In->Batches.size() << ",\"events_per_pass\":" << In->Events
      << ",\"mismatches\":" << Mismatches << ",\"error\":"
      << jstr(FirstMismatch) << ",\"peak_rss_kb\":" << peakRssKb()
      << ",\"sessions\":" << Last.Sessions << ",\"fused_sessions\":"
      << Last.FusedSessions << ",\"pass_events\":" << Last.Events
      << ",\"pass_blocked\":" << Last.Blocked << ",\"fusions\":" << Fused
      << ",\"fused_states\":" << FusedStates << ",\"fuse_ns\":" << jlist(FuseNs)
      << ",\"counters\":" << countersJson() << ",\"trace\":" << T.json()
      << "}\n";
  return 0;
}

//===----------------------------------------------------------------------===//
// replay: the traced run of the verification workloads
//===----------------------------------------------------------------------===//

/// One resident replica of a session, built layer by layer with a span
/// around each call.
struct Replica {
  std::unique_ptr<hist::HistContext> Ctx;
  std::optional<syntax::SusFile> File;
  std::unique_ptr<core::Verifier> V;
};

Replica buildReplica(const std::string &Source, bool UseIndex, Tracer &T,
                     uint32_t Op) {
  Replica R;
  R.Ctx = std::make_unique<hist::HistContext>();
  DiagnosticEngine Diags;
  {
    Span S(T, "syntax.parse", Op);
    R.File = syntax::parseSusFile(*R.Ctx, Source, Diags);
  }
  if (!R.File)
    die("repository does not parse");
  core::VerifierOptions VOpts;
  VOpts.UseIndex = UseIndex;
  Span S(T, "core.verifier_build", Op);
  R.V = std::make_unique<core::Verifier>(*R.Ctx, R.File->Repo,
                                         R.File->Registry, VOpts);
  return R;
}

/// Verifies one client the way `susc FILE` and `verify client=` do (the
/// generated files declare no plans) and renders the report.
void verifyAndRender(Replica &R, Symbol Name, const hist::Expr *Client,
                     Tracer &T, uint32_t Op, std::string &Out) {
  Out += "== client ";
  Out += R.Ctx->interner().text(Name);
  Out += " ==\n";
  core::VerificationReport Report;
  {
    Span S(T, "core.verify_client", Op);
    Report = R.V->verifyClient(Client, Name);
  }
  Span S(T, "core.render", Op);
  std::ostringstream OS;
  core::printReport(Report, *R.Ctx, OS);
  Out += OS.str();
}

struct ReplayOut {
  std::ostringstream Json;
  std::vector<std::string> Errors;
  void field(const std::string &K, const std::string &V) {
    Json << "," << jstr(K) << ":" << V;
  }
};

/// cold_verify: the whole `susc FILE` pipeline, once per process (so the
/// process pays the same page faults as a fresh susc), traced (spans and
/// program metrics on) or not. Teardown is timed per layer: destroying
/// the verifier and its cache, the parsed file, and the HistContext.
void replayCold(const Flags &F, Tracer &T, ReplayOut &Out) {
  std::string Path = F.get("file");
  std::string Expected = readFile(F.get("expect"));
  bool On = F.num("traced", 1) != 0;
  T.On = On;
  if (On) {
    resetCounters();
    metrics::enable();
  }
  int64_t T0 = nowNs();
  std::string Rendered, Counters, Stats;
  size_t Nodes = 0, Symbols = 0, Bytes = 0;
  {
    Span Whole(T, "oneshot", 0);
    std::string Source;
    {
      Span S(T, "syntax.read", 0);
      Source = readFile(Path);
    }
    Replica R = buildReplica(Source, /*UseIndex=*/false, T, 0);
    for (const auto &[Name, Client] : R.File->Clients)
      verifyAndRender(R, Name, Client, T, 0, Rendered);
    Nodes = R.Ctx->numNodes();
    Symbols = R.Ctx->interner().size();
    Bytes = Source.size();
    Stats = statsJson(R.V->stats());
    Counters = countersJson();
    {
      Span S(T, "core.teardown", 0);
      R.V.reset();
    }
    {
      Span S(T, "syntax.teardown", 0);
      R.File.reset();
    }
    Span S(T, "hist.teardown", 0);
    R.Ctx.reset();
  }
  int64_t Total = nowNs() - T0;
  metrics::disable();
  T.On = false;
  if (Rendered != Expected)
    Out.Errors.push_back("in-process report differs from susc's output");
  Out.field("total_ns", std::to_string(Total));
  Out.field("hist_nodes", std::to_string(Nodes));
  Out.field("hist_symbols", std::to_string(Symbols));
  Out.field("source_bytes", std::to_string(Bytes));
  Out.field("report_bytes", std::to_string(Rendered.size()));
  Out.field("verifier_stats", Stats);
  Out.field("counters", Counters);
}

/// Replays a request mix through daemon::Engine (parseRequest + handle)
/// and, for the reads, through the replica's verifier (verifyClient +
/// printReport), then churn through core::RepairSession. Requests
/// alternate between untraced (the overhead baseline) and traced, so
/// both see the same engine state and the same machine.
void replayServe(const Flags &F, Tracer &T, ReplayOut &Out) {
  std::string Path = F.get("file");
  std::string Source = readFile(Path);
  std::vector<Kind> Mix = readMix(F.get("mix"));
  double Seconds = std::atof(F.get("seconds").c_str());
  uint64_t Seed = static_cast<uint64_t>(F.num("seed", 1));
  std::string SnapPath = F.get("snapshot", "");

  // Set-up, layer by layer, as susd does it: parse, verifier, then either
  // the snapshot (warm_serve) or a full warm-up verification with the
  // index built on first use (churn_mixed).
  T.On = true;
  resetCounters();
  metrics::enable();
  Replica R = buildReplica(Source, /*UseIndex=*/true, T, 0);
  std::string Snap, SnapStats = "{}";
  if (!SnapPath.empty()) {
    Snap = readFile(SnapPath);
    core::SnapshotLoadResult L;
    {
      Span S(T, "serialize.snapshot_load", 0);
      L = core::loadSnapshot(Snap, *R.Ctx, R.File->Repo, *R.V->cache());
    }
    if (!L.Ok)
      die("snapshot rejected: " + L.Error);
    SnapStats = "{\"bytes\":" + std::to_string(L.Stats.Bytes) +
                ",\"compliances\":" + std::to_string(L.Stats.Compliances) +
                ",\"validities\":" + std::to_string(L.Stats.Validities) +
                ",\"index_entries\":" +
                std::to_string(L.Stats.IndexEntries) + "}";
    Span S(T, "plan.index_build", 0);
    R.V->adoptIndex(std::make_unique<plan::ServiceIndex>(
        *R.Ctx, R.File->Repo, L.IndexEntries));
  } else {
    {
      Span S(T, "plan.index_build", 0);
      (void)R.V->index();
    }
    std::string Sink;
    for (const auto &[Name, Client] : R.File->Clients)
      verifyAndRender(R, Name, Client, T, 0, Sink);
  }
  std::string SetupCounters = countersJson();
  metrics::disable();
  T.On = false;

  std::string Err;
  std::unique_ptr<daemon::Engine> E =
      daemon::Engine::create(Source, Path, daemon::EngineOptions(), Err);
  if (!E)
    die("engine: " + Err);
  if (!Snap.empty() && !E->loadSnapshotBytes(Snap, Err))
    die("engine snapshot: " + Err);
  if (Snap.empty()) {
    std::ostringstream Sink;
    (void)E->warmAll(Sink);
  }

  std::vector<plan::Loc> Locs = R.File->Repo.locations();
  MixPicker P(Mix, Seed);
  std::vector<std::vector<int64_t>> HandleNs(Mix.size()),
      UntracedNs(Mix.size());
  resetCounters();
  core::VerifierStats Before = R.V->stats();
  int64_t Deadline = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  size_t Reads = 0, Churns = 0, ReportBytes = 0;
  uint64_t Kept = 0, Reverified = 0, Evicted = 0, Repairs = 0;
  std::string ReplayCounters, ReplayStats;
  for (uint32_t Op = 1;
       (nowNs() < Deadline || HandleNs[0].empty()) && !T.full(); ++Op) {
    bool On = Op % 2 == 0;
    T.On = On;
    if (On)
      metrics::enable();
    else
      metrics::disable();
    size_t K = P.next();
    std::string Line = instantiate(Mix[K], P);
    int64_t T0 = nowNs();
    daemon::Request Req;
    {
      Span S(T, "daemon.parse_request", Op);
      if (!daemon::parseRequest(Line, Req, Err))
        die("request '" + Line + "': " + Err);
    }
    daemon::Response Resp;
    {
      Span S(T,
             Req.Verb == "churn"   ? "daemon.handle.churn"
             : Req.Verb == "stats" ? "daemon.handle.stats"
                                   : "daemon.handle.verify",
             Op);
      Resp = E->handle(Req);
    }
    int64_t Lat = nowNs() - T0;
    (On ? HandleNs : UntracedNs)[K].push_back(Lat);
    std::string Bad = checkResponse(Mix[K], Resp.Exit, Resp.Body);
    if (!Bad.empty() && Out.Errors.size() < 5)
      Out.Errors.push_back("engine replay: " + Bad);
    if (!On)
      continue;

    // The same request through the replica's layers.
    if (Req.Verb == "verify") {
      std::string Rendered;
      std::string Only = Req.param("client");
      for (const auto &[Name, Client] : R.File->Clients)
        if (Only.empty() || R.Ctx->interner().text(Name) == Only)
          verifyAndRender(R, Name, Client, T, Op, Rendered);
      ++Reads;
      ReportBytes += Rendered.size();
      if (Mix[K].Check == "bytes" && Rendered != Mix[K].Ref &&
          Out.Errors.size() < 5)
        Out.Errors.push_back("replica report differs for " + Mix[K].Name);
    } else if (Req.Verb == "churn") {
      // The daemon's churn: per client, a repair session re-verified,
      // then one location (the daemon's LCG draw) retired and
      // re-published.
      ++Churns;
      uint64_t Rng = std::strtoull(Req.param("seed", "1").c_str(), nullptr, 10);
      for (const auto &[Name, Client] : R.File->Clients) {
        Rng = Rng * 6364136223846793005ULL + 1442695040888963407ULL;
        plan::Loc L = Locs[(Rng >> 33) % Locs.size()];
        core::RepairSession Session(*R.V, Client, Name);
        {
          Span S(T, "core.verify_client", Op);
          (void)Session.verify();
        }
        const hist::Expr *Service = R.File->Repo.find(L);
        unsigned Capacity = R.File->Repo.capacity(L);
        for (int Phase = 0; Phase < 2; ++Phase) {
          plan::RepositoryDelta Delta;
          Delta.Changes.push_back(
              Phase == 0 ? plan::applyRemove(R.File->Repo, L)
                         : plan::applyPublish(R.File->Repo, L, Service,
                                              Capacity));
          Outcome<core::RepairStats> Repair = [&] {
            Span S(T, "core.repair", Op);
            return Session.applyDelta(Delta);
          }();
          if (!Repair.ok())
            die("repair tripped a governor");
          Kept += Repair.value().PlansKept;
          Reverified += Repair.value().PlansReverified;
          Evicted += Repair.value().Evicted.ValidityEvicted +
                     Repair.value().Evicted.ComplianceEvicted +
                     Repair.value().Evicted.ProjectionEvicted;
          ++Repairs;
        }
      }
    }
  }
  ReplayCounters = countersJson();
  ReplayStats = statsJson(minus(R.V->stats(), Before));
  metrics::disable();
  T.On = false;

  auto PerKind = [&Mix](const std::vector<std::vector<int64_t>> &Ns) {
    std::ostringstream H;
    H << "{";
    for (size_t K = 0; K < Mix.size(); ++K)
      H << (K ? "," : "") << jstr(Mix[K].Name) << ":" << jlist(Ns[K]);
    H << "}";
    return H.str();
  };
  Out.field("handle_ns", PerKind(HandleNs));
  Out.field("untraced_handle_ns", PerKind(UntracedNs));
  Out.field("setup_counters", SetupCounters);
  Out.field("counters", ReplayCounters);
  Out.field("verifier_stats", ReplayStats);
  Out.field("reads", std::to_string(Reads));
  Out.field("churns", std::to_string(Churns));
  Out.field("report_bytes", std::to_string(ReportBytes));
  Out.field("snapshot_stats", SnapStats);
  Out.field("source_bytes", std::to_string(Source.size()));
  Out.field("hist_nodes", std::to_string(R.Ctx->numNodes()));
  Out.field("hist_symbols", std::to_string(R.Ctx->interner().size()));
  Out.field("repairs", std::to_string(Repairs));
  Out.field("plans_kept", std::to_string(Kept));
  Out.field("plans_reverified", std::to_string(Reverified));
  Out.field("evicted", std::to_string(Evicted));
  if (const plan::ServiceIndex *Index = R.V->index()) {
    plan::IndexStats IS = Index->stats();
    Out.field("index", "{\"lookups\":" + std::to_string(IS.Lookups) +
                           ",\"candidates\":" + std::to_string(IS.Candidates) +
                           ",\"size\":" + std::to_string(Index->size()) + "}");
  }
}

int runReplay(const Flags &F) {
  std::string Mode = F.get("mode");
  Tracer T(1 << 17);
  ReplayOut Out;
  Out.Json << "{\"mode\":" << jstr(Mode);
  if (Mode == "cold")
    replayCold(F, T, Out);
  else if (Mode == "warm" || Mode == "churn")
    replayServe(F, T, Out);
  else
    die("unknown replay mode '" + Mode + "'");
  Out.field("peak_rss_kb", std::to_string(peakRssKb()));
  std::ostringstream Errs;
  Errs << "[";
  for (size_t I = 0; I < Out.Errors.size(); ++I)
    Errs << (I ? "," : "") << jstr(Out.Errors[I]);
  Errs << "]";
  Out.field("errors", Errs.str());
  Out.field("trace", T.json());
  std::ofstream File(F.get("out"));
  File << Out.Json.str() << "}\n";
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    die("usage: susbench load|monitor|replay --flag value...");
  std::string Cmd = Argv[1];
  Flags F(Argc, Argv);
  if (Cmd == "load")
    return runLoad(F);
  if (Cmd == "monitor")
    return runMonitor(F);
  if (Cmd == "replay")
    return runReplay(F);
  die("unknown subcommand '" + Cmd + "'");
}
