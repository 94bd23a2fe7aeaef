//===- tools/susd.cpp - The resident SUS verification daemon --------------===//
///
/// \file
/// susd — keep one parsed .sus session resident (repository, compiled
/// policy DFAs, ServiceIndex, VerifierCache) and serve verify/lint/churn
/// requests over a local AF_UNIX socket, so repeat verifications pay
/// memo-table lookups instead of cold re-analysis.
///
///   susd --listen /tmp/susd.sock file.sus      serve until shutdown
///   susd --warm file.sus                       one-shot verify (cold)
///   susd --snapshot s.bin --warm file.sus      one-shot verify (warm)
///   susd --warm --save-snapshot s.bin file.sus cut a snapshot
///
/// Clients talk to a listening daemon with `susc --connect SOCKET VERB
/// [key=value]...` and exit with the code the request earned (the plain
/// susc contract: 0 ok, 1 refuted, 2 usage/parse error, 3 inconclusive).
///
/// Exit codes for susd itself: the one-shot --warm verify code, 0 for a
/// clean daemon shutdown, and 2 on usage errors, unparsable input or a
/// rejected snapshot (wrong version, corrupt, or cut from a different
/// repository — never loaded partially).
///
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"
#include "support/ParseCount.h"

#include <iostream>
#include <string>
#include <vector>

using namespace sus;

namespace {

struct DaemonCliOptions {
  bool Help = false;
  std::string InputPath;
  std::string ListenPath;      ///< --listen: empty = one-shot mode.
  std::string SnapshotIn;      ///< --snapshot: load at startup.
  std::string SnapshotOut;     ///< --save-snapshot: write before exit/serve.
  bool Warm = false;           ///< --warm: verify every client at startup.
  bool UseIndex = true;        ///< --no-index clears.
  unsigned Workers = 2;        ///< Connection-handling threads.
  std::vector<std::string> TenantSpecs;
};

constexpr unsigned long MaxWorkers = 256;

void printUsage(std::ostream &OS) {
  OS << "usage: susd [options] file.sus\n"
        "  --listen PATH       serve requests on an AF_UNIX socket at PATH\n"
        "                      until a shutdown request arrives; without\n"
        "                      --listen susd runs one-shot and exits\n"
        "  --warm              verify every client at startup (fills the\n"
        "                      memo tables; the one-shot exit code is the\n"
        "                      verify verdict)\n"
        "  --snapshot FILE     load a persistent cache snapshot before\n"
        "                      anything else; a wrong-version, corrupt or\n"
        "                      mismatched snapshot is rejected (exit 2)\n"
        "  --save-snapshot FILE\n"
        "                      write the cache snapshot after warming\n"
        "                      (one-shot) / before serving (daemon)\n"
        "  --workers N         connection-handling threads (default 2)\n"
        "  --no-index          disable the ServiceIndex\n"
        "  --tenant SPEC       per-tenant budget NAME:DL_MS:PROD\n"
        "                      (empty fields = no limit; NAME '*' sets the\n"
        "                      default; repeatable)\n"
        "exit codes: one-shot verify verdict (0/1/3), 0 on clean daemon\n"
        "            shutdown, 2 on usage/parse/snapshot errors\n";
}

bool takeValue(int Argc, char **Argv, int &I, const std::string &Flag,
               std::string &Out) {
  if (I + 1 >= Argc) {
    std::cerr << "susd: missing value for '" << Flag << "'\n";
    return false;
  }
  Out = Argv[++I];
  return true;
}

bool parseUnsigned(const std::string &Flag, const std::string &Value,
                   unsigned long Max, unsigned &Out) {
  uint64_t N = 0;
  CountParse R = parseCount(Value, N);
  if (R == CountParse::NotDigits) {
    std::cerr << "susd: " << Flag << " expects a positive integer, got '"
              << Value << "'\n";
    return false;
  }
  if (R == CountParse::OutOfRange || N > Max || N == 0) {
    std::cerr << "susd: " << Flag << " value '" << Value
              << "' is out of range (1.." << Max << ")\n";
    return false;
  }
  Out = static_cast<unsigned>(N);
  return true;
}

bool parseArgs(int Argc, char **Argv, DaemonCliOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--listen") {
      if (!takeValue(Argc, Argv, I, Arg, Opts.ListenPath))
        return false;
    } else if (Arg == "--snapshot") {
      if (!takeValue(Argc, Argv, I, Arg, Opts.SnapshotIn))
        return false;
    } else if (Arg == "--save-snapshot") {
      if (!takeValue(Argc, Argv, I, Arg, Opts.SnapshotOut))
        return false;
    } else if (Arg == "--warm") {
      Opts.Warm = true;
    } else if (Arg == "--no-index") {
      Opts.UseIndex = false;
    } else if (Arg == "--workers") {
      std::string Value;
      if (!takeValue(Argc, Argv, I, Arg, Value) ||
          !parseUnsigned(Arg, Value, MaxWorkers, Opts.Workers))
        return false;
    } else if (Arg == "--tenant") {
      std::string Value;
      if (!takeValue(Argc, Argv, I, Arg, Value))
        return false;
      Opts.TenantSpecs.push_back(Value);
    } else if (Arg == "--help" || Arg == "-h") {
      Opts.Help = true;
      return true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "susd: unknown option '" << Arg << "'\n";
      printUsage(std::cerr);
      return false;
    } else if (Opts.InputPath.empty()) {
      Opts.InputPath = Arg;
    } else {
      std::cerr << "susd: multiple input files\n";
      return false;
    }
  }
  if (Opts.InputPath.empty()) {
    printUsage(std::cerr);
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  DaemonCliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 2;
  if (Opts.Help) {
    printUsage(std::cout);
    return 0;
  }

  daemon::EngineOptions EOpts;
  EOpts.UseIndex = Opts.UseIndex;
  for (const std::string &Spec : Opts.TenantSpecs) {
    std::string Err;
    if (!EOpts.Tenants.addSpec(Spec, Err)) {
      std::cerr << "susd: " << Err << "\n";
      return 2;
    }
  }

  std::string Source;
  if (!core::readFile(Opts.InputPath, Source)) {
    std::cerr << "susd: cannot open '" << Opts.InputPath << "'\n";
    return 2;
  }

  std::string Err;
  std::unique_ptr<daemon::Engine> Engine =
      daemon::Engine::create(std::move(Source), Opts.InputPath, EOpts, Err);
  if (!Engine) {
    std::cerr << Err;
    return 2;
  }

  if (!Opts.SnapshotIn.empty()) {
    std::string Bytes;
    if (!core::readFile(Opts.SnapshotIn, Bytes)) {
      std::cerr << "susd: cannot open snapshot '" << Opts.SnapshotIn
                << "'\n";
      return 2;
    }
    core::SnapshotStats Stats;
    if (!Engine->loadSnapshotBytes(Bytes, Err, &Stats)) {
      // The rejection contract: a bad snapshot is a clean exit 2 with a
      // diagnostic, never a partial load (CI asserts on this).
      std::cerr << "susd: snapshot rejected: " << Err << "\n";
      return 2;
    }
    std::cerr << "susd: snapshot loaded (" << Stats.Compliances
              << " compliances, " << Stats.Validities << " validities, "
              << Stats.IndexEntries << " index entries)\n";
  }

  int WarmCode = 0;
  if (Opts.Warm)
    WarmCode = Engine->warmAll(std::cout);

  if (!Opts.SnapshotOut.empty()) {
    core::SnapshotStats Stats;
    if (!core::writeFileAtomic(Opts.SnapshotOut,
                               Engine->saveSnapshotBytes(&Stats), Err)) {
      std::cerr << "susd: cannot write snapshot '" << Opts.SnapshotOut
                << "': " << Err << "\n";
      return 2;
    }
    std::cerr << "susd: snapshot saved (" << Stats.Bytes << " bytes)\n";
  }

  if (Opts.ListenPath.empty())
    return WarmCode;

  daemon::ServeOptions SOpts;
  SOpts.SocketPath = Opts.ListenPath;
  SOpts.Workers = Opts.Workers;
  SOpts.Log = &std::cout;
  return daemon::serve(*Engine, SOpts);
}
