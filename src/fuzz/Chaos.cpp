//===- fuzz/Chaos.cpp - Governor chaos soak -------------------------------===//

#include "fuzz/Chaos.h"

#include "core/Verifier.h"
#include "core/VerifierCache.h"
#include "plan/RequestExtract.h"
#include "support/ResourceGovernor.h"

#include <chrono>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

using namespace sus;
using namespace sus::fuzz;

namespace {

/// Keeps plan enumeration identical (and small) across the reference,
/// governed and clean runs, so reports are comparable element-wise.
core::VerifierOptions baseOptions() {
  core::VerifierOptions O;
  O.MaxPlans = 256;
  return O;
}

/// Looks up the reference verdict for plan \p Pi; null when the reference
/// run never enumerated it.
const core::PlanVerdict *findVerdict(const core::VerificationReport &Report,
                                     const plan::Plan &Pi) {
  for (const core::PlanVerdict &V : Report.Verdicts)
    if (V.Pi == Pi)
      return &V;
  return nullptr;
}

void soakClient(hist::HistContext &Ctx, const syntax::SusFile &File,
                Symbol ClientName, const hist::Expr *Client,
                std::mt19937_64 &Rng, unsigned Rounds,
                std::vector<Divergence> &Out) {
  // Very request-heavy clients make the plan space explode; the soak is
  // about governor behavior, not enumeration scale.
  if (plan::extractRequests(Client).size() > 5)
    return;

  std::string Name(Ctx.interner().text(ClientName));

  core::Verifier Reference(Ctx, File.Repo, File.Registry, baseOptions());
  core::VerificationReport Want = Reference.verifyClient(Client, ClientName);
  if (Want.anyInconclusive()) {
    Out.push_back({"chaos", "ungoverned reference run for " + Name +
                                " reported an inconclusive verdict"});
    return;
  }

  auto Shared = std::make_shared<core::VerifierCache>();
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    auto Gov = std::make_shared<ResourceGovernor>();
    std::thread Canceller;
    switch (Rng() % 4) {
    case 0:
      Gov->setProductLimit(1 + Rng() % 8);
      break;
    case 1:
      Gov->setProductLimit(1 + Rng() % 64);
      break;
    case 2:
      Gov->setDeadlineAfterMillis(0); // Trips the very first poll.
      break;
    default: { // Genuine mid-run cancellation from a second thread.
      unsigned DelayMicros = Rng() % 400;
      Canceller = std::thread([Gov, DelayMicros] {
        std::this_thread::sleep_for(std::chrono::microseconds(DelayMicros));
        Gov->requestCancel();
      });
      break;
    }
    }

    core::VerifierOptions GovernedOptions = baseOptions();
    GovernedOptions.Governor = Gov;
    core::Verifier Governed(Ctx, File.Repo, File.Registry, GovernedOptions,
                            Shared);
    core::VerificationReport Partial =
        Governed.verifyClient(Client, ClientName);
    if (Canceller.joinable())
      Canceller.join();

    // Invariant 1: Inconclusive-or-correct. A tripped run may fail to
    // decide a plan, but a decided verdict must match the reference.
    for (const core::PlanVerdict &V : Partial.Verdicts) {
      if (V.inconclusive())
        continue;
      const core::PlanVerdict *W = findVerdict(Want, V.Pi);
      std::ostringstream OS;
      if (!W) {
        OS << "governed run for " << Name << " decided plan "
           << V.Pi.str(Ctx.interner())
           << " that the reference never enumerated";
        Out.push_back({"chaos", OS.str()});
      } else if (V.isValid() != W->isValid()) {
        OS << "governed run for " << Name << " called plan "
           << V.Pi.str(Ctx.interner()) << " "
           << (V.isValid() ? "valid" : "invalid")
           << " but the ungoverned reference says the opposite";
        Out.push_back({"chaos", OS.str()});
      }
    }
  }

  // Invariant 2: no cache pollution. A clean verifier sharing the cache
  // every tripped run wrote through must reproduce the reference
  // element-wise.
  core::Verifier Clean(Ctx, File.Repo, File.Registry, baseOptions(), Shared);
  core::VerificationReport Got = Clean.verifyClient(Client, ClientName);
  bool Match = Got.Verdicts.size() == Want.Verdicts.size() &&
               !Got.anyInconclusive();
  for (size_t I = 0; Match && I < Got.Verdicts.size(); ++I)
    Match = Got.Verdicts[I].Pi == Want.Verdicts[I].Pi &&
            Got.Verdicts[I].isValid() == Want.Verdicts[I].isValid();
  if (!Match)
    Out.push_back(
        {"chaos", "verdicts for " + Name +
                      " changed after tripped runs shared the cache"});
}

} // namespace

void sus::fuzz::chaosSoak(hist::HistContext &Ctx, const syntax::SusFile &File,
                          uint64_t Seed, unsigned Rounds,
                          std::vector<Divergence> &Out) {
  std::mt19937_64 Rng(Seed * 0xbf58476d1ce4e5b9ull + 7);
  for (const auto &[Name, Client] : File.Clients)
    soakClient(Ctx, File, Name, Client, Rng, Rounds, Out);
}
