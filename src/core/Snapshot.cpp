//===- core/Snapshot.cpp - Persistent VerifierCache snapshots -------------===//

#include "core/Snapshot.h"

#include "serialize/Serialize.h"
#include "serialize/Snapshot.h"

using namespace sus;
using namespace sus::core;
using namespace sus::serialize;

//===----------------------------------------------------------------------===//
// Save
//===----------------------------------------------------------------------===//

std::string core::saveSnapshot(const hist::HistContext &Ctx,
                               const plan::Repository &Repo,
                               const VerifierCache &Cache,
                               const plan::ServiceIndex *Index,
                               SnapshotStats *Stats) {
  SymbolTable Strings(Ctx.interner());
  ExprEncoder Exprs(Strings);
  SnapshotStats S;

  // Dependent sections are built first; they register every symbol and
  // expression they mention, so the Strings/Exprs sections emitted at
  // the end are complete.
  Writer RepoW;
  RepoW.putU32(static_cast<uint32_t>(Repo.services().size()));
  for (const auto &[Location, Service] : Repo.services()) {
    RepoW.putU32(Strings.idOf(Location));
    RepoW.putU32(Exprs.idOf(Service));
    ++S.Repository;
  }

  VerifierCache::Entries Entries = Cache.exportEntries();

  Writer ProjW;
  ProjW.putU32(static_cast<uint32_t>(Entries.Projections.size()));
  for (const auto &[E, P] : Entries.Projections) {
    ProjW.putU32(Exprs.idOf(E));
    ProjW.putU32(Exprs.idOf(P));
    ++S.Projections;
  }

  Writer CompW;
  CompW.putU32(static_cast<uint32_t>(Entries.Compliances.size()));
  for (const VerifierCache::ComplianceEntry &C : Entries.Compliances) {
    CompW.putU32(Exprs.idOf(C.RequestBody));
    CompW.putU32(Exprs.idOf(C.Service));
    encodeCompliance(CompW, Strings, Exprs, C.Result);
    ++S.Compliances;
  }

  Writer ValdW;
  ValdW.putU32(static_cast<uint32_t>(Entries.Validities.size()));
  for (const VerifierCache::ValidityEntry &V : Entries.Validities) {
    ValdW.putU32(Exprs.idOf(V.Client));
    ValdW.putU32(Strings.idOf(V.ClientLoc));
    ValdW.putU32(static_cast<uint32_t>(V.Pi.bindings().size()));
    for (const auto &[Req, Location] : V.Pi.bindings()) {
      ValdW.putU32(Req);
      ValdW.putU32(Strings.idOf(Location));
    }
    ValdW.putU64(V.MaxStates);
    encodeValidity(ValdW, Strings, V.Result);
    ++S.Validities;
  }

  Writer IndxW;
  std::vector<plan::ServiceIndex::SnapshotEntry> IndexEntries;
  if (Index)
    IndexEntries = Index->snapshotEntries();
  IndxW.putU32(static_cast<uint32_t>(IndexEntries.size()));
  for (const plan::ServiceIndex::SnapshotEntry &E : IndexEntries) {
    IndxW.putU32(Strings.idOf(E.Location));
    IndxW.putU32(Exprs.idOf(E.Service));
    encodeSummary(IndxW, Strings, E.Summary);
    ++S.IndexEntries;
  }

  // Order matters: ExprEncoder::payload() registers the symbols its
  // records mention, so the Exprs payload must be rendered before the
  // Strings payload is captured (the container still stores Strings
  // first — the decoder needs it first).
  std::string ExprsPayload = Exprs.payload();
  std::string StringsPayload = Strings.payload();

  SectionWriter Container;
  Container.addSection(SectionTag::Strings, StringsPayload);
  Container.addSection(SectionTag::Exprs, ExprsPayload);
  Container.addSection(SectionTag::Repository, RepoW.take());
  Container.addSection(SectionTag::Projections, ProjW.take());
  Container.addSection(SectionTag::Compliances, CompW.take());
  Container.addSection(SectionTag::Validities, ValdW.take());
  Container.addSection(SectionTag::Index, IndxW.take());

  std::string Bytes = Container.finish();
  S.Bytes = Bytes.size();
  // The tables know their own sizes only through their payloads' counts;
  // read them back from the front of each captured payload.
  {
    Reader SR(StringsPayload);
    S.Strings = SR.getU32();
    Reader ER(ExprsPayload);
    S.Exprs = ER.getU32();
  }
  if (Stats)
    *Stats = S;
  return Bytes;
}

//===----------------------------------------------------------------------===//
// Load
//===----------------------------------------------------------------------===//

namespace {

SnapshotLoadResult fail(std::string Msg) {
  SnapshotLoadResult R;
  R.Error = std::move(Msg);
  return R;
}

/// Wraps one section's Reader and enforces full consumption: a valid
/// section leaves no trailing bytes.
bool sectionDone(Reader &R, const char *What, std::string &Err) {
  if (R.failed()) {
    Err = std::string(What) + " section: " + R.error();
    return false;
  }
  if (!R.atEnd()) {
    Err = std::string(What) + " section has trailing bytes";
    return false;
  }
  return true;
}

} // namespace

SnapshotLoadResult core::loadSnapshot(std::string_view Bytes,
                                      hist::HistContext &Ctx,
                                      const plan::Repository &Repo,
                                      VerifierCache &Cache) {
  SectionReader Container(Bytes);
  if (!Container.ok())
    return fail(Container.error());

  auto StringsSec = Container.section(SectionTag::Strings);
  auto ExprsSec = Container.section(SectionTag::Exprs);
  auto RepoSec = Container.section(SectionTag::Repository);
  if (!StringsSec || !ExprsSec || !RepoSec)
    return fail("snapshot is missing a required section "
                "(strings/exprs/repository)");

  SnapshotLoadResult Out;

  // Strings and expressions re-intern through the live context. This may
  // add entries to the interner/arena even when a later check fails —
  // harmless under hash-consing, and the cache itself is untouched until
  // every section has validated.
  Reader StrR(*StringsSec);
  SymbolDecoder Strings(StrR, Ctx.interner());
  if (!sectionDone(StrR, "strings", Out.Error))
    return Out;
  Out.Stats.Strings = Strings.size();

  Reader ExprR(*ExprsSec);
  ExprDecoder Exprs(ExprR, Strings, Ctx);
  if (!sectionDone(ExprR, "expressions", Out.Error))
    return Out;
  Out.Stats.Exprs = Exprs.size();

  // Repository signature: the snapshot binds to the exact published
  // (location, service) set; hash-consing makes pointer equality the
  // right test after re-interning.
  {
    Reader R(*RepoSec);
    uint32_t Count = R.getU32();
    if (Count != Repo.services().size()) {
      return fail("snapshot does not match the current repository (" +
                  std::to_string(Count) + " recorded services vs " +
                  std::to_string(Repo.services().size()) + " published)");
    }
    for (uint32_t I = 0; I < Count && !R.failed(); ++I) {
      Symbol Location = Strings.symbol(R.getU32(), R);
      const hist::Expr *Service = Exprs.expr(R.getU32(), R);
      if (R.failed())
        break;
      if (!Location.isValid() || !Service)
        return fail("snapshot repository entry is incomplete");
      if (Repo.find(Location) != Service)
        return fail("snapshot does not match the current repository "
                    "(service at '" +
                    std::string(Ctx.interner().text(Location)) +
                    "' differs)");
      ++Out.Stats.Repository;
    }
    if (!sectionDone(R, "repository", Out.Error))
      return Out;
  }

  // Stage everything; absorb only after the last validation passed.
  VerifierCache::Entries Staged;

  if (auto Sec = Container.section(SectionTag::Projections)) {
    Reader R(*Sec);
    uint32_t Count = R.getU32();
    if (!R.checkCount(Count, 8, "projection"))
      return fail("projections section: " + R.error());
    for (uint32_t I = 0; I < Count && !R.failed(); ++I) {
      const hist::Expr *E = Exprs.expr(R.getU32(), R);
      const hist::Expr *P = Exprs.expr(R.getU32(), R);
      if (R.failed())
        break;
      if (!E || !P)
        return fail("projection entry references a null expression");
      Staged.Projections.emplace_back(E, P);
    }
    if (!sectionDone(R, "projections", Out.Error))
      return Out;
    Out.Stats.Projections = Staged.Projections.size();
  }

  if (auto Sec = Container.section(SectionTag::Compliances)) {
    Reader R(*Sec);
    uint32_t Count = R.getU32();
    if (!R.checkCount(Count, 11, "compliance"))
      return fail("compliances section: " + R.error());
    for (uint32_t I = 0; I < Count && !R.failed(); ++I) {
      VerifierCache::ComplianceEntry C;
      C.RequestBody = Exprs.expr(R.getU32(), R);
      C.Service = Exprs.expr(R.getU32(), R);
      C.Result = decodeCompliance(R, Strings, Exprs);
      if (R.failed())
        break;
      if (!C.RequestBody || !C.Service)
        return fail("compliance entry references a null expression");
      Staged.Compliances.push_back(std::move(C));
    }
    if (!sectionDone(R, "compliances", Out.Error))
      return Out;
    Out.Stats.Compliances = Staged.Compliances.size();
  }

  if (auto Sec = Container.section(SectionTag::Validities)) {
    Reader R(*Sec);
    uint32_t Count = R.getU32();
    if (!R.checkCount(Count, 15, "validity"))
      return fail("validities section: " + R.error());
    for (uint32_t I = 0; I < Count && !R.failed(); ++I) {
      VerifierCache::ValidityEntry V;
      V.Client = Exprs.expr(R.getU32(), R);
      V.ClientLoc = Strings.symbol(R.getU32(), R);
      uint32_t NBind = R.getU32();
      if (!R.checkCount(NBind, 8, "plan binding"))
        break;
      for (uint32_t J = 0; J < NBind && !R.failed(); ++J) {
        hist::RequestId Req = R.getU32();
        Symbol Location = Strings.symbol(R.getU32(), R);
        if (R.failed())
          break;
        // Plan::bind asserts freshness; a corrupt duplicate must be a
        // clean rejection instead.
        if (V.Pi.covers(Req))
          return fail("validity entry binds request " +
                      std::to_string(Req) + " twice");
        if (!Location.isValid())
          return fail("validity entry binds an unnamed location");
        V.Pi.bind(Req, Location);
      }
      V.MaxStates = static_cast<size_t>(R.getU64());
      V.Result = decodeValidity(R, Strings);
      if (R.failed())
        break;
      if (!V.Client)
        return fail("validity entry references a null client");
      Staged.Validities.push_back(std::move(V));
    }
    if (!sectionDone(R, "validities", Out.Error))
      return Out;
    Out.Stats.Validities = Staged.Validities.size();
  }

  if (auto Sec = Container.section(SectionTag::Index)) {
    Reader R(*Sec);
    uint32_t Count = R.getU32();
    if (!R.checkCount(Count, 12, "index entry"))
      return fail("index section: " + R.error());
    for (uint32_t I = 0; I < Count && !R.failed(); ++I) {
      plan::ServiceIndex::SnapshotEntry E;
      E.Location = Strings.symbol(R.getU32(), R);
      E.Service = Exprs.expr(R.getU32(), R);
      E.Summary = decodeSummary(R, Strings);
      if (R.failed())
        break;
      if (!E.Location.isValid() || !E.Service)
        return fail("index entry is incomplete");
      Out.IndexEntries.push_back(std::move(E));
    }
    if (!sectionDone(R, "index", Out.Error)) {
      Out.IndexEntries.clear();
      return Out;
    }
    Out.Stats.IndexEntries = Out.IndexEntries.size();
  }

  // Every section validated: absorb. Live entries win over the snapshot.
  Cache.absorb(Staged);

  Out.Ok = true;
  Out.Stats.Bytes = Bytes.size();
  return Out;
}
