//===- serialize/Snapshot.cpp - Codecs for the snapshot sections ----------===//

#include "serialize/Snapshot.h"

#include "hist/Walk.h"
#include "support/Casting.h"

#include <algorithm>

using namespace sus;
using namespace sus::serialize;
using namespace sus::hist;

//===----------------------------------------------------------------------===//
// SymbolTable
//===----------------------------------------------------------------------===//

uint32_t SymbolTable::idOf(Symbol S) {
  if (!S.isValid())
    return NoId;
  auto It = Ids.find(S);
  if (It != Ids.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(Order.size());
  Ids.emplace(S, Id);
  Order.push_back(S);
  return Id;
}

std::string SymbolTable::payload() const {
  Writer W;
  W.putU32(static_cast<uint32_t>(Order.size()));
  for (Symbol S : Order)
    W.putString(Interner.text(S));
  return W.take();
}

//===----------------------------------------------------------------------===//
// ExprEncoder
//===----------------------------------------------------------------------===//

uint32_t ExprEncoder::idOf(const Expr *E) {
  if (!E)
    return NoId;
  auto Known = Ids.find(E);
  if (Known != Ids.end())
    return Known->second;

  // Iterative post-order so children always receive smaller ids than
  // their parents and deep right-nested sequences cannot overflow the
  // call stack.
  std::vector<std::pair<const Expr *, bool>> Stack;
  Stack.emplace_back(E, false);
  while (!Stack.empty()) {
    auto [X, Visited] = Stack.back();
    Stack.pop_back();
    if (Ids.count(X))
      continue;
    if (Visited) {
      Ids.emplace(X, static_cast<uint32_t>(Order.size()));
      Order.push_back(X);
      continue;
    }
    Stack.emplace_back(X, true);
    forEachChild(X, [&](const Expr *C) { Stack.emplace_back(C, false); });
  }
  return Ids.at(E);
}

void ExprEncoder::encodeInto(Writer &W, const Expr *E) const {
  W.putU8(static_cast<uint8_t>(E->kind()));
  switch (E->kind()) {
  case ExprKind::Empty:
    break;
  case ExprKind::Var:
    W.putU32(Strings.idOf(cast<VarExpr>(E)->name()));
    break;
  case ExprKind::Mu: {
    const auto *M = cast<MuExpr>(E);
    W.putU32(Strings.idOf(M->var()));
    W.putU32(Ids.at(M->body()));
    break;
  }
  case ExprKind::Event:
    encodeEvent(W, Strings, cast<EventExpr>(E)->event());
    break;
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    W.putU32(Ids.at(S->head()));
    W.putU32(Ids.at(S->tail()));
    break;
  }
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice: {
    const auto *C = cast<ChoiceExpr>(E);
    W.putU32(static_cast<uint32_t>(C->numBranches()));
    for (const ChoiceBranch &B : C->branches()) {
      encodeCommAction(W, Strings, B.Guard);
      W.putU32(Ids.at(B.Body));
    }
    break;
  }
  case ExprKind::Request: {
    const auto *Rq = cast<RequestExpr>(E);
    W.putU32(Rq->request());
    encodePolicyRef(W, Strings, Rq->policy());
    W.putU32(Ids.at(Rq->body()));
    break;
  }
  case ExprKind::Framing: {
    const auto *F = cast<FramingExpr>(E);
    encodePolicyRef(W, Strings, F->policy());
    W.putU32(Ids.at(F->body()));
    break;
  }
  case ExprKind::CloseMark: {
    const auto *C = cast<CloseMarkExpr>(E);
    W.putU32(C->request());
    encodePolicyRef(W, Strings, C->policy());
    break;
  }
  case ExprKind::FrameOpen:
    encodePolicyRef(W, Strings, cast<FrameOpenExpr>(E)->policy());
    break;
  case ExprKind::FrameClose:
    encodePolicyRef(W, Strings, cast<FrameCloseExpr>(E)->policy());
    break;
  }
}

std::string ExprEncoder::payload() const {
  Writer W;
  W.putU32(static_cast<uint32_t>(Order.size()));
  for (const Expr *E : Order)
    encodeInto(W, E);
  return W.take();
}

//===----------------------------------------------------------------------===//
// Scalar encoders
//===----------------------------------------------------------------------===//

void sus::serialize::encodeValue(Writer &W, SymbolTable &Strings,
                                 const Value &V) {
  W.putU8(static_cast<uint8_t>(V.kind()));
  switch (V.kind()) {
  case Value::Kind::None:
    break;
  case Value::Kind::Int:
    W.putI64(V.asInt());
    break;
  case Value::Kind::Name:
    W.putU32(Strings.idOf(V.asName()));
    break;
  }
}

void sus::serialize::encodeCommAction(Writer &W, SymbolTable &Strings,
                                      CommAction A) {
  W.putU32(Strings.idOf(A.Channel));
  W.putU8(static_cast<uint8_t>(A.Pol));
}

void sus::serialize::encodeEvent(Writer &W, SymbolTable &Strings,
                                 const Event &Ev) {
  W.putU32(Strings.idOf(Ev.Name));
  encodeValue(W, Strings, Ev.Arg);
}

void sus::serialize::encodePolicyRef(Writer &W, SymbolTable &Strings,
                                     const PolicyRef &Ref) {
  W.putU32(Strings.idOf(Ref.Name));
  W.putU32(static_cast<uint32_t>(Ref.Args.size()));
  for (const std::vector<Value> &Arg : Ref.Args) {
    W.putU32(static_cast<uint32_t>(Arg.size()));
    for (const Value &V : Arg)
      encodeValue(W, Strings, V);
  }
}

void sus::serialize::encodeReadySet(Writer &W, SymbolTable &Strings,
                                    const contract::ReadySet &S) {
  W.putU32(static_cast<uint32_t>(S.size()));
  for (const CommAction &A : S)
    encodeCommAction(W, Strings, A);
}

void sus::serialize::encodeSummary(Writer &W, SymbolTable &Strings,
                                   const contract::ContractSummary &Summary) {
  W.putU8(Summary.Screenable ? 1 : 0);
  W.putU8(Summary.NeedsSync ? 1 : 0);
  W.putU32(static_cast<uint32_t>(Summary.InitialSets.size()));
  for (const contract::ReadySet &S : Summary.InitialSets)
    encodeReadySet(W, Strings, S);
  encodeReadySet(W, Strings, Summary.Alphabet);
  encodeReadySet(W, Strings, Summary.IndexKey);
}

void sus::serialize::encodeCompliance(Writer &W, SymbolTable &Strings,
                                      ExprEncoder &Exprs,
                                      const contract::ComplianceResult &R) {
  assert(!R.Exhausted && "inconclusive results are never serialized");
  W.putU8(R.Compliant ? 1 : 0);
  W.putU8(R.Witness ? 1 : 0);
  if (R.Witness) {
    W.putU32(static_cast<uint32_t>(R.Witness->Path.size()));
    for (const CommAction &A : R.Witness->Path)
      encodeCommAction(W, Strings, A);
    W.putU32(Exprs.idOf(R.Witness->ClientStuck));
    W.putU32(Exprs.idOf(R.Witness->ServerStuck));
  }
  W.putU64(R.ExploredStates);
}

void sus::serialize::encodeValidity(Writer &W, SymbolTable &Strings,
                                    const validity::StaticValidityResult &R) {
  assert(R.Failure != validity::PlanFailureKind::ResourceExhausted &&
         "inconclusive results are never serialized");
  W.putU8(R.Valid ? 1 : 0);
  W.putU8(static_cast<uint8_t>(R.Failure));
  W.putU8(R.Policy ? 1 : 0);
  if (R.Policy)
    encodePolicyRef(W, Strings, *R.Policy);
  W.putU8(R.Request ? 1 : 0);
  if (R.Request)
    W.putU32(*R.Request);
  W.putU32(static_cast<uint32_t>(R.Trace.size()));
  for (const std::string &Step : R.Trace)
    W.putString(Step);
  W.putU64(R.ExploredStates);
  W.putU8(R.HasStuckConfiguration ? 1 : 0);
}

//===----------------------------------------------------------------------===//
// SymbolDecoder / ExprDecoder
//===----------------------------------------------------------------------===//

SymbolDecoder::SymbolDecoder(Reader &R, StringInterner &Interner) {
  uint32_t Count = R.getU32();
  if (!R.checkCount(Count, 4, "string"))
    return;
  Symbols.reserve(Count);
  for (uint32_t I = 0; I < Count && !R.failed(); ++I) {
    std::string_view Text = R.getString();
    if (R.failed())
      return;
    Symbols.push_back(Interner.intern(Text));
  }
}

Symbol SymbolDecoder::symbol(uint32_t Id, Reader &R) const {
  if (Id == NoId)
    return Symbol();
  if (Id >= Symbols.size()) {
    R.fail("string reference " + std::to_string(Id) + " out of range");
    return Symbol();
  }
  return Symbols[Id];
}

ExprDecoder::ExprDecoder(Reader &R, const SymbolDecoder &Strings,
                         HistContext &Ctx) {
  uint32_t Count = R.getU32();
  if (!R.checkCount(Count, 1, "expression"))
    return;
  Exprs.reserve(Count);
  for (uint32_t I = 0; I < Count && !R.failed(); ++I) {
    const Expr *E = decodeOne(R, Strings, Ctx);
    if (R.failed())
      return;
    Exprs.push_back(E);
  }
}

const Expr *ExprDecoder::expr(uint32_t Id, Reader &R) const {
  if (Id == NoId)
    return nullptr;
  if (Id >= Exprs.size()) {
    R.fail("expression reference " + std::to_string(Id) + " out of range");
    return nullptr;
  }
  return Exprs[Id];
}

const Expr *ExprDecoder::decodeOne(Reader &R, const SymbolDecoder &Strings,
                                   HistContext &Ctx) const {
  uint8_t KindByte = R.getU8();
  if (R.failed())
    return nullptr;
  if (KindByte > static_cast<uint8_t>(ExprKind::FrameClose)) {
    R.fail("corrupt expression kind " + std::to_string(KindByte));
    return nullptr;
  }
  // Child references only point at earlier pool slots (topological order
  // is a format invariant), which expr() enforces by bounds-checking
  // against the pool decoded so far.
  switch (static_cast<ExprKind>(KindByte)) {
  case ExprKind::Empty:
    return Ctx.empty();
  case ExprKind::Var: {
    Symbol Name = Strings.symbol(R.getU32(), R);
    if (R.failed())
      return nullptr;
    if (!Name.isValid()) {
      R.fail("recursion variable without a name");
      return nullptr;
    }
    return Ctx.var(Name);
  }
  case ExprKind::Mu: {
    Symbol Var = Strings.symbol(R.getU32(), R);
    const Expr *Body = expr(R.getU32(), R);
    if (R.failed())
      return nullptr;
    if (!Var.isValid()) {
      R.fail("mu binder without a variable name");
      return nullptr;
    }
    return Ctx.mu(Var, Body);
  }
  case ExprKind::Event: {
    Event Ev = decodeEvent(R, Strings);
    if (R.failed())
      return nullptr;
    return Ctx.event(Ev);
  }
  case ExprKind::Seq: {
    const Expr *Head = expr(R.getU32(), R);
    const Expr *Tail = expr(R.getU32(), R);
    if (R.failed())
      return nullptr;
    return Ctx.seq(Head, Tail);
  }
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice: {
    bool External = KindByte == static_cast<uint8_t>(ExprKind::ExtChoice);
    uint32_t N = R.getU32();
    if (!R.checkCount(N, 9, "choice branch"))
      return nullptr;
    if (N == 0) {
      R.fail("choice with no branches");
      return nullptr;
    }
    std::vector<ChoiceBranch> Branches;
    Branches.reserve(N);
    for (uint32_t I = 0; I < N; ++I) {
      CommAction Guard = decodeCommAction(R, Strings);
      const Expr *Body = expr(R.getU32(), R);
      if (R.failed())
        return nullptr;
      // The factories assert guard polarity; a corrupt snapshot must be
      // rejected here instead.
      if (Guard.isInput() != External) {
        R.fail("choice guard polarity does not match the choice kind");
        return nullptr;
      }
      Branches.push_back({Guard, Body});
    }
    return External ? Ctx.extChoice(std::move(Branches))
                    : Ctx.intChoice(std::move(Branches));
  }
  case ExprKind::Request: {
    RequestId Req = R.getU32();
    PolicyRef Policy = decodePolicyRef(R, Strings);
    const Expr *Body = expr(R.getU32(), R);
    if (R.failed())
      return nullptr;
    return Ctx.request(Req, std::move(Policy), Body);
  }
  case ExprKind::Framing: {
    PolicyRef Policy = decodePolicyRef(R, Strings);
    const Expr *Body = expr(R.getU32(), R);
    if (R.failed())
      return nullptr;
    return Ctx.framing(std::move(Policy), Body);
  }
  case ExprKind::CloseMark: {
    RequestId Req = R.getU32();
    PolicyRef Policy = decodePolicyRef(R, Strings);
    if (R.failed())
      return nullptr;
    return Ctx.closeMark(Req, std::move(Policy));
  }
  case ExprKind::FrameOpen: {
    PolicyRef Policy = decodePolicyRef(R, Strings);
    if (R.failed())
      return nullptr;
    return Ctx.frameOpen(std::move(Policy));
  }
  case ExprKind::FrameClose: {
    PolicyRef Policy = decodePolicyRef(R, Strings);
    if (R.failed())
      return nullptr;
    return Ctx.frameClose(std::move(Policy));
  }
  }
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Scalar decoders
//===----------------------------------------------------------------------===//

Value sus::serialize::decodeValue(Reader &R, const SymbolDecoder &Strings) {
  uint8_t Kind = R.getU8();
  switch (Kind) {
  case static_cast<uint8_t>(Value::Kind::None):
    return Value();
  case static_cast<uint8_t>(Value::Kind::Int):
    return Value::integer(R.getI64());
  case static_cast<uint8_t>(Value::Kind::Name): {
    Symbol S = Strings.symbol(R.getU32(), R);
    if (!S.isValid()) {
      R.fail("named value without a name");
      return Value();
    }
    return Value::name(S);
  }
  default:
    if (!R.failed())
      R.fail("corrupt value kind " + std::to_string(Kind));
    return Value();
  }
}

CommAction sus::serialize::decodeCommAction(Reader &R,
                                            const SymbolDecoder &Strings) {
  Symbol Channel = Strings.symbol(R.getU32(), R);
  uint8_t Pol = R.getU8();
  if (R.failed())
    return CommAction();
  if (!Channel.isValid()) {
    R.fail("communication action without a channel");
    return CommAction();
  }
  if (Pol > static_cast<uint8_t>(Polarity::Output)) {
    R.fail("corrupt action polarity " + std::to_string(Pol));
    return CommAction();
  }
  return CommAction{Channel, static_cast<Polarity>(Pol)};
}

Event sus::serialize::decodeEvent(Reader &R, const SymbolDecoder &Strings) {
  Symbol Name = Strings.symbol(R.getU32(), R);
  Value Arg = decodeValue(R, Strings);
  if (R.failed())
    return Event();
  if (!Name.isValid()) {
    R.fail("event without a name");
    return Event();
  }
  return Event{Name, Arg};
}

PolicyRef sus::serialize::decodePolicyRef(Reader &R,
                                          const SymbolDecoder &Strings) {
  PolicyRef Ref;
  Ref.Name = Strings.symbol(R.getU32(), R);
  uint32_t NArgs = R.getU32();
  if (!R.checkCount(NArgs, 4, "policy argument"))
    return Ref;
  Ref.Args.reserve(NArgs);
  for (uint32_t I = 0; I < NArgs && !R.failed(); ++I) {
    uint32_t NVals = R.getU32();
    if (!R.checkCount(NVals, 1, "policy argument value"))
      return Ref;
    std::vector<Value> Vals;
    Vals.reserve(NVals);
    for (uint32_t J = 0; J < NVals && !R.failed(); ++J)
      Vals.push_back(decodeValue(R, Strings));
    Ref.Args.push_back(std::move(Vals));
  }
  return Ref;
}

contract::ReadySet sus::serialize::decodeReadySet(
    Reader &R, const SymbolDecoder &Strings) {
  contract::ReadySet Out;
  uint32_t N = R.getU32();
  if (!R.checkCount(N, 5, "ready-set action"))
    return Out;
  for (uint32_t I = 0; I < N && !R.failed(); ++I)
    Out.insert(decodeCommAction(R, Strings));
  return Out;
}

contract::ContractSummary sus::serialize::decodeSummary(
    Reader &R, const SymbolDecoder &Strings) {
  contract::ContractSummary S;
  uint8_t Screenable = R.getU8();
  uint8_t NeedsSync = R.getU8();
  if (Screenable > 1 || NeedsSync > 1) {
    R.fail("corrupt contract-summary flags");
    return S;
  }
  S.Screenable = Screenable != 0;
  S.NeedsSync = NeedsSync != 0;
  uint32_t NSets = R.getU32();
  if (!R.checkCount(NSets, 4, "ready set"))
    return S;
  S.InitialSets.reserve(NSets);
  for (uint32_t I = 0; I < NSets && !R.failed(); ++I)
    S.InitialSets.push_back(decodeReadySet(R, Strings));
  S.Alphabet = decodeReadySet(R, Strings);
  S.IndexKey = decodeReadySet(R, Strings);
  return S;
}

contract::ComplianceResult sus::serialize::decodeCompliance(
    Reader &R, const SymbolDecoder &Strings, const ExprDecoder &Exprs) {
  contract::ComplianceResult Out;
  uint8_t Compliant = R.getU8();
  uint8_t HasWitness = R.getU8();
  if (Compliant > 1 || HasWitness > 1) {
    R.fail("corrupt compliance flags");
    return Out;
  }
  Out.Compliant = Compliant != 0;
  if (HasWitness) {
    contract::ComplianceWitness W;
    uint32_t PathLen = R.getU32();
    if (!R.checkCount(PathLen, 5, "witness action"))
      return Out;
    W.Path.reserve(PathLen);
    for (uint32_t I = 0; I < PathLen && !R.failed(); ++I)
      W.Path.push_back(decodeCommAction(R, Strings));
    W.ClientStuck = Exprs.expr(R.getU32(), R);
    W.ServerStuck = Exprs.expr(R.getU32(), R);
    Out.Witness = std::move(W);
  }
  Out.ExploredStates = R.getU64();
  return Out;
}

validity::StaticValidityResult sus::serialize::decodeValidity(
    Reader &R, const SymbolDecoder &Strings) {
  validity::StaticValidityResult Out;
  uint8_t Valid = R.getU8();
  uint8_t Failure = R.getU8();
  if (Valid > 1 ||
      Failure >= static_cast<uint8_t>(
                     validity::PlanFailureKind::ResourceExhausted)) {
    // ResourceExhausted results are partial and never serialized, so the
    // byte is as corrupt as any out-of-range one.
    R.fail("corrupt validity verdict");
    return Out;
  }
  Out.Valid = Valid != 0;
  Out.Failure = static_cast<validity::PlanFailureKind>(Failure);
  uint8_t HasPolicy = R.getU8();
  if (HasPolicy > 1) {
    R.fail("corrupt validity policy flag");
    return Out;
  }
  if (HasPolicy)
    Out.Policy = decodePolicyRef(R, Strings);
  uint8_t HasRequest = R.getU8();
  if (HasRequest > 1) {
    R.fail("corrupt validity request flag");
    return Out;
  }
  if (HasRequest)
    Out.Request = R.getU32();
  uint32_t NTrace = R.getU32();
  if (!R.checkCount(NTrace, 4, "trace step"))
    return Out;
  Out.Trace.reserve(NTrace);
  for (uint32_t I = 0; I < NTrace && !R.failed(); ++I)
    Out.Trace.emplace_back(R.getString());
  Out.ExploredStates = R.getU64();
  uint8_t HasStuck = R.getU8();
  if (HasStuck > 1) {
    R.fail("corrupt validity stuck flag");
    return Out;
  }
  Out.HasStuckConfiguration = HasStuck != 0;
  return Out;
}
