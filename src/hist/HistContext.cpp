//===- hist/HistContext.cpp - Hash-consing factory for Expr --------------===//

#include "hist/HistContext.h"

#include "hist/Walk.h"
#include "support/HashUtil.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <unordered_map>

using namespace sus;
using namespace sus::hist;

namespace {

/// Spreads a structural hash over the slot index bits (the murmur3
/// finalizer): hashCombine leaves the low bits of small inputs correlated.
size_t slotHash(size_t H) {
  uint64_t X = H;
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return static_cast<size_t>(X);
}

size_t kindHash(ExprKind K) { return hashAll(static_cast<uint32_t>(K)); }

} // namespace

//===----------------------------------------------------------------------===//
// Interning
//===----------------------------------------------------------------------===//

template <typename T>
template <typename MatchT>
typename HistContext::InternTable<T>::Slot &
HistContext::InternTable<T>::find(size_t Hash, MatchT Matches) {
  if (2 * (Count + 1) > Slots.size())
    rehash(Slots.empty() ? 1024 : 2 * Slots.size());
  size_t Mask = Slots.size() - 1;
  size_t I = slotHash(Hash) & Mask;
  for (; Slots[I].Obj; I = (I + 1) & Mask)
    if (Slots[I].Hash == Hash && Matches(Slots[I].Obj))
      break;
  return Slots[I];
}

template <typename T> void HistContext::InternTable<T>::reserve(size_t N) {
  if (2 * N > Slots.size())
    rehash(std::bit_ceil(2 * N));
}

template <typename T>
void HistContext::InternTable<T>::rehash(size_t NumSlots) {
  std::vector<Slot> Old(NumSlots);
  Old.swap(Slots);
  size_t Mask = Slots.size() - 1;
  for (const Slot &S : Old) {
    if (!S.Obj)
      continue;
    size_t I = slotHash(S.Hash) & Mask;
    while (Slots[I].Obj)
      I = (I + 1) & Mask;
    Slots[I] = S;
  }
}

template <typename MatchT, typename MakeT>
const Expr *HistContext::intern(size_t Hash, MatchT Matches, MakeT Make) {
  auto &Slot = NodeTable.find(Hash, Matches);
  // Make() interns free-variable sets only, never nodes, so the slot stays
  // the empty one the key probes to.
  if (!Slot.Obj)
    NodeTable.insert(Slot, Make(), Hash);
  return Slot.Obj;
}

void HistContext::reserve(size_t N) { NodeTable.reserve(N); }

template <typename T, typename... Args>
Expr *HistContext::make(const FreeVarSet *Free, bool Communicates,
                        bool IllFormedMu, bool Contract, Args &&...As) {
  Expr *E = Nodes.create<T>(std::forward<Args>(As)...);
  E->Free = Free;
  E->Flags = (Communicates ? Expr::CommunicatesFlag : 0) |
             (IllFormedMu ? Expr::IllFormedMuFlag : 0) |
             (Contract ? Expr::ContractFlag : 0);
  return E;
}

const FreeVarSet *HistContext::internScratch() {
  if (Scratch.empty())
    return nullptr;
  std::sort(Scratch.begin(), Scratch.end(),
            [](const FreeVarSet::Entry &A, const FreeVarSet::Entry &B) {
              return A.Var < B.Var;
            });
  size_t N = 0;
  for (const FreeVarSet::Entry &E : Scratch) {
    if (N && Scratch[N - 1].Var == E.Var)
      Scratch[N - 1].Occurs |= E.Occurs;
    else
      Scratch[N++] = E;
  }
  Scratch.resize(N);

  size_t Hash = N;
  for (const FreeVarSet::Entry &E : Scratch)
    hashCombine(Hash, hashAll(E.Var.id(), E.Occurs));
  auto &Slot = VarSetTable.find(Hash, [&](const FreeVarSet *S) {
    return std::equal(S->entries().begin(), S->entries().end(),
                      Scratch.begin(), Scratch.end());
  });
  if (!Slot.Obj) {
    void *Mem =
        Nodes.allocate(sizeof(FreeVarSet) + N * sizeof(FreeVarSet::Entry),
                       alignof(FreeVarSet));
    auto *S = new (Mem) FreeVarSet(static_cast<uint32_t>(N));
    std::uninitialized_copy(Scratch.begin(), Scratch.end(),
                            reinterpret_cast<FreeVarSet::Entry *>(S + 1));
    VarSetTable.insert(Slot, S, Hash);
  }
  return Slot.Obj;
}

const FreeVarSet *HistContext::withOccurs(const FreeVarSet *S, uint8_t Set,
                                          uint8_t Clear) {
  if (!S)
    return nullptr;
  bool Changes = false;
  for (const FreeVarSet::Entry &E : S->entries())
    Changes |= ((E.Occurs | Set) & ~Clear) != E.Occurs;
  if (!Changes)
    return S;
  Scratch.clear();
  for (FreeVarSet::Entry E : S->entries()) {
    E.Occurs = (E.Occurs | Set) & ~Clear;
    Scratch.push_back(E);
  }
  return internScratch();
}

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

const Expr *HistContext::empty() {
  if (!Empty) {
    size_t Hash = kindHash(ExprKind::Empty);
    Empty = intern(
        Hash, [](const Expr *E) { return E->isEmpty(); },
        [&] { return make<EmptyExpr>(nullptr, false, false, true, Hash); });
  }
  return Empty;
}

const Expr *HistContext::var(Symbol Name) {
  assert(Name.isValid() && "variable requires a name");
  size_t Hash = kindHash(ExprKind::Var);
  hashCombine(Hash, Name.id());
  return intern(
      Hash,
      [&](const Expr *E) {
        const auto *V = dyn_cast<VarExpr>(E);
        return V && V->name() == Name;
      },
      [&] {
        Scratch.assign({{Name, FreeVarSet::Unguarded}});
        return make<VarExpr>(internScratch(), false, false, true, Name, Hash);
      });
}

const Expr *HistContext::mu(Symbol Var, const Expr *Body) {
  assert(Var.isValid() && "mu requires a variable name");
  const FreeVarSet *BodyFree = Body->freeVars();
  const FreeVarSet::Entry *Bound = BodyFree ? BodyFree->find(Var) : nullptr;
  if (!Bound)
    return Body;
  size_t Hash = kindHash(ExprKind::Mu);
  hashCombine(Hash, Var.id());
  hashCombine(Hash, Body->hash());
  return intern(
      Hash,
      [&](const Expr *E) {
        const auto *M = dyn_cast<MuExpr>(E);
        return M && M->var() == Var && M->body() == Body;
      },
      [&] {
        Scratch.clear();
        for (const FreeVarSet::Entry &E : BodyFree->entries())
          if (E.Var != Var)
            Scratch.push_back(E);
        bool IllFormed = Bound->Occurs != 0 || Body->hasIllFormedMu();
        return make<MuExpr>(internScratch(), Body->communicates(), IllFormed,
                            Body->isContract(), Var, Body, Hash);
      });
}

const Expr *HistContext::event(Event Ev) {
  assert(Ev.Name.isValid() && "event requires a name");
  size_t Hash = kindHash(ExprKind::Event);
  hashCombine(Hash, Ev.hash());
  return intern(
      Hash,
      [&](const Expr *E) {
        const auto *V = dyn_cast<EventExpr>(E);
        return V && V->event() == Ev;
      },
      [&] { return make<EventExpr>(nullptr, false, false, false, Ev, Hash); });
}

const Expr *HistContext::seq(const Expr *Head, const Expr *Tail) {
  assert(Head && Tail && "seq of null expression");
  // Structural congruence: ε·H ≡ H ≡ H·ε.
  if (Head->isEmpty())
    return Tail;
  if (Tail->isEmpty())
    return Head;
  // Keep sequences right-nested: (A·B)·C = A·(B·C). The head is itself
  // right-nested, so walk its spine once and re-cons it onto the tail from
  // the back; every element is a non-sequence, so no call recurses here.
  if (isa<SeqExpr>(Head)) {
    size_t Base = SpineScratch.size();
    const Expr *Last = forEachHead(
        Head, [this](const SeqExpr *S) { SpineScratch.push_back(S->head()); });
    SpineScratch.push_back(Last);
    while (SpineScratch.size() > Base) {
      const Expr *Part = SpineScratch.back();
      SpineScratch.pop_back();
      Tail = seq(Part, Tail);
    }
    return Tail;
  }

  size_t Hash = kindHash(ExprKind::Seq);
  hashCombine(Hash, Head->hash());
  hashCombine(Hash, Tail->hash());
  return intern(
      Hash,
      [&](const Expr *E) {
        const auto *S = dyn_cast<SeqExpr>(E);
        return S && S->head() == Head && S->tail() == Tail;
      },
      [&] {
        // Nothing in the head is in tail position; the tail is guarded
        // when the head always communicates.
        uint8_t TailClear = Head->communicates() ? FreeVarSet::Unguarded : 0;
        const FreeVarSet *Free;
        if (!Head->freeVars()) {
          Free = withOccurs(Tail->freeVars(), 0, TailClear);
        } else if (!Tail->freeVars()) {
          Free = withOccurs(Head->freeVars(), FreeVarSet::NonTail, 0);
        } else {
          Scratch.clear();
          for (FreeVarSet::Entry E : Head->freeVars()->entries()) {
            E.Occurs |= FreeVarSet::NonTail;
            Scratch.push_back(E);
          }
          for (FreeVarSet::Entry E : Tail->freeVars()->entries()) {
            E.Occurs &= ~TailClear;
            Scratch.push_back(E);
          }
          Free = internScratch();
        }
        return make<SeqExpr>(Free,
                             Head->communicates() || Tail->communicates(),
                             Head->hasIllFormedMu() || Tail->hasIllFormedMu(),
                             Head->isContract() && Tail->isContract(), Head,
                             Tail, Hash);
      });
}

const Expr *HistContext::seq(const std::vector<const Expr *> &Parts) {
  const Expr *Result = empty();
  for (auto It = Parts.rbegin(); It != Parts.rend(); ++It)
    Result = seq(*It, Result);
  return Result;
}

const Expr *HistContext::makeChoice(ExprKind Kind,
                                    std::span<const ChoiceBranch> Branches) {
  size_t Hash = kindHash(Kind);
  hashCombine(Hash, Branches.size());
  for (const ChoiceBranch &B : Branches) {
    hashCombine(Hash, B.Guard.hash());
    hashCombine(Hash, B.Body->hash());
  }
  return intern(
      Hash,
      [&](const Expr *E) {
        if (E->kind() != Kind)
          return false;
        std::span<const ChoiceBranch> Have = cast<ChoiceExpr>(E)->branches();
        return std::equal(Have.begin(), Have.end(), Branches.begin(),
                          Branches.end());
      },
      [&] {
        // Every branch body sits under its guard: nothing in it is
        // unguarded any more.
        Scratch.clear();
        bool IllFormed = false;
        bool Contract = true;
        for (const ChoiceBranch &B : Branches) {
          IllFormed |= B.Body->hasIllFormedMu();
          Contract &= B.Body->isContract();
          if (const FreeVarSet *F = B.Body->freeVars())
            for (FreeVarSet::Entry E : F->entries()) {
              E.Occurs &= ~FreeVarSet::Unguarded;
              Scratch.push_back(E);
            }
        }
        const FreeVarSet *Free = internScratch();
        uint32_t N = static_cast<uint32_t>(Branches.size());
        static_assert(sizeof(ExtChoiceExpr) == sizeof(ChoiceExpr) &&
                          sizeof(IntChoiceExpr) == sizeof(ChoiceExpr),
                      "branches start right after the node");
        static_assert(sizeof(ChoiceExpr) % alignof(ChoiceBranch) == 0,
                      "branches are aligned");
        void *Mem = Nodes.allocate(sizeof(ChoiceExpr) +
                                       N * sizeof(ChoiceBranch),
                                   alignof(ChoiceExpr));
        Expr *E = Kind == ExprKind::ExtChoice
                      ? static_cast<Expr *>(new (Mem) ExtChoiceExpr(N, Hash))
                      : static_cast<Expr *>(new (Mem) IntChoiceExpr(N, Hash));
        std::uninitialized_copy(
            Branches.begin(), Branches.end(),
            reinterpret_cast<ChoiceBranch *>(static_cast<char *>(Mem) +
                                             sizeof(ChoiceExpr)));
        E->Free = Free;
        E->Flags = Expr::CommunicatesFlag |
                   (IllFormed ? Expr::IllFormedMuFlag : 0) |
                   (Contract ? Expr::ContractFlag : 0);
        return E;
      });
}

namespace {

/// Canonicalizes choice branches: sorted by (guard, body identity),
/// exact duplicates dropped.
void canonicalize(std::vector<ChoiceBranch> &Branches) {
  assert(!Branches.empty() && "choice requires at least one branch");
  std::sort(Branches.begin(), Branches.end(),
            [](const ChoiceBranch &A, const ChoiceBranch &B) {
              if (A.Guard != B.Guard)
                return A.Guard < B.Guard;
              return A.Body < B.Body;
            });
  Branches.erase(std::unique(Branches.begin(), Branches.end()),
                 Branches.end());
}

} // namespace

const Expr *HistContext::extChoice(std::vector<ChoiceBranch> Branches) {
#ifndef NDEBUG
  for (const ChoiceBranch &B : Branches)
    assert(B.Guard.isInput() && "external choice guards must be inputs");
#endif
  canonicalize(Branches);
  return makeChoice(ExprKind::ExtChoice, Branches);
}

const Expr *HistContext::intChoice(std::vector<ChoiceBranch> Branches) {
#ifndef NDEBUG
  for (const ChoiceBranch &B : Branches)
    assert(B.Guard.isOutput() && "internal choice guards must be outputs");
#endif
  canonicalize(Branches);
  return makeChoice(ExprKind::IntChoice, Branches);
}

const Expr *HistContext::prefix(CommAction Guard, const Expr *Body) {
  // A one-branch choice is already canonical.
  ChoiceBranch Branch{Guard, Body};
  return makeChoice(Guard.isInput() ? ExprKind::ExtChoice
                                    : ExprKind::IntChoice,
                    {&Branch, 1});
}

const Expr *HistContext::request(RequestId Request, PolicyRef Policy,
                                 const Expr *Body) {
  size_t Hash = kindHash(ExprKind::Request);
  hashCombine(Hash, Request);
  hashCombine(Hash, Policy.hash());
  hashCombine(Hash, Body->hash());
  return intern(
      Hash,
      [&](const Expr *E) {
        const auto *R = dyn_cast<RequestExpr>(E);
        return R && R->request() == Request && R->body() == Body &&
               R->policy() == Policy;
      },
      [&] {
        // Close_{r,ϕ} follows the body: nothing in it is in tail position.
        return make<RequestExpr>(
            withOccurs(Body->freeVars(), FreeVarSet::NonTail, 0),
            Body->communicates(), Body->hasIllFormedMu(), false, Request,
            std::move(Policy), Body, Hash);
      });
}

const Expr *HistContext::framing(PolicyRef Policy, const Expr *Body) {
  size_t Hash = kindHash(ExprKind::Framing);
  hashCombine(Hash, Policy.hash());
  hashCombine(Hash, Body->hash());
  return intern(
      Hash,
      [&](const Expr *E) {
        const auto *F = dyn_cast<FramingExpr>(E);
        return F && F->body() == Body && F->policy() == Policy;
      },
      [&] {
        // ⌋ϕ follows the body: nothing in it is in tail position.
        return make<FramingExpr>(
            withOccurs(Body->freeVars(), FreeVarSet::NonTail, 0),
            Body->communicates(), Body->hasIllFormedMu(), false,
            std::move(Policy), Body, Hash);
      });
}

const Expr *HistContext::closeMark(RequestId Request, PolicyRef Policy) {
  size_t Hash = kindHash(ExprKind::CloseMark);
  hashCombine(Hash, Request);
  hashCombine(Hash, Policy.hash());
  return intern(
      Hash,
      [&](const Expr *E) {
        const auto *C = dyn_cast<CloseMarkExpr>(E);
        return C && C->request() == Request && C->policy() == Policy;
      },
      [&] {
        return make<CloseMarkExpr>(nullptr, false, false, false, Request,
                                   std::move(Policy), Hash);
      });
}

const Expr *HistContext::frameOpen(PolicyRef Policy) {
  size_t Hash = kindHash(ExprKind::FrameOpen);
  hashCombine(Hash, Policy.hash());
  return intern(
      Hash,
      [&](const Expr *E) {
        const auto *F = dyn_cast<FrameOpenExpr>(E);
        return F && F->policy() == Policy;
      },
      [&] {
        return make<FrameOpenExpr>(nullptr, false, false, false,
                                   std::move(Policy), Hash);
      });
}

const Expr *HistContext::frameClose(PolicyRef Policy) {
  size_t Hash = kindHash(ExprKind::FrameClose);
  hashCombine(Hash, Policy.hash());
  return intern(
      Hash,
      [&](const Expr *E) {
        const auto *F = dyn_cast<FrameCloseExpr>(E);
        return F && F->policy() == Policy;
      },
      [&] {
        return make<FrameCloseExpr>(nullptr, false, false, false,
                                    std::move(Policy), Hash);
      });
}

//===----------------------------------------------------------------------===//
// Substitution and free variables
//===----------------------------------------------------------------------===//

namespace {

/// Substitution with per-call memoization; shadowing µs stop it.
class Substituter {
public:
  Substituter(HistContext &Ctx, Symbol Var, const Expr *Replacement)
      : Ctx(Ctx), Var(Var), Replacement(Replacement) {}

  const Expr *visit(const Expr *E) {
    return foldSpine(
        E, Memo, [this](const Expr *X) { return compute(X); },
        [this](const SeqExpr *, const Expr *Head, const Expr *Tail) {
          return Ctx.seq(Head, Tail);
        });
  }

private:
  const Expr *compute(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Empty:
    case ExprKind::Event:
    case ExprKind::CloseMark:
    case ExprKind::FrameOpen:
    case ExprKind::FrameClose:
    case ExprKind::Seq: // Never reached: foldSpine rebuilds sequences.
      return E;
    case ExprKind::Var:
      return cast<VarExpr>(E)->name() == Var ? Replacement : E;
    case ExprKind::Mu: {
      const auto *M = cast<MuExpr>(E);
      if (M->var() == Var)
        return E; // Shadowed.
      return Ctx.mu(M->var(), visit(M->body()));
    }
    case ExprKind::ExtChoice:
    case ExprKind::IntChoice: {
      const auto *C = cast<ChoiceExpr>(E);
      std::vector<ChoiceBranch> Branches;
      Branches.reserve(C->numBranches());
      for (const ChoiceBranch &B : C->branches())
        Branches.push_back({B.Guard, visit(B.Body)});
      return E->kind() == ExprKind::ExtChoice
                 ? Ctx.extChoice(std::move(Branches))
                 : Ctx.intChoice(std::move(Branches));
    }
    case ExprKind::Request: {
      const auto *R = cast<RequestExpr>(E);
      return Ctx.request(R->request(), R->policy(), visit(R->body()));
    }
    case ExprKind::Framing: {
      const auto *F = cast<FramingExpr>(E);
      return Ctx.framing(F->policy(), visit(F->body()));
    }
    }
    assert(false && "unknown expression kind");
    return E;
  }

  HistContext &Ctx;
  Symbol Var;
  const Expr *Replacement;
  std::unordered_map<const Expr *, const Expr *> Memo;
};

} // namespace

const Expr *HistContext::substitute(const Expr *E, Symbol Var,
                                    const Expr *Replacement) {
  Substituter S(*this, Var, Replacement);
  return S.visit(E);
}

const Expr *HistContext::unfold(const MuExpr *Mu) {
  return substitute(Mu->body(), Mu->var(), Mu);
}

std::set<Symbol> HistContext::freeVars(const Expr *E) {
  std::set<Symbol> Free;
  if (const FreeVarSet *F = E->freeVars())
    for (const FreeVarSet::Entry &Entry : F->entries())
      Free.insert(Entry.Var);
  return Free;
}
