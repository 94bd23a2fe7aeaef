//===- hist/Expr.h - History expression AST ---------------------*- C++ -*-===//
///
/// \file
/// The history-expression AST of Definition 1:
///
///   H ::= ε | h | µh.H | Σᵢ aᵢ.Hᵢ | ⊕ᵢ āᵢ.Hᵢ | α | H·H
///       | open_{r,ϕ} H close_{r,ϕ} | ϕ⟦H⟧
///
/// plus the two residual markers the operational semantics produces:
/// `close_{r,ϕ}` (after S-Open fires) and `⌋ϕ` (after P-Open fires). A
/// standalone `⌊ϕ` marker is also provided for the ϕ⟦H⟧ ≡ ⌊ϕ·H·⌋ϕ reading.
///
/// Nodes are immutable, arena-allocated and hash-consed by HistContext, so
/// pointer equality is structural equality. The structural congruence
/// ε·H ≡ H ≡ H·ε is applied at construction time, and sequences are kept
/// right-nested.
///
/// Each node also carries the facts §3's well-formedness conditions need,
/// computed bottom-up by the HistContext factory that made it: its free
/// recursion variables with how they occur (FreeVarSet), whether it always
/// communicates, and whether some µ inside it is ill-formed. Closedness
/// and well-formedness are then reads, not walks.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_HIST_EXPR_H
#define SUS_HIST_EXPR_H

#include "hist/Action.h"
#include "support/Casting.h"
#include "support/Symbol.h"

#include <cstdint>
#include <span>
#include <vector>

namespace sus {

class Arena;

namespace hist {

class HistContext;

/// Kind discriminator for Expr nodes (LLVM-style RTTI).
enum class ExprKind : uint8_t {
  Empty,      ///< ε
  Var,        ///< h — recursion variable.
  Mu,         ///< µh.H — guarded tail recursion.
  Event,      ///< α — access event.
  Seq,        ///< H·H′ — sequential composition.
  ExtChoice,  ///< Σᵢ aᵢ.Hᵢ — external choice (input-guarded).
  IntChoice,  ///< ⊕ᵢ āᵢ.Hᵢ — internal choice (output-guarded).
  Request,    ///< open_{r,ϕ} H close_{r,ϕ} — service request.
  Framing,    ///< ϕ⟦H⟧ — security framing.
  CloseMark,  ///< close_{r,ϕ} residual marker.
  FrameOpen,  ///< ⌊ϕ marker.
  FrameClose, ///< ⌋ϕ residual marker.
};

/// The free recursion variables of a node, sorted by symbol, each with how
/// it occurs in the node (taking the node's own root as a tail position
/// that no communication guards yet):
///   - NonTail:   some occurrence is not in tail position (it sits in the
///                head of a sequence, or in a request or framing body);
///   - Unguarded: some occurrence is reached without first performing a
///                communication action.
/// HistContext interns these sets, so equal sets are one pointer, and a
/// closed node has none (null). They are almost always empty or a single
/// variable.
class FreeVarSet {
public:
  enum Occurrence : uint8_t { NonTail = 1, Unguarded = 2 };

  struct Entry {
    Symbol Var;
    uint8_t Occurs; ///< Occurrence bits.

    friend bool operator==(const Entry &A, const Entry &B) {
      return A.Var == B.Var && A.Occurs == B.Occurs;
    }
  };

  std::span<const Entry> entries() const {
    return {reinterpret_cast<const Entry *>(this + 1), Size};
  }
  size_t size() const { return Size; }

  /// The entry of \p Var, or null when \p Var is not free.
  const Entry *find(Symbol Var) const {
    for (const Entry &E : entries())
      if (E.Var == Var)
        return &E;
    return nullptr;
  }

private:
  friend class HistContext;
  explicit FreeVarSet(uint32_t Size) : Size(Size) {}

  uint32_t Size; ///< Entries follow the object in memory.
};

/// Base class of all history-expression nodes.
///
/// Nodes are created exclusively through HistContext; two structurally
/// equal nodes from the same context are the same pointer.
class Expr {
public:
  Expr(const Expr &) = delete;
  Expr &operator=(const Expr &) = delete;

  ExprKind kind() const { return Kind; }

  /// True for ε.
  bool isEmpty() const { return Kind == ExprKind::Empty; }

  /// Structural hash (computed once at interning time).
  size_t hash() const { return HashValue; }

  /// The free recursion variables, or null when the node is closed.
  const FreeVarSet *freeVars() const { return Free; }

  /// True if no recursion variable occurs free.
  bool isClosed() const { return Free == nullptr; }

  /// True if every execution performs at least one communication action
  /// before it terminates or recurs.
  bool communicates() const { return Flags & CommunicatesFlag; }

  /// True if some µh inside the node has h in non-tail position or
  /// unguarded in its body.
  bool hasIllFormedMu() const { return Flags & IllFormedMuFlag; }

protected:
  Expr(ExprKind K, size_t Hash) : Kind(K), HashValue(Hash) {}
  ~Expr() = default;

private:
  friend class HistContext;
  enum : uint8_t { CommunicatesFlag = 1, IllFormedMuFlag = 2 };

  ExprKind Kind;
  uint8_t Flags = 0;
  const FreeVarSet *Free = nullptr;
  size_t HashValue;
};

/// ε — the expression that cannot do anything.
class EmptyExpr : public Expr {
public:
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Empty; }

private:
  friend class HistContext;
  friend class sus::Arena;
  explicit EmptyExpr(size_t Hash) : Expr(ExprKind::Empty, Hash) {}
};

/// h — a recursion variable bound by an enclosing µ.
class VarExpr : public Expr {
public:
  Symbol name() const { return Name; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Var; }

private:
  friend class HistContext;
  friend class sus::Arena;
  VarExpr(Symbol Name, size_t Hash) : Expr(ExprKind::Var, Hash), Name(Name) {}
  Symbol Name;
};

/// µh.H — infinite behaviour; restricted to guarded tail recursion.
class MuExpr : public Expr {
public:
  Symbol var() const { return Var; }
  const Expr *body() const { return Body; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Mu; }

private:
  friend class HistContext;
  friend class sus::Arena;
  MuExpr(Symbol Var, const Expr *Body, size_t Hash)
      : Expr(ExprKind::Mu, Hash), Var(Var), Body(Body) {}
  Symbol Var;
  const Expr *Body;
};

/// α — an access event.
class EventExpr : public Expr {
public:
  const Event &event() const { return Ev; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Event; }

private:
  friend class HistContext;
  friend class sus::Arena;
  EventExpr(Event Ev, size_t Hash) : Expr(ExprKind::Event, Hash), Ev(Ev) {}
  Event Ev;
};

/// H·H′ — sequential composition (kept right-nested; neither side is ε).
class SeqExpr : public Expr {
public:
  const Expr *head() const { return Head; }
  const Expr *tail() const { return Tail; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Seq; }

private:
  friend class HistContext;
  friend class sus::Arena;
  SeqExpr(const Expr *Head, const Expr *Tail, size_t Hash)
      : Expr(ExprKind::Seq, Hash), Head(Head), Tail(Tail) {}
  const Expr *Head;
  const Expr *Tail;
};

/// One guarded branch of a choice: an action prefix and a continuation.
struct ChoiceBranch {
  CommAction Guard;
  const Expr *Body;

  friend bool operator==(const ChoiceBranch &A, const ChoiceBranch &B) {
    return A.Guard == B.Guard && A.Body == B.Body;
  }
};

/// Common base of the two choice forms. The branches are stored right
/// after the node, in the same arena allocation.
class ChoiceExpr : public Expr {
public:
  std::span<const ChoiceBranch> branches() const {
    return {reinterpret_cast<const ChoiceBranch *>(
                reinterpret_cast<const char *>(this) + sizeof(ChoiceExpr)),
            NumBranches};
  }
  size_t numBranches() const { return NumBranches; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::ExtChoice ||
           E->kind() == ExprKind::IntChoice;
  }

protected:
  ChoiceExpr(ExprKind K, uint32_t NumBranches, size_t Hash)
      : Expr(K, Hash), NumBranches(NumBranches) {}

private:
  uint32_t NumBranches;
};

/// Σᵢ aᵢ.Hᵢ — external choice; the received message drives the branch.
class ExtChoiceExpr : public ChoiceExpr {
public:
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::ExtChoice;
  }

private:
  friend class HistContext;
  ExtChoiceExpr(uint32_t NumBranches, size_t Hash)
      : ChoiceExpr(ExprKind::ExtChoice, NumBranches, Hash) {}
};

/// ⊕ᵢ āᵢ.Hᵢ — internal choice; the sender decides on its own.
class IntChoiceExpr : public ChoiceExpr {
public:
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::IntChoice;
  }

private:
  friend class HistContext;
  IntChoiceExpr(uint32_t NumBranches, size_t Hash)
      : ChoiceExpr(ExprKind::IntChoice, NumBranches, Hash) {}
};

/// open_{r,ϕ} H close_{r,ϕ} — a service request: open a session identified
/// by r under policy ϕ, run H, close the session.
class RequestExpr : public Expr {
public:
  RequestId request() const { return Request; }
  const PolicyRef &policy() const { return Policy; }
  const Expr *body() const { return Body; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::Request;
  }

private:
  friend class HistContext;
  friend class sus::Arena;
  RequestExpr(RequestId Request, PolicyRef Policy, const Expr *Body,
              size_t Hash)
      : Expr(ExprKind::Request, Hash), Request(Request),
        Policy(std::move(Policy)), Body(Body) {}
  RequestId Request;
  PolicyRef Policy;
  const Expr *Body;
};

/// ϕ⟦H⟧ — while H runs, ϕ must be enforced (history-dependently).
class FramingExpr : public Expr {
public:
  const PolicyRef &policy() const { return Policy; }
  const Expr *body() const { return Body; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::Framing;
  }

private:
  friend class HistContext;
  friend class sus::Arena;
  FramingExpr(PolicyRef Policy, const Expr *Body, size_t Hash)
      : Expr(ExprKind::Framing, Hash), Policy(std::move(Policy)),
        Body(Body) {}
  PolicyRef Policy;
  const Expr *Body;
};

/// close_{r,ϕ} — the residual of a request after S-Open fired.
class CloseMarkExpr : public Expr {
public:
  RequestId request() const { return Request; }
  const PolicyRef &policy() const { return Policy; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::CloseMark;
  }

private:
  friend class HistContext;
  friend class sus::Arena;
  CloseMarkExpr(RequestId Request, PolicyRef Policy, size_t Hash)
      : Expr(ExprKind::CloseMark, Hash), Request(Request),
        Policy(std::move(Policy)) {}
  RequestId Request;
  PolicyRef Policy;
};

/// ⌊ϕ — framing opening marker (the ϕ⟦H⟧ ≡ ⌊ϕ·H·⌋ϕ reading).
class FrameOpenExpr : public Expr {
public:
  const PolicyRef &policy() const { return Policy; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::FrameOpen;
  }

private:
  friend class HistContext;
  friend class sus::Arena;
  FrameOpenExpr(PolicyRef Policy, size_t Hash)
      : Expr(ExprKind::FrameOpen, Hash), Policy(std::move(Policy)) {}
  PolicyRef Policy;
};

/// ⌋ϕ — framing closing marker (the residual of P-Open).
class FrameCloseExpr : public Expr {
public:
  const PolicyRef &policy() const { return Policy; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::FrameClose;
  }

private:
  friend class HistContext;
  friend class sus::Arena;
  FrameCloseExpr(PolicyRef Policy, size_t Hash)
      : Expr(ExprKind::FrameClose, Hash), Policy(std::move(Policy)) {}
  PolicyRef Policy;
};

} // namespace hist
} // namespace sus

#endif // SUS_HIST_EXPR_H
