//===- bpa/Bpa.h - Basic Process Algebra terms ------------------*- C++ -*-===//
///
/// \file
/// Basic Process Algebra (BPA) with guarded recursion: the process-algebra
/// rendering of history expressions used by §3.1 ("the history expression
/// Ĥ is naturally rendered as a BPA process"). Terms are:
///
///   p ::= 0 | a | p·p | p + p | X        with definitions  X ≝ p
///
/// where the atomic actions a are history-expression transition labels.
/// For the paper's guarded tail-recursive expressions the generated BPA is
/// regular, so its transition system is finite and can be handed to the
/// finite-state model checker; ToAutomaton performs that extraction and
/// detects when the fragment is *not* regular (growing stacks).
///
//===----------------------------------------------------------------------===//

#ifndef SUS_BPA_BPA_H
#define SUS_BPA_BPA_H

#include "hist/Action.h"
#include "support/Arena.h"
#include "support/Casting.h"
#include "support/HashUtil.h"

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace sus {
namespace bpa {

class BpaContext;

/// Kind discriminator for BPA terms.
enum class TermKind : uint8_t {
  Nil,    ///< 0 — successful termination.
  Action, ///< a — one atomic action.
  Seq,    ///< p·q.
  Sum,    ///< p + q.
  Var,    ///< X — a defined process variable.
};

/// An immutable, hash-consed BPA term.
class Term {
public:
  Term(const Term &) = delete;
  Term &operator=(const Term &) = delete;

  TermKind kind() const { return Kind; }
  bool isNil() const { return Kind == TermKind::Nil; }

protected:
  explicit Term(TermKind K) : Kind(K) {}
  ~Term() = default;

private:
  TermKind Kind;
};

/// 0.
class NilTerm : public Term {
public:
  static bool classof(const Term *T) { return T->kind() == TermKind::Nil; }

private:
  friend class BpaContext;
  friend class sus::Arena;
  NilTerm() : Term(TermKind::Nil) {}
};

/// An atomic action.
class ActionTerm : public Term {
public:
  const hist::Label &label() const { return L; }

  static bool classof(const Term *T) {
    return T->kind() == TermKind::Action;
  }

private:
  friend class BpaContext;
  friend class sus::Arena;
  explicit ActionTerm(hist::Label L) : Term(TermKind::Action), L(std::move(L)) {}
  hist::Label L;
};

/// p·q.
class SeqTerm : public Term {
public:
  const Term *left() const { return Lhs; }
  const Term *right() const { return Rhs; }

  static bool classof(const Term *T) { return T->kind() == TermKind::Seq; }

private:
  friend class BpaContext;
  friend class sus::Arena;
  SeqTerm(const Term *Lhs, const Term *Rhs)
      : Term(TermKind::Seq), Lhs(Lhs), Rhs(Rhs) {}
  const Term *Lhs;
  const Term *Rhs;
};

/// p + q.
class SumTerm : public Term {
public:
  const Term *left() const { return Lhs; }
  const Term *right() const { return Rhs; }

  static bool classof(const Term *T) { return T->kind() == TermKind::Sum; }

private:
  friend class BpaContext;
  friend class sus::Arena;
  SumTerm(const Term *Lhs, const Term *Rhs)
      : Term(TermKind::Sum), Lhs(Lhs), Rhs(Rhs) {}
  const Term *Lhs;
  const Term *Rhs;
};

/// X — resolved through the context's definition table.
class VarTerm : public Term {
public:
  Symbol name() const { return Name; }

  static bool classof(const Term *T) { return T->kind() == TermKind::Var; }

private:
  friend class BpaContext;
  friend class sus::Arena;
  explicit VarTerm(Symbol Name) : Term(TermKind::Var), Name(Name) {}
  Symbol Name;
};

/// Factory/owner of BPA terms plus the definition environment Δ.
class BpaContext {
public:
  BpaContext() = default;
  BpaContext(const BpaContext &) = delete;
  BpaContext &operator=(const BpaContext &) = delete;

  const Term *nil();
  const Term *action(hist::Label L);
  /// p·q with 0·p = p·0 = p and right-nesting.
  const Term *seq(const Term *Lhs, const Term *Rhs);
  const Term *sum(const Term *Lhs, const Term *Rhs);
  const Term *var(Symbol Name);

  /// Defines X ≝ Body (replacing any previous definition).
  void define(Symbol Name, const Term *Body);

  /// The body of X, or null.
  const Term *definition(Symbol Name) const;

  /// Fresh variable names for the FromHist translation.
  Symbol freshVar(StringInterner &Interner);

  size_t numDefinitions() const { return Defs.size(); }

private:
  const Term *intern(std::vector<uint64_t> Key, const Term *Candidate);

  template <typename T, typename... Args>
  const Term *make(std::vector<uint64_t> Key, Args &&...As);

  Arena Terms;
  std::unordered_map<std::vector<uint64_t>, const Term *, WordsHash> Unique;
  std::map<Symbol, const Term *> Defs;
  unsigned FreshCounter = 0;
};

/// One BPA transition p --λ--> p′.
struct BpaTransition {
  hist::Label L;
  const Term *Target;
};

/// The BPA operational semantics:
///   a --a--> 0;  p+q steps as p or q;  p·q steps via p (and via q when p
///   can terminate);  X steps as its definition.
std::vector<BpaTransition> deriveBpa(BpaContext &Ctx, const Term *T);

/// Whether p can terminate immediately (0, or compositions thereof).
bool canTerminate(const BpaContext &Ctx, const Term *T);

/// Renders a term, e.g. "(a . X) + b".
std::string printTerm(const BpaContext &Ctx, const StringInterner &Interner,
                      const Term *T);

} // namespace bpa
} // namespace sus

#endif // SUS_BPA_BPA_H
