//===- hist/HistContext.h - Hash-consing factory for Expr -------*- C++ -*-===//
///
/// \file
/// Owns every history-expression node of a verification session. All nodes
/// are created through the factory methods below, which apply the paper's
/// structural congruence (ε·H ≡ H ≡ H·ε), keep sequences right-nested and
/// canonicalize choice branches, then hash-cons: structurally equal
/// expressions are pointer-equal. That makes derivative sets finite for the
/// paper's guarded tail-recursive expressions and lets every analysis use
/// pointers as state identities.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_HIST_HISTCONTEXT_H
#define SUS_HIST_HISTCONTEXT_H

#include "hist/Expr.h"
#include "support/Arena.h"
#include "support/HashUtil.h"
#include "support/StringInterner.h"

#include <map>
#include <set>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sus {
namespace hist {

/// Factory and owner of hash-consed history expressions.
class HistContext {
public:
  HistContext() = default;
  HistContext(const HistContext &) = delete;
  HistContext &operator=(const HistContext &) = delete;

  /// The interner backing every name in this context.
  StringInterner &interner() { return Interner; }
  const StringInterner &interner() const { return Interner; }

  /// Interns \p Name (shorthand for interner().intern).
  Symbol symbol(std::string_view Name) { return Interner.intern(Name); }

  /// ε.
  const Expr *empty();

  /// Recursion variable h.
  const Expr *var(Symbol Name);
  const Expr *var(std::string_view Name) { return var(symbol(Name)); }

  /// µh.H. If h does not occur free in \p Body the µ is dropped.
  const Expr *mu(Symbol Var, const Expr *Body);
  const Expr *mu(std::string_view Var, const Expr *Body) {
    return mu(symbol(Var), Body);
  }

  /// Access event α.
  const Expr *event(Event Ev);
  const Expr *event(std::string_view Name) {
    return event(Event{symbol(Name), Value()});
  }
  const Expr *event(std::string_view Name, int64_t Arg) {
    return event(Event{symbol(Name), Value::integer(Arg)});
  }
  const Expr *event(std::string_view Name, std::string_view Arg) {
    return event(Event{symbol(Name), Value::name(symbol(Arg))});
  }

  /// H·H′ with ε-normalization and right-nesting.
  const Expr *seq(const Expr *Head, const Expr *Tail);

  /// Sequence of many expressions.
  const Expr *seq(const std::vector<const Expr *> &Parts);

  /// Σᵢ aᵢ.Hᵢ — all guards must be inputs. Branches are canonically sorted
  /// and exact duplicates dropped. A single-branch choice is the prefix
  /// form a.H.
  const Expr *extChoice(std::vector<ChoiceBranch> Branches);

  /// ⊕ᵢ āᵢ.Hᵢ — all guards must be outputs.
  const Expr *intChoice(std::vector<ChoiceBranch> Branches);

  /// Prefix form a.H / ā.H (a one-branch choice of matching kind).
  const Expr *prefix(CommAction Guard, const Expr *Body);

  /// Input prefix ch?.H.
  const Expr *receive(std::string_view Channel, const Expr *Body) {
    return prefix(CommAction::input(symbol(Channel)), Body);
  }

  /// Output prefix ch!.H.
  const Expr *send(std::string_view Channel, const Expr *Body) {
    return prefix(CommAction::output(symbol(Channel)), Body);
  }

  /// open_{r,ϕ} H close_{r,ϕ}.
  const Expr *request(RequestId Request, PolicyRef Policy, const Expr *Body);

  /// ϕ⟦H⟧.
  const Expr *framing(PolicyRef Policy, const Expr *Body);

  /// close_{r,ϕ} residual marker.
  const Expr *closeMark(RequestId Request, PolicyRef Policy);

  /// ⌊ϕ marker.
  const Expr *frameOpen(PolicyRef Policy);

  /// ⌋ϕ residual marker.
  const Expr *frameClose(PolicyRef Policy);

  /// Capture-avoiding substitution H{K/h}. Since expressions are closed at
  /// the top level and µ-bound names are used affinely in practice, an
  /// inner µ binding the same name simply shadows it.
  const Expr *substitute(const Expr *E, Symbol Var, const Expr *Replacement);

  /// One-step unfolding µh.H ↦ H{µh.H/h}.
  const Expr *unfold(const MuExpr *Mu);

  /// The free recursion variables of \p E.
  std::set<Symbol> freeVars(const Expr *E);

  /// True if \p E has no free recursion variables.
  bool isClosed(const Expr *E) { return freeVars(E).empty(); }

  /// Number of distinct nodes interned so far (diagnostics/benchmarks).
  size_t numNodes() const { return Unique.size(); }

private:
  using Profile = std::vector<uint64_t>;

  const Expr *lookup(const Profile &P) const;
  void remember(Profile P, const Expr *E);

  const Expr *makeChoice(ExprKind Kind, std::vector<ChoiceBranch> Branches);

  StringInterner Interner;
  Arena Nodes;
  std::unordered_map<Profile, const Expr *, WordsHash> Unique;
};

} // namespace hist
} // namespace sus

#endif // SUS_HIST_HISTCONTEXT_H
