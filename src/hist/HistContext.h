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
/// Interning is open addressing over the nodes themselves: a lookup probes
/// by the node hash and compares the candidate's fields, so it allocates
/// nothing, and a miss only bumps the arena. The factory that makes a node
/// also computes its well-formedness facts (see Expr.h) from its children.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_HIST_HISTCONTEXT_H
#define SUS_HIST_HISTCONTEXT_H

#include "hist/Expr.h"
#include "support/Arena.h"
#include "support/StringInterner.h"

#include <set>
#include <span>
#include <string_view>
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
  bool isClosed(const Expr *E) { return E->isClosed(); }

  /// Number of distinct nodes interned so far (diagnostics/benchmarks).
  size_t numNodes() const { return NodeTable.size(); }

  /// Makes room for \p N nodes in all, so interning up to that many never
  /// rehashes (a capacity hint: results do not depend on it).
  void reserve(size_t N);

private:
  /// Open addressing over interned objects and their hashes: a probe
  /// dereferences only likely matches, and a lookup allocates nothing.
  template <typename T> class InternTable {
  public:
    struct Slot {
      const T *Obj = nullptr;
      size_t Hash = 0;
    };

    /// The slot of the object with hash \p Hash that \p Matches accepts,
    /// or the empty slot it goes to. Grows first, so filling that slot
    /// keeps the load at most one half.
    template <typename MatchT> Slot &find(size_t Hash, MatchT Matches);

    /// Fills an empty slot find() returned.
    void insert(Slot &S, const T *Obj, size_t Hash) {
      S = {Obj, Hash};
      ++Count;
    }

    /// Makes room for \p N objects in all.
    void reserve(size_t N);

    size_t size() const { return Count; }

  private:
    void rehash(size_t NumSlots); ///< A power of two.

    std::vector<Slot> Slots;
    size_t Count = 0;
  };

  template <typename MatchT, typename MakeT>
  const Expr *intern(size_t Hash, MatchT Matches, MakeT Make);

  /// Creates a node of class \p T with its facts; \p Free must already
  /// be interned.
  template <typename T, typename... Args>
  Expr *make(const FreeVarSet *Free, bool Communicates, bool IllFormedMu,
             Args &&...As);

  const Expr *makeChoice(ExprKind Kind, std::span<const ChoiceBranch> B);

  /// Interns the free-variable set held in Scratch (any order, duplicate
  /// variables allowed: their occurrence bits are or-ed); null if empty.
  const FreeVarSet *internScratch();
  /// \p S with occurrence bits \p Set added and \p Clear removed.
  const FreeVarSet *withOccurs(const FreeVarSet *S, uint8_t Set,
                               uint8_t Clear);

  StringInterner Interner;
  Arena Nodes;
  InternTable<Expr> NodeTable;
  InternTable<FreeVarSet> VarSetTable;
  const Expr *Empty = nullptr; ///< ε, once made.
  std::vector<FreeVarSet::Entry> Scratch;
  /// Head spines being re-nested by seq(); used as a stack, so a nested
  /// call only ever pops what it pushed.
  std::vector<const Expr *> SpineScratch;
};

} // namespace hist
} // namespace sus

#endif // SUS_HIST_HISTCONTEXT_H
