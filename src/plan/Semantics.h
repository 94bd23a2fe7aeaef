//===- plan/Semantics.h - The §3 network semantics --------------*- C++ -*-===//
///
/// \file
/// The network transitions of §3, written once: rules Access, Open, Close
/// (with Φ), Session and Synch over session trees S ::= ℓ:H | [S,S], plus
/// the committed-choice split of a multi-branch ⊕. The static checker
/// (validity/StaticValidity), the whole-network explorer and the
/// interpreter (net/) enumerate their moves here, so the run-time network
/// takes exactly the transitions the static check explored (§5).
///
/// The enumerator never asks which caller it serves. Each caller keeps its
/// own search loop and state, and decides for itself what to do with plan
/// gaps (fail, drop, or mark), with capacity-bounded services, and how to
/// render a move.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_PLAN_SEMANTICS_H
#define SUS_PLAN_SEMANTICS_H

#include "hist/Action.h"
#include "hist/HistContext.h"
#include "plan/Plan.h"
#include "support/Arena.h"
#include "support/HashUtil.h"

#include <array>
#include <string>
#include <unordered_map>
#include <vector>

namespace sus {
namespace plan {

/// A node of a hash-consed session tree; a tree is identified by its
/// pointer.
struct SessionTree {
  bool IsLeaf = true;
  Loc Location;                          ///< Leaf: where the behaviour runs.
  const hist::Expr *Behavior = nullptr;  ///< Leaf: the residual expression.
  const SessionTree *Left = nullptr;     ///< Pair: the session opener.
  const SessionTree *Right = nullptr;    ///< Pair: the serving side.

  /// True when the tree is a single leaf whose behaviour is ε.
  bool isTerminated() const { return IsLeaf && Behavior->isEmpty(); }

  /// Renders like the paper's configurations: "[c1: H, [br: H', ...]]".
  std::string str(const hist::HistContext &Ctx) const;
};

/// One ⌋ϕ of Φ(H), and the ones after it.
struct PendingClose {
  const hist::PolicyRef *Policy;
  const PendingClose *Next;
};

/// Hash-conses session trees, and memoizes Φ for rule Close. Both live as
/// long as the factory, which is one exploration.
class SessionTreeFactory {
public:
  const SessionTree *leaf(Loc L, const hist::Expr *H) {
    return intern({true, L, H, nullptr, nullptr});
  }
  const SessionTree *pair(const SessionTree *A, const SessionTree *B) {
    return intern({false, Loc(), nullptr, A, B});
  }

  /// Φ(H): the ⌋ϕ markers along the `;` spine of H, front to back (null
  /// when there are none). The lists of a chain's suffixes share their
  /// cells, so every suffix is computed once however often it is asked.
  const PendingClose *pendingFrameCloses(const hist::Expr *H);

private:
  /// The node's fixed three-word key: a leaf is (ℓ, H), a pair (A, B).
  static std::array<uint64_t, 3> key(const SessionTree &N) {
    if (N.IsLeaf)
      return {1, N.Location.id(), reinterpret_cast<uint64_t>(N.Behavior)};
    return {2, reinterpret_cast<uint64_t>(N.Left),
            reinterpret_cast<uint64_t>(N.Right)};
  }

  /// The slot holding the node keyed \p K, or the empty slot it goes to.
  const SessionTree *&slot(const std::array<uint64_t, 3> &K) {
    size_t Mask = Slots.size() - 1;
    for (size_t I = hashAll(K[0], K[1], K[2]) & Mask;; I = (I + 1) & Mask)
      if (!Slots[I] || key(*Slots[I]) == K)
        return Slots[I];
  }

  /// Open addressing over the nodes themselves, so a lookup allocates
  /// nothing and an insertion only bumps the arena.
  const SessionTree *intern(const SessionTree &Node) {
    if (2 * (Count + 1) > Slots.size()) {
      std::vector<const SessionTree *> Old(Slots.empty() ? 64
                                                         : 2 * Slots.size());
      Old.swap(Slots);
      for (const SessionTree *T : Old)
        if (T)
          slot(key(*T)) = T;
    }
    const SessionTree *&S = slot(key(Node));
    if (!S) {
      S = Nodes.create<SessionTree>(Node);
      ++Count;
    }
    return S;
  }

  Arena Nodes; ///< Trees and PendingClose cells.
  std::vector<const SessionTree *> Slots; ///< Power-of-two sized.
  size_t Count = 0;
  std::unordered_map<const hist::Expr *, const PendingClose *> Pending;
};

/// One move of a session tree.
struct Move {
  enum class Kind {
    Access, ///< Rule Access: fire γ ∈ Ev ∪ Frm at a leaf.
    Open,   ///< Rule Open: open a session with the planned service.
    Synch,  ///< Rule Synch: complementary actions meet (τ).
    Close,  ///< Rule Close: the opener ends the session.
    Commit, ///< Committed-choice mode: resolve a ⊕ to one branch.
  };
  /// Why an Open cannot fire.
  enum class GapKind {
    None,
    UnboundRequest, ///< The plan does not bind the request.
    UnknownService, ///< The plan binds it to a location not in R.
  };

  Kind K = Kind::Access;
  /// The whole tree after the move (null for a gap).
  const SessionTree *NewTree = nullptr;
  /// History labels the move appends: γ (Access), ⌊ϕ (Open), Φ(H)·⌋ϕ
  /// (Close).
  std::vector<hist::Label> HistoryAppend;
  /// The acting leaf: the one that fires, opens, commits or closes, or the
  /// sender of a Synch.
  Loc Actor;
  /// Synch: the receiver. Close: the discarded partner.
  Loc Partner;
  /// Open: the planned service's location.
  Loc Opened;
  /// The actor's label: the derived one for Access, Open and Close, the
  /// sent output for Synch, the chosen guard for Commit.
  hist::Label L = hist::Label::tau();
  GapKind Gap = GapKind::None;
  hist::RequestId GapRequest = 0; ///< The request of a gap.

  /// The short rendering: "open_2:phi(...)", "tau(Req!)", "commit Del!".
  std::string str(const StringInterner &Interner) const;
};

/// Appends every move of \p Tree to \p Out: moves of the left subtree,
/// then of the right one (rule Session), then the pair's Synch and Close
/// moves with the left side acting first. The interpreter's seeded
/// scheduler picks by index, so this order is part of the behaviour.
///
/// Requests resolve through \p P and \p Repo; an Open either can fire or
/// is a gap. With \p CommittedInternalChoice a leaf whose head is a
/// multi-branch ⊕ offers only Commit moves, and cannot synchronize or
/// close until it has committed.
void sessionMoves(hist::HistContext &Ctx, SessionTreeFactory &Trees,
                  const SessionTree *Tree, const Plan &P,
                  const Repository &Repo, bool CommittedInternalChoice,
                  std::vector<Move> &Out);

} // namespace plan
} // namespace sus

#endif // SUS_PLAN_SEMANTICS_H
