//===- contract/Project.h - Projection onto communications ------*- C++ -*-===//
///
/// \file
/// The projection H! of §4, which erases access events, policy framings and
/// nested service requests, leaving a behavioural contract:
///
///   (H·H′)! = H!·H′!      h! = h         ϕ⟦H⟧! = H!
///   (µh.H)! = µh.(H)!     (Σᵢ aᵢ.Hᵢ)! = Σᵢ aᵢ.(Hᵢ)!
///   (⊕ᵢ āᵢ.Hᵢ)! = ⊕ᵢ āᵢ.(Hᵢ)!
///   (open_{r,ϕ}.H.close_{r,ϕ})! = ε! = α! = ε
///
/// The result is a contract in the sense of Castagna–Gesbert–Padovani:
/// internal choices guard outputs, external choices guard inputs, and
/// recursion is guarded tail recursion, so its transition system is finite
/// state.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_CONTRACT_PROJECT_H
#define SUS_CONTRACT_PROJECT_H

#include "hist/Expr.h"
#include "hist/HistContext.h"

namespace sus {
namespace contract {

/// Computes H! (hash-consed, memoized). A contract projects to itself,
/// so that case returns \p E without a walk.
const hist::Expr *project(hist::HistContext &Ctx, const hist::Expr *E);

/// True if \p E is already in the contract fragment: built only from
/// ε, h, µh.H, Σ, ⊕ and sequential composition (a node fact, see Expr.h).
inline bool isContract(const hist::Expr *E) { return E->isContract(); }

} // namespace contract
} // namespace sus

#endif // SUS_CONTRACT_PROJECT_H
