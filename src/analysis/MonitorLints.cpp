//===- analysis/MonitorLints.cpp - Runtime-monitorability analyses --------===//
///
/// One pass over the policies a file actually frames:
///
///  - sus-lint-nonmonitorable: the policy's automaton has an edge leaving
///    an offending state for a non-offending one. Usage automata declare
///    violations per *prefix*, and both the per-policy monitors and the
///    fused-DFA engine treat offending states as absorbing (a violation,
///    once observed, cannot be revoked by later events). An escape edge
///    therefore describes a liveness-shaped, revocable verdict that no
///    runtime monitor can enforce — only the policy's safety closure is
///    actually checked, which is usually not what the author meant.
///
/// The pass reuses the registry read-only and warns once per framed
/// policy shape, at its declaration.
///
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"

#include "hist/Walk.h"
#include "policy/UsageAutomaton.h"

#include <set>

using namespace sus;
using namespace sus::analysis;

namespace {

/// The escape edge that makes \p Shape non-monitorable, if any.
const policy::UsageEdge *findEscapeEdge(const policy::UsageAutomaton &Shape) {
  for (const policy::UsageEdge &E : Shape.edges())
    if (Shape.isOffending(E.From) && !Shape.isOffending(E.To))
      return &E;
  return nullptr;
}

class NonmonitorablePass : public LintPass {
public:
  std::string_view id() const override { return "sus-lint-nonmonitorable"; }
  std::string_view category() const override { return "lint.monitor"; }
  std::string_view description() const override {
    return "framed policies whose offending states can be escaped, which "
           "a runtime monitor cannot enforce";
  }

  void run(LintContext &LC) const override {
    const StringInterner &In = LC.context().interner();
    const syntax::SusFile &File = LC.file();

    // Every policy name framed (or requested under) anywhere in the file.
    // Unframed policies are not monitored, so escape edges there are inert.
    std::set<Symbol> Framed;
    for (const BehaviorRef &B : allBehaviors(File))
      hist::walk(B.Body, [&](const hist::Expr *E) {
        if (const auto *F = dyn_cast<hist::FramingExpr>(E))
          Framed.insert(F->policy().Name);
        else if (const auto *R = dyn_cast<hist::RequestExpr>(E))
          Framed.insert(R->policy().Name);
        else if (const auto *FO = dyn_cast<hist::FrameOpenExpr>(E))
          Framed.insert(FO->policy().Name);
        else if (const auto *FC = dyn_cast<hist::FrameCloseExpr>(E))
          Framed.insert(FC->policy().Name);
        return true;
      });

    for (Symbol Name : Framed) {
      if (!Name.isValid())
        continue; // The trivial policy ∅ has no automaton.
      const policy::UsageAutomaton *Shape = File.Registry.find(Name);
      if (!Shape)
        continue; // Unknown policies are the front end's diagnostic.
      const policy::UsageEdge *Escape = findEscapeEdge(*Shape);
      if (!Escape)
        continue;
      LC.emit(id(), category(), LC.declLoc(File.PolicyLocs, Name),
              "policy '" + std::string(In.text(Name)) +
                  "' is not runtime-monitorable: edge from offending "
                  "state '" + Shape->stateLabel(Escape->From) + "' to '" +
                  Shape->stateLabel(Escape->To) +
                  "' revokes a violation, but monitors treat offending "
                  "states as absorbing and enforce only the safety "
                  "closure of the policy");
    }
  }
};

} // namespace

namespace sus {
namespace analysis {

const LintPass &nonmonitorablePass() {
  static const NonmonitorablePass P;
  return P;
}

} // namespace analysis
} // namespace sus
