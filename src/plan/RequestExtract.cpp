//===- plan/RequestExtract.cpp - Collecting service requests --------------===//

#include "plan/RequestExtract.h"

#include "hist/Walk.h"
#include "support/Casting.h"

using namespace sus;
using namespace sus::hist;
using namespace sus::plan;

namespace {

/// The request sites of \p E in first-occurrence order; \p Nested says
/// whether to look inside request bodies.
std::vector<RequestSite> collect(const Expr *E, bool Nested) {
  std::vector<RequestSite> Out;
  walk(E, [&](const Expr *X) {
    const auto *R = dyn_cast<RequestExpr>(X);
    if (!R)
      return true;
    Out.push_back(RequestSite{R});
    return Nested;
  });
  return Out;
}

} // namespace

std::vector<RequestSite> sus::plan::extractRequests(const Expr *E) {
  return collect(E, /*Nested=*/true);
}

std::vector<RequestSite> sus::plan::extractTopLevelRequests(const Expr *E) {
  return collect(E, /*Nested=*/false);
}
