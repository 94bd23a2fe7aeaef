//===- support/TenantBudget.cpp - Per-tenant resource budgets -------------===//

#include "support/TenantBudget.h"

#include "support/ParseCount.h"

#include <algorithm>
#include <vector>

using namespace sus;

TenantBudget TenantBudget::min(const TenantBudget &Other) const {
  TenantBudget Out;
  Out.DeadlineMs = std::min(DeadlineMs, Other.DeadlineMs);
  Out.MaxProductStates = std::min(MaxProductStates, Other.MaxProductStates);
  return Out;
}

uint64_t *TenantBudget::field(std::string_view Name) {
  if (Name == FieldNames[0])
    return &DeadlineMs;
  if (Name == FieldNames[1])
    return &MaxProductStates;
  return nullptr;
}

std::shared_ptr<ResourceGovernor> TenantBudget::governor() const {
  if (unlimited())
    return nullptr;
  auto Gov = std::make_shared<ResourceGovernor>();
  if (MaxProductStates != NoLimit)
    Gov->setProductLimit(MaxProductStates);
  if (DeadlineMs != NoLimit)
    Gov->setDeadlineAfterMillis(DeadlineMs);
  return Gov;
}

namespace {

/// Parses one budget field: empty = NoLimit, else a digits-only count.
bool parseField(const std::string &Field, uint64_t &Out, std::string &Err) {
  if (Field.empty()) {
    Out = TenantBudget::NoLimit;
    return true;
  }
  switch (parseCount(Field, Out)) {
  case CountParse::Ok:
    return true;
  case CountParse::NotDigits:
    Err = "budget field '" + Field + "' is not a non-negative integer";
    return false;
  case CountParse::OutOfRange:
    Err = "budget field '" + Field + "' is out of range";
    return false;
  }
  return false;
}

} // namespace

bool TenantBudgetTable::addSpec(const std::string &Spec, std::string &Err) {
  std::vector<std::string> Fields;
  size_t Start = 0;
  while (true) {
    size_t Colon = Spec.find(':', Start);
    if (Colon == std::string::npos) {
      Fields.push_back(Spec.substr(Start));
      break;
    }
    Fields.push_back(Spec.substr(Start, Colon - Start));
    Start = Colon + 1;
  }
  if (Fields.size() != 3) {
    Err = "tenant spec '" + Spec +
          "' must be NAME:DEADLINE_MS:PRODUCT_STATES "
          "(empty fields mean no limit)";
    return false;
  }
  if (Fields[0].empty()) {
    Err = "tenant spec '" + Spec + "' has an empty tenant name";
    return false;
  }
  TenantBudget B;
  if (!parseField(Fields[1], B.DeadlineMs, Err) ||
      !parseField(Fields[2], B.MaxProductStates, Err))
    return false;
  if (Fields[0] == "*") {
    if (HaveDefault) {
      Err = "duplicate default tenant spec '*'";
      return false;
    }
    Default = B;
    HaveDefault = true;
    return true;
  }
  if (!Budgets.emplace(Fields[0], B).second) {
    Err = "duplicate tenant spec for '" + Fields[0] + "'";
    return false;
  }
  return true;
}

const TenantBudget &TenantBudgetTable::lookup(const std::string &Tenant) const {
  auto It = Budgets.find(Tenant);
  if (It != Budgets.end())
    return It->second;
  return Default; // Unlimited unless a "*" spec was given.
}

std::shared_ptr<ResourceGovernor>
TenantBudgetTable::governorFor(const std::string &Tenant,
                               const TenantBudget &Override) const {
  return lookup(Tenant).min(Override).governor();
}
