//===- lambda/TypeEffect.cpp - The type-and-effect system ------------------===//

#include "lambda/TypeEffect.h"

#include "hist/WellFormed.h"

#include <vector>

using namespace sus;
using namespace sus::hist;
using namespace sus::lambda;

const char *EffectSystem::typeName(const Type *T) const {
  if (!T)
    return "<error>";
  switch (T->kind()) {
  case TypeKind::Unit:
    return "unit";
  case TypeKind::Bool:
    return "bool";
  case TypeKind::Arrow:
    return "function";
  }
  return "<unknown>";
}

std::optional<TypeAndEffect> EffectSystem::infer(const Term *T) {
  Env E;
  return inferIn(T, E);
}

std::optional<TypeAndEffect> EffectSystem::inferIn(const Term *T, Env &E) {
  HistContext &H = Ctx.hist();
  switch (T->kind()) {
  case TermKind::Unit:
    return TypeAndEffect{Ctx.unitType(), H.empty()};

  case TermKind::BoolLit:
    return TypeAndEffect{Ctx.boolType(), H.empty()};

  case TermKind::Var: {
    const auto *V = cast<VarTerm>(T);
    auto It = E.Vars.find(V->name());
    if (It == E.Vars.end()) {
      Diags.error("unbound variable '" +
                  std::string(Ctx.interner().text(V->name())) + "'");
      return std::nullopt;
    }
    return TypeAndEffect{It->second, H.empty()};
  }

  case TermKind::Lambda: {
    const auto *L = cast<LambdaTerm>(T);
    const Type *Saved = nullptr;
    bool HadOld = false;
    auto It = E.Vars.find(L->param());
    if (It != E.Vars.end()) {
      Saved = It->second;
      HadOld = true;
    }
    E.Vars[L->param()] = L->paramType();
    std::optional<TypeAndEffect> Body = inferIn(L->body(), E);
    if (HadOld)
      E.Vars[L->param()] = Saved;
    else
      E.Vars.erase(L->param());
    if (!Body)
      return std::nullopt;
    // The body's effect is latent: released at application time.
    return TypeAndEffect{
        Ctx.arrow(L->paramType(), Body->Ty, Body->Effect), H.empty()};
  }

  case TermKind::App: {
    const auto *A = cast<AppTerm>(T);
    std::optional<TypeAndEffect> Fn = inferIn(A->fn(), E);
    std::optional<TypeAndEffect> Arg = inferIn(A->arg(), E);
    if (!Fn || !Arg)
      return std::nullopt;
    if (!Fn->Ty->isArrow()) {
      Diags.error(std::string("cannot apply a value of type ") +
                  typeName(Fn->Ty));
      return std::nullopt;
    }
    if (Fn->Ty->param() != Arg->Ty) {
      Diags.error(std::string("argument type mismatch: expected ") +
                  typeName(Fn->Ty->param()) + ", got " + typeName(Arg->Ty));
      return std::nullopt;
    }
    // H_fn · H_arg · latent.
    return TypeAndEffect{
        Fn->Ty->result(),
        H.seq(Fn->Effect, H.seq(Arg->Effect, Fn->Ty->latentEffect()))};
  }

  case TermKind::Seq: {
    // t1; (t2; (...; tn)): walk the right spine in a loop and build the
    // effect H1·H2·...·Hn once, from the back, in linear time. Every part
    // is inferred (and diagnosed) even after an earlier one failed.
    std::vector<const hist::Expr *> Effects;
    const Type *Last = nullptr;
    bool Ok = true;
    const Term *Rest = T;
    while (Rest) {
      const auto *S = dyn_cast<SeqTerm>(Rest);
      std::optional<TypeAndEffect> Part = inferIn(S ? S->first() : Rest, E);
      Rest = S ? S->second() : nullptr;
      if (!Part) {
        Ok = false;
        continue;
      }
      Effects.push_back(Part->Effect);
      Last = Part->Ty;
    }
    if (!Ok)
      return std::nullopt;
    return TypeAndEffect{Last, H.seq(Effects)};
  }

  case TermKind::If: {
    const auto *I = cast<IfTerm>(T);
    std::optional<TypeAndEffect> C = inferIn(I->cond(), E);
    std::optional<TypeAndEffect> Then = inferIn(I->thenBranch(), E);
    std::optional<TypeAndEffect> Else = inferIn(I->elseBranch(), E);
    if (!C || !Then || !Else)
      return std::nullopt;
    if (!C->Ty->isBool()) {
      Diags.error(std::string("if condition must be bool, got ") +
                  typeName(C->Ty));
      return std::nullopt;
    }
    if (Then->Ty != Else->Ty) {
      Diags.error("if branches disagree on type");
      return std::nullopt;
    }
    if (Then->Effect != Else->Effect) {
      Diags.error("if branches disagree on effect; use select/branch for "
                  "observable nondeterminism");
      return std::nullopt;
    }
    return TypeAndEffect{Then->Ty, H.seq(C->Effect, Then->Effect)};
  }

  case TermKind::Event: {
    const auto *Ev = cast<EventTerm>(T);
    return TypeAndEffect{Ctx.unitType(), H.event(Ev->event())};
  }

  case TermKind::Send:
  case TermKind::Recv: {
    const auto *Cm = cast<CommTerm>(T);
    CommAction Act = Cm->isSend() ? CommAction::output(Cm->channel())
                                  : CommAction::input(Cm->channel());
    return TypeAndEffect{Ctx.unitType(), H.prefix(Act, H.empty())};
  }

  case TermKind::Select:
  case TermKind::Branch: {
    const auto *Ch = cast<ChoiceTerm>(T);
    bool IsSelect = Ch->isSelect();
    std::vector<ChoiceBranch> Branches;
    const Type *CommonTy = nullptr;
    for (const CommArm &Arm : Ch->arms()) {
      std::optional<TypeAndEffect> Body = inferIn(Arm.Body, E);
      if (!Body)
        return std::nullopt;
      if (CommonTy && Body->Ty != CommonTy) {
        Diags.error("select/branch arms disagree on type");
        return std::nullopt;
      }
      CommonTy = Body->Ty;
      CommAction Act = IsSelect ? CommAction::output(Arm.Channel)
                                : CommAction::input(Arm.Channel);
      Branches.push_back({Act, Body->Effect});
    }
    const Expr *Effect = IsSelect ? H.intChoice(std::move(Branches))
                                  : H.extChoice(std::move(Branches));
    return TypeAndEffect{CommonTy, Effect};
  }

  case TermKind::Request: {
    const auto *R = cast<RequestTerm>(T);
    std::optional<TypeAndEffect> Body = inferIn(R->body(), E);
    if (!Body)
      return std::nullopt;
    if (!Body->Ty->isUnit()) {
      Diags.error("a session body must have type unit");
      return std::nullopt;
    }
    return TypeAndEffect{
        Ctx.unitType(), H.request(R->request(), R->policy(), Body->Effect)};
  }

  case TermKind::Framing: {
    const auto *F = cast<FramingTerm>(T);
    std::optional<TypeAndEffect> Body = inferIn(F->body(), E);
    if (!Body)
      return std::nullopt;
    return TypeAndEffect{Body->Ty, H.framing(F->policy(), Body->Effect)};
  }

  case TermKind::Rec: {
    const auto *R = cast<RecTerm>(T);
    bool Inserted = E.RecVars.insert(R->var()).second;
    std::optional<TypeAndEffect> Body = inferIn(R->body(), E);
    if (Inserted)
      E.RecVars.erase(R->var());
    if (!Body)
      return std::nullopt;
    if (!Body->Ty->isUnit()) {
      Diags.error("a rec body must have type unit");
      return std::nullopt;
    }
    return TypeAndEffect{Ctx.unitType(), H.mu(R->var(), Body->Effect)};
  }

  case TermKind::Jump: {
    const auto *J = cast<JumpTerm>(T);
    if (!E.RecVars.count(J->var())) {
      Diags.error("jump target '" +
                  std::string(Ctx.interner().text(J->var())) +
                  "' is not an enclosing rec");
      return std::nullopt;
    }
    // A jump never returns; give it type unit (it may only appear in tail
    // position, which the effect well-formedness check enforces).
    return TypeAndEffect{Ctx.unitType(), H.var(J->var())};
  }
  }
  return std::nullopt;
}

std::optional<const Expr *>
EffectSystem::inferServiceEffect(const Term *T) {
  std::optional<TypeAndEffect> R = infer(T);
  if (!R)
    return std::nullopt;
  if (!R->Ty->isUnit()) {
    Diags.error(std::string("a service must have type unit, got ") +
                typeName(R->Ty));
    return std::nullopt;
  }
  if (!Ctx.hist().isClosed(R->Effect)) {
    Diags.error("service effect has free recursion variables");
    return std::nullopt;
  }
  if (!checkWellFormed(Ctx.hist(), R->Effect, Diags))
    return std::nullopt;
  return R->Effect;
}
