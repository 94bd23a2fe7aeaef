//===- syntax/HistParser.cpp - History-expression parser ------------------===//

#include "syntax/HistParser.h"

#include "support/Casting.h"

#include <algorithm>

using namespace sus;
using namespace sus::hist;
using namespace sus::syntax;

const Expr *HistParser::parseExpr() {
  DepthGuard Guard(*this);
  if (!Guard)
    return nullptr;
  if (peek().is(Keyword::Mu)) {
    next();
    if (!peek().is(TokenKind::Ident)) {
      error("expected recursion variable after 'mu'");
      return nullptr;
    }
    Symbol Var = Ctx.symbol(text(next()));
    if (!expect(TokenKind::Dot, "after mu binder"))
      return nullptr;
    const Expr *Body = parseExpr();
    if (!Body)
      return nullptr;
    return Ctx.mu(Var, Body);
  }
  return parseChoice();
}

bool HistParser::operandBranches(const Expr *E, bool WantInputs,
                                 std::vector<ChoiceBranch> &Out) {
  // Walk the left spine of sequential compositions iteratively (the spine
  // can be as long as the operand has ';' terms, so recursing here would
  // ride the native stack), collecting the continuations to distribute
  // into the guarded head: (a?.X); Y  ==>  a?.(X; Y).
  std::vector<const Expr *> Tails;
  while (const auto *S = dyn_cast<SeqExpr>(E)) {
    Tails.push_back(S->tail());
    E = S->head();
  }
  const auto *C = dyn_cast<ChoiceExpr>(E);
  if (!C) {
    error("choice operand must be guarded by a communication action");
    return false;
  }
  bool IsExt = E->kind() == ExprKind::ExtChoice;
  if (IsExt != WantInputs) {
    error(WantInputs
              ? "cannot mix output-guarded operand into external choice"
              : "cannot mix input-guarded operand into internal choice");
    return false;
  }
  for (const ChoiceBranch &B : C->branches()) {
    const Expr *Body = B.Body;
    for (auto It = Tails.rbegin(); It != Tails.rend(); ++It)
      Body = Ctx.seq(Body, *It);
    Out.push_back({B.Guard, Body});
  }
  return true;
}

const Expr *HistParser::parseChoice() {
  const Expr *First = parseSeq();
  if (!First)
    return nullptr;
  bool IsPlus = peek().is(TokenKind::Plus);
  bool IsOPlus = peek().is(TokenKind::OPlus);
  if (!IsPlus && !IsOPlus)
    return First;

  std::vector<ChoiceBranch> Branches;
  if (!operandBranches(First, /*WantInputs=*/IsPlus, Branches))
    return nullptr;
  TokenKind Sep = IsPlus ? TokenKind::Plus : TokenKind::OPlus;
  while (accept(Sep)) {
    const Expr *Operand = parseSeq();
    if (!Operand)
      return nullptr;
    if (!operandBranches(Operand, IsPlus, Branches))
      return nullptr;
  }
  if (peek().is(TokenKind::Plus) || peek().is(TokenKind::OPlus)) {
    error("cannot mix '+' and '<+>' in one choice");
    return nullptr;
  }
  return IsPlus ? Ctx.extChoice(std::move(Branches))
                : Ctx.intChoice(std::move(Branches));
}

const Expr *HistParser::parseSeq() {
  const Expr *First = parsePrefix();
  if (!First || !peek().is(TokenKind::Semi))
    return First;
  // Collect the terms and build the right-nested chain once, from the
  // back: a left fold would re-nest the accumulated prefix per term.
  std::vector<const Expr *> Terms{First};
  while (accept(TokenKind::Semi)) {
    const Expr *Term = parsePrefix();
    if (!Term)
      return nullptr;
    Terms.push_back(Term);
  }
  return Ctx.seq(Terms);
}

const Expr *HistParser::parsePrefix() {
  DepthGuard Guard(*this);
  if (!Guard)
    return nullptr;
  // Action prefix: IDENT ('?'|'!') ['.' prefix].
  if (peek().is(TokenKind::Ident) &&
      (peek(1).is(TokenKind::Question) || peek(1).is(TokenKind::Bang))) {
    Symbol Channel = Ctx.symbol(text(next()));
    bool IsInput = next().is(TokenKind::Question);
    const Expr *Body = Ctx.empty();
    if (accept(TokenKind::Dot)) {
      Body = parsePrefix();
      if (!Body)
        return nullptr;
    }
    CommAction Act = IsInput ? CommAction::input(Channel)
                             : CommAction::output(Channel);
    return Ctx.prefix(Act, Body);
  }
  return parsePrimary();
}

std::optional<Value> HistParser::parseValue() {
  if (peek().is(TokenKind::Number))
    return Value::integer(next().number());
  if (peek().is(TokenKind::Ident))
    return Value::name(Ctx.symbol(text(next())));
  error("expected a number or a name");
  return std::nullopt;
}

std::optional<PolicyRef> HistParser::parsePolicyRef() {
  if (!peek().is(TokenKind::Ident)) {
    error("expected policy name");
    return std::nullopt;
  }
  PolicyRef Ref;
  Ref.Name = Ctx.symbol(text(next()));
  if (!accept(TokenKind::LParen))
    return Ref;
  if (accept(TokenKind::RParen))
    return Ref;
  do {
    std::vector<Value> Arg;
    if (accept(TokenKind::LBrace)) {
      if (!accept(TokenKind::RBrace)) {
        do {
          std::optional<Value> V = parseValue();
          if (!V)
            return std::nullopt;
          Arg.push_back(*V);
        } while (accept(TokenKind::Comma));
        if (!expect(TokenKind::RBrace, "to close value set"))
          return std::nullopt;
      }
      std::sort(Arg.begin(), Arg.end());
      Arg.erase(std::unique(Arg.begin(), Arg.end()), Arg.end());
    } else {
      std::optional<Value> V = parseValue();
      if (!V)
        return std::nullopt;
      Arg.push_back(*V);
    }
    Ref.Args.push_back(std::move(Arg));
  } while (accept(TokenKind::Comma));
  if (!expect(TokenKind::RParen, "to close policy arguments"))
    return std::nullopt;
  return Ref;
}

const Expr *HistParser::parsePrimary() {
  const Token &T = peek();

  if (T.is(TokenKind::LParen)) {
    next();
    const Expr *Inner = parseExpr();
    if (!Inner)
      return nullptr;
    if (!expect(TokenKind::RParen))
      return nullptr;
    return Inner;
  }

  if (T.is(TokenKind::Percent)) {
    next();
    if (!peek().is(TokenKind::Ident)) {
      error("expected event name after '%'");
      return nullptr;
    }
    Symbol Name = Ctx.symbol(text(next()));
    Value Arg;
    if (accept(TokenKind::LParen)) {
      std::optional<Value> V = parseValue();
      if (!V)
        return nullptr;
      Arg = *V;
      if (!expect(TokenKind::RParen, "to close event argument"))
        return nullptr;
    }
    return Ctx.event(Event{Name, Arg});
  }

  if (T.is(Keyword::Eps)) {
    next();
    return Ctx.empty();
  }

  if (T.is(Keyword::Open)) {
    next();
    if (!peek().is(TokenKind::Number)) {
      error("expected request id after 'open'");
      return nullptr;
    }
    RequestId R = static_cast<RequestId>(next().number());
    PolicyRef Policy;
    if (accept(TokenKind::At)) {
      std::optional<PolicyRef> P = parsePolicyRef();
      if (!P)
        return nullptr;
      Policy = std::move(*P);
    }
    if (!expect(TokenKind::LBrace, "to open session body"))
      return nullptr;
    const Expr *Body = parseExpr();
    if (!Body)
      return nullptr;
    if (!expect(TokenKind::RBrace, "to close session body"))
      return nullptr;
    return Ctx.request(R, std::move(Policy), Body);
  }

  if (T.is(Keyword::Close)) {
    next();
    if (!peek().is(TokenKind::Number)) {
      error("expected request id after 'close'");
      return nullptr;
    }
    RequestId R = static_cast<RequestId>(next().number());
    PolicyRef Policy;
    if (accept(TokenKind::At)) {
      std::optional<PolicyRef> P = parsePolicyRef();
      if (!P)
        return nullptr;
      Policy = std::move(*P);
    }
    return Ctx.closeMark(R, std::move(Policy));
  }

  if (T.is(Keyword::FOpen) || T.is(Keyword::FClose)) {
    bool IsOpen = T.is(Keyword::FOpen);
    next();
    std::optional<PolicyRef> P = parsePolicyRef();
    if (!P)
      return nullptr;
    return IsOpen ? Ctx.frameOpen(std::move(*P))
                  : Ctx.frameClose(std::move(*P));
  }

  if (T.is(TokenKind::Ident)) {
    // Policy framing (ident '[' or ident '(' ... ')' '[') vs. variable.
    if (peek(1).is(TokenKind::LBracket) || peek(1).is(TokenKind::LParen)) {
      std::optional<PolicyRef> P = parsePolicyRef();
      if (!P)
        return nullptr;
      if (!expect(TokenKind::LBracket, "to open framing body"))
        return nullptr;
      const Expr *Body = parseExpr();
      if (!Body)
        return nullptr;
      if (!expect(TokenKind::RBracket, "to close framing body"))
        return nullptr;
      return Ctx.framing(std::move(*P), Body);
    }
    return Ctx.var(Ctx.symbol(text(next())));
  }

  error(std::string("expected an expression, got ") +
        tokenKindName(T.kind()));
  return nullptr;
}

const Expr *sus::syntax::parseHistExpr(HistContext &Ctx,
                                       std::string_view Buffer,
                                       DiagnosticEngine &Diags) {
  TokenBuffer Tokens = tokenize(Buffer, Diags);
  if (Diags.hasErrors())
    return nullptr;
  HistParser P(Tokens, Ctx, Diags);
  const Expr *E = P.parseExpr();
  if (!E)
    return nullptr;
  if (!P.atEof()) {
    Diags.error(P.loc(P.peek()), "trailing input after expression");
    return nullptr;
  }
  return E;
}
