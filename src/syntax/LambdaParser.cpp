//===- syntax/LambdaParser.cpp - λ service-calculus parser ----------------===//

#include "syntax/LambdaParser.h"

#include <algorithm>

using namespace sus;
using namespace sus::lambda;
using namespace sus::syntax;

namespace {

/// Contextual keywords that can never be bare variables.
bool isReservedWord(Keyword K) {
  return K >= Keyword::Unit && K <= Keyword::Jump;
}

} // namespace

bool LambdaParser::startsAtom() const {
  const Token &T = peek();
  if (T.is(TokenKind::LParen) || T.is(TokenKind::Percent))
    return true;
  if (!T.is(TokenKind::Ident))
    return false;
  // 'then'/'else' terminate an application run inside an if.
  return !T.is(Keyword::Then) && !T.is(Keyword::Else);
}

const Term *LambdaParser::parseTerm() {
  // `;` associates to the right, t1; (t2; (...; tn)), so the effect of the
  // chain is built from the back in linear time (see TypeEffect).
  std::vector<const Term *> Terms;
  do {
    const Term *T = parseApp();
    if (!T)
      return nullptr;
    Terms.push_back(T);
  } while (accept(TokenKind::Semi));
  const Term *Acc = Terms.back();
  for (size_t I = Terms.size() - 1; I-- > 0;)
    Acc = Ctx.seq(Terms[I], Acc);
  return Acc;
}

const Term *LambdaParser::parseApp() {
  const Term *Acc = parseAtom();
  if (!Acc)
    return nullptr;
  while (startsAtom()) {
    const Term *Arg = parseAtom();
    if (!Arg)
      return nullptr;
    Acc = Ctx.app(Acc, Arg);
  }
  return Acc;
}

const Type *LambdaParser::parseType() {
  if (accept(Keyword::Unit))
    return Ctx.unitType();
  if (accept(Keyword::Bool))
    return Ctx.boolType();
  error("expected parameter type 'unit' or 'bool'");
  return nullptr;
}

std::optional<Value> LambdaParser::parseValue() {
  if (peek().is(TokenKind::Number))
    return Value::integer(next().number());
  if (peek().is(TokenKind::Ident))
    return Value::name(Ctx.symbol(text(next())));
  error("expected a number or a name");
  return std::nullopt;
}

std::optional<hist::PolicyRef> LambdaParser::parsePolicyRef() {
  if (!peek().is(TokenKind::Ident)) {
    error("expected policy name");
    return std::nullopt;
  }
  hist::PolicyRef Ref;
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

const Term *LambdaParser::parseAtom() {
  DepthGuard Guard(*this);
  if (!Guard)
    return nullptr;
  const Token &T = peek();

  if (T.is(TokenKind::LParen)) {
    next();
    const Term *Inner = parseTerm();
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
    return Ctx.event(hist::Event{Name, Arg});
  }

  if (!T.is(TokenKind::Ident)) {
    error(std::string("expected a term, got ") + tokenKindName(T.kind()));
    return nullptr;
  }

  if (T.is(Keyword::Unit)) {
    next();
    return Ctx.unit();
  }
  if (T.is(Keyword::True) || T.is(Keyword::False)) {
    bool V = T.is(Keyword::True);
    next();
    return Ctx.boolLit(V);
  }
  if (T.is(Keyword::Fun)) {
    next();
    if (!expect(TokenKind::LParen, "after 'fun'"))
      return nullptr;
    if (!peek().is(TokenKind::Ident)) {
      error("expected parameter name");
      return nullptr;
    }
    std::string Param(text(next()));
    if (!expect(TokenKind::Colon, "after parameter name"))
      return nullptr;
    const Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    if (!expect(TokenKind::RParen, "to close parameter"))
      return nullptr;
    if (!expect(TokenKind::Dot, "before function body"))
      return nullptr;
    const Term *Body = parseTerm();
    if (!Body)
      return nullptr;
    return Ctx.lambda(Param, Ty, Body);
  }
  if (T.is(Keyword::If)) {
    next();
    const Term *C = parseTerm();
    if (!C)
      return nullptr;
    if (!accept(Keyword::Then)) {
      error("expected 'then'");
      return nullptr;
    }
    const Term *Then = parseTerm();
    if (!Then)
      return nullptr;
    if (!accept(Keyword::Else)) {
      error("expected 'else'");
      return nullptr;
    }
    const Term *Else = parseApp();
    if (!Else)
      return nullptr;
    return Ctx.ifTerm(C, Then, Else);
  }
  if (T.is(Keyword::Snd) || T.is(Keyword::Rcv)) {
    bool IsSend = T.is(Keyword::Snd);
    next();
    if (!peek().is(TokenKind::Ident)) {
      error("expected channel name");
      return nullptr;
    }
    std::string Ch(text(next()));
    return IsSend ? Ctx.send(Ch) : Ctx.recv(Ch);
  }
  if (T.is(Keyword::Select) || T.is(Keyword::Branch)) {
    bool IsSelect = T.is(Keyword::Select);
    next();
    if (!expect(TokenKind::LBrace, "to open arms"))
      return nullptr;
    std::vector<CommArm> Arms;
    do {
      if (!peek().is(TokenKind::Ident)) {
        error("expected channel name in arm");
        return nullptr;
      }
      Symbol Ch = Ctx.symbol(text(next()));
      if (!expect(TokenKind::Arrow, "in arm"))
        return nullptr;
      const Term *Body = parseTerm();
      if (!Body)
        return nullptr;
      Arms.push_back({Ch, Body});
    } while (accept(TokenKind::Comma));
    if (!expect(TokenKind::RBrace, "to close arms"))
      return nullptr;
    return IsSelect ? Ctx.select(std::move(Arms))
                    : Ctx.branch(std::move(Arms));
  }
  if (T.is(Keyword::Req)) {
    next();
    if (!peek().is(TokenKind::Number)) {
      error("expected request id after 'req'");
      return nullptr;
    }
    hist::RequestId R = static_cast<hist::RequestId>(next().number());
    hist::PolicyRef Policy;
    if (accept(TokenKind::At)) {
      std::optional<hist::PolicyRef> P = parsePolicyRef();
      if (!P)
        return nullptr;
      Policy = std::move(*P);
    }
    if (!expect(TokenKind::LBrace, "to open session body"))
      return nullptr;
    const Term *Body = parseTerm();
    if (!Body)
      return nullptr;
    if (!expect(TokenKind::RBrace, "to close session body"))
      return nullptr;
    return Ctx.request(R, std::move(Policy), Body);
  }
  if (T.is(Keyword::Frame)) {
    next();
    std::optional<hist::PolicyRef> P = parsePolicyRef();
    if (!P)
      return nullptr;
    if (!expect(TokenKind::LBrace, "to open framing body"))
      return nullptr;
    const Term *Body = parseTerm();
    if (!Body)
      return nullptr;
    if (!expect(TokenKind::RBrace, "to close framing body"))
      return nullptr;
    return Ctx.framing(std::move(*P), Body);
  }
  if (T.is(Keyword::Rec)) {
    next();
    if (!peek().is(TokenKind::Ident)) {
      error("expected loop variable after 'rec'");
      return nullptr;
    }
    std::string Var(text(next()));
    if (!expect(TokenKind::LBrace, "to open rec body"))
      return nullptr;
    const Term *Body = parseTerm();
    if (!Body)
      return nullptr;
    if (!expect(TokenKind::RBrace, "to close rec body"))
      return nullptr;
    return Ctx.rec(Var, Body);
  }
  if (T.is(Keyword::Jump)) {
    next();
    if (!peek().is(TokenKind::Ident)) {
      error("expected loop variable after 'jump'");
      return nullptr;
    }
    return Ctx.jump(std::string(text(next())));
  }

  if (isReservedWord(T.keyword())) {
    error("'" + std::string(text(T)) + "' cannot be used here");
    return nullptr;
  }
  return Ctx.var(std::string(text(next())));
}

const Term *sus::syntax::parseLambdaTerm(LambdaContext &Ctx,
                                         std::string_view Buffer,
                                         DiagnosticEngine &Diags) {
  TokenBuffer Tokens = tokenize(Buffer, Diags);
  if (Diags.hasErrors())
    return nullptr;
  LambdaParser P(Tokens, Ctx, Diags);
  const Term *T = P.parseTerm();
  if (!T)
    return nullptr;
  if (!P.atEof()) {
    Diags.error(P.loc(P.peek()), "trailing input after term");
    return nullptr;
  }
  return T;
}
