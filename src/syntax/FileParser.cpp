//===- syntax/FileParser.cpp - .sus network file parser -------------------===//

#include "syntax/FileParser.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include "hist/WellFormed.h"
#include "lambda/TypeEffect.h"
#include "syntax/HistParser.h"
#include "syntax/LambdaParser.h"

#include <algorithm>
#include <functional>
#include <map>

using namespace sus;
using namespace sus::hist;
using namespace sus::policy;
using namespace sus::syntax;

namespace {

class FileParser : public ParserBase {
public:
  FileParser(const TokenBuffer &Tokens, HistContext &Ctx,
             DiagnosticEngine &Diags)
      : ParserBase(Tokens, Diags), Ctx(Ctx), Lambda(Ctx) {}

  std::optional<SusFile> parse() {
    SusFile File;
    while (!atEof()) {
      if (peek().is(Keyword::Policy)) {
        if (!parsePolicy(File))
          return std::nullopt;
        continue;
      }
      if (peek().is(Keyword::Service) || peek().is(Keyword::Client)) {
        if (!parseBehavior(File))
          return std::nullopt;
        continue;
      }
      if (peek().is(Keyword::Program)) {
        if (!parseProgram(File))
          return std::nullopt;
        continue;
      }
      if (peek().is(Keyword::Plan)) {
        if (!parsePlan(File))
          return std::nullopt;
        continue;
      }
      error("expected 'policy', 'service', 'client', 'program' or 'plan'");
      return std::nullopt;
    }
    return File;
  }

private:
  //===--------------------------------------------------------------------===//
  // policy
  //===--------------------------------------------------------------------===//

  bool parsePolicy(SusFile &File) {
    next(); // 'policy'
    if (!peek().is(TokenKind::Ident)) {
      error("expected policy name");
      return false;
    }
    SourceLoc DeclLoc = loc(peek());
    Symbol Name = Ctx.symbol(text(next()));
    File.PolicyLocs[Name] = DeclLoc;

    std::vector<PolicyParam> Params;
    if (accept(TokenKind::LParen) && !accept(TokenKind::RParen)) {
      do {
        if (!peek().is(TokenKind::Ident)) {
          error("expected parameter name");
          return false;
        }
        Symbol PName = Ctx.symbol(text(next()));
        if (!expect(TokenKind::Colon, "after parameter name"))
          return false;
        bool IsSet;
        if (accept(Keyword::Set)) {
          IsSet = true;
        } else if (accept(Keyword::Int)) {
          IsSet = false;
        } else {
          error("expected parameter kind 'set' or 'int'");
          return false;
        }
        Params.push_back({PName, IsSet});
      } while (accept(TokenKind::Comma));
      if (!expect(TokenKind::RParen, "to close parameter list"))
        return false;
    }

    UsageAutomaton A(Name, Params);
    std::map<Symbol, UStateId> States;
    auto StateOf = [&](Symbol S) -> UStateId {
      auto It = States.find(S);
      if (It != States.end())
        return It->second;
      UStateId Id = A.addState(std::string(Ctx.interner().text(S)));
      States.emplace(S, Id);
      return Id;
    };
    auto ParamIndex = [&](Symbol S) -> int {
      for (size_t I = 0; I < Params.size(); ++I)
        if (Params[I].Name == S)
          return static_cast<int>(I);
      return -1;
    };

    if (!expect(TokenKind::LBrace, "to open policy body"))
      return false;
    bool StartSet = false;
    while (!accept(TokenKind::RBrace)) {
      if (atEof()) {
        error("unterminated policy body");
        return false;
      }
      if (accept(Keyword::States)) {
        while (peek().is(TokenKind::Ident))
          StateOf(Ctx.symbol(text(next())));
        if (!expect(TokenKind::Semi, "after state list"))
          return false;
        continue;
      }
      if (accept(Keyword::Start)) {
        if (!peek().is(TokenKind::Ident)) {
          error("expected state name after 'start'");
          return false;
        }
        A.setStart(StateOf(Ctx.symbol(text(next()))));
        StartSet = true;
        if (!expect(TokenKind::Semi, "after start state"))
          return false;
        continue;
      }
      if (accept(Keyword::Offending)) {
        do {
          if (!peek().is(TokenKind::Ident)) {
            error("expected state name after 'offending'");
            return false;
          }
          A.setOffending(StateOf(Ctx.symbol(text(next()))));
        } while (accept(TokenKind::Comma));
        if (!expect(TokenKind::Semi, "after offending list"))
          return false;
        continue;
      }
      // Edge: IDENT -> IDENT on (* | event[(var)] [when guard]) ;
      if (!peek().is(TokenKind::Ident)) {
        error("expected a policy statement or edge");
        return false;
      }
      UStateId From = StateOf(Ctx.symbol(text(next())));
      if (!expect(TokenKind::Arrow, "in policy edge"))
        return false;
      if (!peek().is(TokenKind::Ident)) {
        error("expected target state");
        return false;
      }
      UStateId To = StateOf(Ctx.symbol(text(next())));
      if (!accept(Keyword::On)) {
        error("expected 'on' in policy edge");
        return false;
      }
      if (accept(TokenKind::Star)) {
        A.addWildcardEdge(From, To);
        if (!expect(TokenKind::Semi, "after policy edge"))
          return false;
        continue;
      }
      if (!peek().is(TokenKind::Ident)) {
        error("expected event name in policy edge");
        return false;
      }
      Symbol EventName = Ctx.symbol(text(next()));
      Symbol EventVar;
      if (accept(TokenKind::LParen)) {
        if (!peek().is(TokenKind::Ident)) {
          error("expected event parameter variable");
          return false;
        }
        EventVar = Ctx.symbol(text(next()));
        if (!expect(TokenKind::RParen, "to close event pattern"))
          return false;
      }
      Guard G = Guard::always();
      if (accept(Keyword::When)) {
        std::optional<Guard> Parsed = parseGuard(EventVar, ParamIndex);
        if (!Parsed)
          return false;
        G = std::move(*Parsed);
      }
      A.addEdge(From, EventName, std::move(G), To);
      if (!expect(TokenKind::Semi, "after policy edge"))
        return false;
    }

    if (!StartSet && A.numStates() > 0)
      A.setStart(0);
    if (!A.verify(Ctx.interner(), Diags))
      return false;
    File.Registry.add(std::move(A));
    return true;
  }

  std::optional<Guard> parseGuard(Symbol EventVar,
                                  const std::function<int(Symbol)> &Param) {
    Guard G = Guard::always();
    do {
      // Atom: var (in|not in) set-or-param | var cmp value-or-param.
      if (!peek().is(TokenKind::Ident)) {
        error("expected guard variable");
        return std::nullopt;
      }
      Symbol Var = Ctx.symbol(text(next()));
      if (!EventVar.isValid() || Var != EventVar) {
        error("guard variable does not match the event parameter");
        return std::nullopt;
      }

      bool Negated = false;
      if (accept(Keyword::Not))
        Negated = true;
      if (accept(Keyword::In)) {
        if (peek().is(TokenKind::LBrace)) {
          next();
          std::vector<Value> Values;
          if (!peek().is(TokenKind::RBrace)) {
            do {
              std::optional<Value> V = parseGuardValue();
              if (!V)
                return std::nullopt;
              Values.push_back(*V);
            } while (accept(TokenKind::Comma));
          }
          if (!expect(TokenKind::RBrace, "to close value set"))
            return std::nullopt;
          G = G && (Negated ? Guard::notInConst(std::move(Values))
                            : Guard::inConst(std::move(Values)));
        } else if (peek().is(TokenKind::Ident)) {
          int I = Param(Ctx.symbol(text(next())));
          if (I < 0) {
            error("unknown policy parameter in guard");
            return std::nullopt;
          }
          G = G && (Negated ? Guard::notInParam(static_cast<unsigned>(I))
                            : Guard::inParam(static_cast<unsigned>(I)));
        } else {
          error("expected a set or a set-valued parameter after 'in'");
          return std::nullopt;
        }
      } else {
        if (Negated) {
          error("'not' must be followed by 'in'");
          return std::nullopt;
        }
        CmpOp Op;
        switch (peek().kind()) {
        case TokenKind::Lt:
          Op = CmpOp::LT;
          break;
        case TokenKind::Le:
          Op = CmpOp::LE;
          break;
        case TokenKind::Gt:
          Op = CmpOp::GT;
          break;
        case TokenKind::Ge:
          Op = CmpOp::GE;
          break;
        case TokenKind::EqEq:
          Op = CmpOp::EQ;
          break;
        case TokenKind::Ne:
          Op = CmpOp::NE;
          break;
        default:
          error("expected a comparison operator or 'in'");
          return std::nullopt;
        }
        next();
        if (peek().is(TokenKind::Number)) {
          G = G && Guard::cmpConst(Op, Value::integer(next().number()));
        } else if (peek().is(TokenKind::Ident)) {
          int I = Param(Ctx.symbol(text(next())));
          if (I < 0) {
            error("unknown policy parameter in guard");
            return std::nullopt;
          }
          G = G && Guard::cmpParam(Op, static_cast<unsigned>(I));
        } else {
          error("expected a number or a parameter after comparison");
          return std::nullopt;
        }
      }
    } while (accept(Keyword::And));
    return G;
  }

  std::optional<Value> parseGuardValue() {
    if (peek().is(TokenKind::Number))
      return Value::integer(next().number());
    if (peek().is(TokenKind::Ident))
      return Value::name(Ctx.symbol(text(next())));
    error("expected a number or a name");
    return std::nullopt;
  }

  //===--------------------------------------------------------------------===//
  // service / client
  //===--------------------------------------------------------------------===//

  bool parseBehavior(SusFile &File) {
    bool IsService = peek().is(Keyword::Service);
    next();
    if (!peek().is(TokenKind::Ident)) {
      error("expected a name");
      return false;
    }
    SourceLoc DeclLoc = loc(peek());
    Symbol Name = Ctx.symbol(text(next()));
    auto &Locs = IsService ? File.ServiceLocs : File.ClientLocs;
    Locs.insert_or_assign(Locs.end(), Name, DeclLoc); // Usually sorts last.
    if (!expect(TokenKind::LBrace, "to open behaviour"))
      return false;
    HistParser HP(Tokens, Ctx, Diags);
    // Continue from our position: re-synchronize the sub-parser.
    const Expr *E = parseExprHere(HP);
    if (!E)
      return false;
    if (!expect(TokenKind::RBrace, "to close behaviour"))
      return false;

    if (!Ctx.isClosed(E)) {
      error("behaviour of '" + std::string(Ctx.interner().text(Name)) +
            "' has free recursion variables");
      return false;
    }
    if (!checkWellFormed(Ctx, E, Diags))
      return false;
    if (IsService)
      File.Repo.add(Name, E);
    else
      File.Clients.push_back({Name, E});
    return true;
  }

  /// Runs a HistParser starting at our cursor and adopts its end position.
  const Expr *parseExprHere(HistParser &HP) {
    HP.setPosition(Pos);
    const Expr *E = HP.parseExpr();
    Pos = HP.position();
    return E;
  }

  //===--------------------------------------------------------------------===//
  // program (λ service calculus; effect-extracted)
  //===--------------------------------------------------------------------===//

  bool parseProgram(SusFile &File) {
    next(); // 'program'
    bool IsService;
    if (accept(Keyword::Service)) {
      IsService = true;
    } else if (accept(Keyword::Client)) {
      IsService = false;
    } else {
      error("expected 'service' or 'client' after 'program'");
      return false;
    }
    if (!peek().is(TokenKind::Ident)) {
      error("expected a name");
      return false;
    }
    SourceLoc DeclLoc = loc(peek());
    Symbol Name = Ctx.symbol(text(next()));
    auto &Locs = IsService ? File.ServiceLocs : File.ClientLocs;
    Locs.insert_or_assign(Locs.end(), Name, DeclLoc); // Usually sorts last.
    if (!expect(TokenKind::LBrace, "to open program body"))
      return false;

    LambdaParser LP(Tokens, Lambda, Diags);
    LP.setPosition(Pos);
    const lambda::Term *T = LP.parseTerm();
    Pos = LP.position();
    if (!T)
      return false;
    if (!expect(TokenKind::RBrace, "to close program body"))
      return false;

    // Extract the history expression through the type-and-effect system;
    // inferServiceEffect also checks closedness and well-formedness.
    lambda::EffectSystem Effects(Lambda, Diags);
    std::optional<const Expr *> Effect = Effects.inferServiceEffect(T);
    if (!Effect)
      return false;
    if (IsService)
      File.Repo.add(Name, *Effect);
    else
      File.Clients.push_back({Name, *Effect});
    return true;
  }

  //===--------------------------------------------------------------------===//
  // plan
  //===--------------------------------------------------------------------===//

  bool parsePlan(SusFile &File) {
    next(); // 'plan'
    if (!peek().is(TokenKind::Ident)) {
      error("expected plan name");
      return false;
    }
    PlanDecl Decl;
    Decl.Loc = loc(peek());
    Decl.Name = Ctx.symbol(text(next()));
    if (!accept(Keyword::For)) {
      error("expected 'for' after plan name");
      return false;
    }
    if (!peek().is(TokenKind::Ident)) {
      error("expected client name");
      return false;
    }
    Decl.Client = Ctx.symbol(text(next()));
    if (!expect(TokenKind::LBrace, "to open plan body"))
      return false;
    while (!accept(TokenKind::RBrace)) {
      if (atEof()) {
        error("unterminated plan body");
        return false;
      }
      if (!peek().is(TokenKind::Number)) {
        error("expected request id in plan binding");
        return false;
      }
      RequestId R = static_cast<RequestId>(next().number());
      if (!expect(TokenKind::Arrow, "in plan binding"))
        return false;
      if (!peek().is(TokenKind::Ident)) {
        error("expected service location in plan binding");
        return false;
      }
      if (Decl.Pi.covers(R)) {
        // Plan::bind refuses silent replacement; a twice-bound request in
        // a declaration is almost certainly a typo, so reject it loudly
        // instead of keeping whichever line came last.
        error("request " + std::to_string(R) +
              " is already bound in this plan");
        return false;
      }
      Decl.Pi.bind(R, Ctx.symbol(text(next())));
      if (!expect(TokenKind::Semi, "after plan binding"))
        return false;
    }
    File.Plans.push_back(std::move(Decl));
    return true;
  }

  HistContext &Ctx;
  lambda::LambdaContext Lambda;
};

} // namespace

std::optional<SusFile> sus::syntax::parseSusFile(HistContext &Ctx,
                                                 std::string_view Buffer,
                                                 DiagnosticEngine &Diags,
                                                 std::string_view FileName) {
  static metrics::TimeAccount &Account =
      metrics::timeAccount("syntax.parse_ns");
  metrics::TimeAccountScope Timed(Account);
  trace::Span Span("parse", "pipeline");
  Span.count("bytes", static_cast<int64_t>(Buffer.size()));
  TokenBuffer Tokens = tokenize(Buffer, Diags, FileName);
  if (Diags.hasErrors())
    return std::nullopt;
  // Size the intern tables once instead of rehashing them as a large file
  // fills them. The ratios are those of the generated 10k-service
  // repositories (about 5 tokens per node and 7 per distinct name); a
  // wrong guess costs a regrowth or idle slots, never a different result.
  Ctx.reserve(Ctx.numNodes() + Tokens.size() / 5);
  Ctx.interner().reserve(Ctx.interner().size() + Tokens.size() / 7);
  FileParser P(Tokens, Ctx, Diags);
  std::optional<SusFile> File = P.parse();
  if (Diags.hasErrors())
    return std::nullopt;
  return File;
}
