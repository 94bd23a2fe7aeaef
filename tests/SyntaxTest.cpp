//===- tests/SyntaxTest.cpp - lexer/parser tests --------------------------===//

#include "core/HotelExample.h"
#include "hist/Printer.h"
#include "hist/WellFormed.h"
#include "contract/Compliance.h"
#include "hist/Bisim.h"
#include "lambda/TypeEffect.h"
#include "plan/RequestExtract.h"
#include "policy/Compile.h"
#include "syntax/LambdaParser.h"
#include "syntax/FileParser.h"
#include "syntax/HistParser.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <sstream>

using namespace sus;
using namespace sus::hist;
using namespace sus::syntax;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LexerTest, TokenizesPunctuationAndIdents) {
  DiagnosticEngine Diags;
  auto Tokens = tokenize("foo ( ) { } [ ] ; : , . ? ! % @ * + <+> -> "
                         "< <= > >= == != 42 -7",
                         Diags);
  EXPECT_FALSE(Diags.hasErrors());
  ASSERT_GE(Tokens.size(), 2u);
  EXPECT_TRUE(Tokens.text(Tokens.front()) == "foo");
  EXPECT_TRUE(Tokens.back().is(TokenKind::Eof));
  // Count specific kinds.
  unsigned Numbers = 0;
  for (const Token &T : Tokens)
    if (T.is(TokenKind::Number))
      ++Numbers;
  EXPECT_EQ(Numbers, 2u);
}

TEST(LexerTest, NegativeNumbers) {
  DiagnosticEngine Diags;
  auto Tokens = tokenize("-12", Diags);
  ASSERT_EQ(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[0].number(), -12);
}

TEST(LexerTest, CommentsAreSkipped) {
  DiagnosticEngine Diags;
  auto Tokens = tokenize("a // comment + ; {\n# another\nb", Diags);
  EXPECT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_TRUE(Tokens.text(Tokens[0]) == "a");
  EXPECT_TRUE(Tokens.text(Tokens[1]) == "b");
}

TEST(LexerTest, TracksLineAndColumn) {
  DiagnosticEngine Diags;
  auto Tokens = tokenize("a\n  b", Diags);
  EXPECT_EQ(Tokens.loc(Tokens[0]).Line, 1u);
  EXPECT_EQ(Tokens.loc(Tokens[1]).Line, 2u);
  EXPECT_EQ(Tokens.loc(Tokens[1]).Col, 3u);
}

TEST(LexerTest, StrayCharacterIsReported) {
  DiagnosticEngine Diags;
  tokenize("a $ b", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, PartialMultiCharOperatorsDecompose) {
  DiagnosticEngine Diags;
  // "<+" without ">" is '<' then '+'; "a!=b" is ident, '!=', ident.
  auto T1 = tokenize("<+", Diags);
  ASSERT_EQ(T1.size(), 3u);
  EXPECT_TRUE(T1[0].is(TokenKind::Lt));
  EXPECT_TRUE(T1[1].is(TokenKind::Plus));

  auto T2 = tokenize("a!=b", Diags);
  ASSERT_EQ(T2.size(), 4u);
  EXPECT_TRUE(T2[1].is(TokenKind::Ne));
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(LexerTest, LoneMinusIsStray) {
  DiagnosticEngine Diags;
  tokenize("a - b", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, Int64BoundaryLiteralsScanExactly) {
  DiagnosticEngine Diags;
  auto Max = tokenize("9223372036854775807", Diags);
  ASSERT_EQ(Max.size(), 2u);
  EXPECT_EQ(Max[0].number(), std::numeric_limits<int64_t>::max());
  auto Min = tokenize("-9223372036854775807", Diags);
  ASSERT_EQ(Min.size(), 2u);
  EXPECT_EQ(Min[0].number(), -std::numeric_limits<int64_t>::max());
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(LexerTest, OverflowingLiteralIsDiagnosedNotWrapped) {
  // Regression: the scan used to accumulate N = N*10 + digit unchecked —
  // signed-overflow UB on anything past INT64_MAX.
  for (const char *Src :
       {"9223372036854775808", "99999999999999999999999999999999999999"}) {
    DiagnosticEngine Diags;
    auto Tokens = tokenize(Src, Diags);
    EXPECT_TRUE(Diags.hasErrors()) << Src;
    // The bad literal is dropped, not emitted with a wrapped value.
    ASSERT_EQ(Tokens.size(), 1u) << Src;
    EXPECT_TRUE(Tokens[0].is(TokenKind::Eof));
    EXPECT_NE(Diags.diagnostics().front().Message.find(
                  "number literal out of range"),
              std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Expression parser
//===----------------------------------------------------------------------===//

class HistParserTest : public ::testing::Test {
protected:
  HistContext Ctx;

  const Expr *parse(std::string_view Src) {
    DiagnosticEngine Diags;
    const Expr *E = parseHistExpr(Ctx, Src, Diags);
    if (!E) {
      std::ostringstream OS;
      Diags.print(OS);
      ADD_FAILURE() << "parse failed for '" << Src << "':\n" << OS.str();
    }
    return E;
  }

  bool fails(std::string_view Src) {
    DiagnosticEngine Diags;
    return parseHistExpr(Ctx, Src, Diags) == nullptr;
  }
};

TEST_F(HistParserTest, ParsesAtoms) {
  EXPECT_EQ(parse("eps"), Ctx.empty());
  EXPECT_EQ(parse("%sgn(s1)"), Ctx.event("sgn", "s1"));
  EXPECT_EQ(parse("%p(45)"), Ctx.event("p", 45));
  EXPECT_EQ(parse("%tick"), Ctx.event("tick"));
}

TEST_F(HistParserTest, ParsesPrefixAndSeq) {
  EXPECT_EQ(parse("a! . b?"),
            Ctx.send("a", Ctx.receive("b", Ctx.empty())));
  EXPECT_EQ(parse("%a; %b; %c"),
            Ctx.seq({Ctx.event("a"), Ctx.event("b"), Ctx.event("c")}));
}

TEST_F(HistParserTest, ParsesChoices) {
  const Expr *Ext = parse("CoBo? . Pay! + NoAv?");
  EXPECT_EQ(Ext, Ctx.extChoice({
                     {CommAction::input(Ctx.symbol("CoBo")),
                      Ctx.send("Pay", Ctx.empty())},
                     {CommAction::input(Ctx.symbol("NoAv")), Ctx.empty()},
                 }));
  const Expr *Int = parse("Bok! <+> UnA!");
  EXPECT_EQ(Int->kind(), ExprKind::IntChoice);
}

TEST_F(HistParserTest, ChoiceDistributesTrailingSequence) {
  // (a? . %x); %y + b? == a?.(%x;%y) + b?.
  const Expr *E = parse("(a? . %x); %y + b?");
  const Expr *Expected = Ctx.extChoice({
      {CommAction::input(Ctx.symbol("a")),
       Ctx.seq(Ctx.event("x"), Ctx.event("y"))},
      {CommAction::input(Ctx.symbol("b")), Ctx.empty()},
  });
  EXPECT_EQ(E, Expected);
}

TEST_F(HistParserTest, RejectsMixedChoices) {
  EXPECT_TRUE(fails("a? <+> b?"));
  EXPECT_TRUE(fails("a! + b!"));
  EXPECT_TRUE(fails("a? + b!"));
}

TEST_F(HistParserTest, RejectsUnguardedChoiceOperand) {
  EXPECT_TRUE(fails("%e + a?"));
  EXPECT_TRUE(fails("eps + a?"));
}

TEST_F(HistParserTest, ParsesMu) {
  EXPECT_EQ(parse("mu h . a! . h"),
            Ctx.mu("h", Ctx.send("a", Ctx.var("h"))));
}

TEST_F(HistParserTest, ParsesRequestAndFraming) {
  const Expr *R = parse("open 1 @ phi({s1},45,100) { Req! }");
  ASSERT_EQ(R->kind(), ExprKind::Request);
  const auto *Req = cast<RequestExpr>(R);
  EXPECT_EQ(Req->request(), 1u);
  EXPECT_EQ(Req->policy().Args.size(), 3u);

  const Expr *F = parse("phi(1)[ %e ]");
  EXPECT_EQ(F->kind(), ExprKind::Framing);

  const Expr *Trivial = parse("open 2 { a! }");
  EXPECT_TRUE(cast<RequestExpr>(Trivial)->policy().isTrivial());
}

TEST_F(HistParserTest, ParsesMarkers) {
  EXPECT_EQ(parse("close 3")->kind(), ExprKind::CloseMark);
  EXPECT_EQ(parse("fopen phi")->kind(), ExprKind::FrameOpen);
  EXPECT_EQ(parse("fclose phi")->kind(), ExprKind::FrameClose);
}

TEST_F(HistParserTest, RejectsTrailingInput) {
  EXPECT_TRUE(fails("eps eps"));
  EXPECT_TRUE(fails("%a %b"));
}

TEST_F(HistParserTest, PolicyRefSetsAreCanonicalized) {
  const Expr *A = parse("open 1 @ phi({s2,s1},1,2) { a! }");
  const Expr *B = parse("open 1 @ phi({s1,s2},1,2) { a! }");
  EXPECT_EQ(A, B);
}

//===----------------------------------------------------------------------===//
// Print/parse round-trip (property over a family of expressions)
//===----------------------------------------------------------------------===//

class RoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripTest, PrintThenParseIsIdentity) {
  HistContext Ctx;
  core::HotelExample Ex = core::makeHotelExample(Ctx);
  std::vector<const Expr *> Family = {
      Ctx.empty(),
      Ctx.event("sgn", "s1"),
      Ctx.event("p", 45),
      Ex.C1,
      Ex.C2,
      Ex.Br,
      Ex.S1,
      Ex.S2,
      Ex.S3,
      Ex.S4,
      Ctx.mu("h", Ctx.send("a", Ctx.seq(Ctx.event("e"), Ctx.var("h")))),
      Ctx.seq(Ctx.framing(Ex.Phi1, Ctx.event("x")), Ctx.event("y")),
      Ctx.request(9, Ex.Phi2,
                  Ctx.send("a", Ctx.extChoice(
                                    {{CommAction::input(Ctx.symbol("u")),
                                      Ctx.empty()},
                                     {CommAction::input(Ctx.symbol("v")),
                                      Ctx.event("w", 3)}}))),
      Ctx.seq(Ctx.closeMark(4, Ex.Phi1), Ctx.frameClose(Ex.Phi1)),
  };
  int I = GetParam();
  ASSERT_LT(static_cast<size_t>(I), Family.size());
  const Expr *E = Family[I];
  std::string Printed = print(Ctx, E);
  DiagnosticEngine Diags;
  const Expr *Reparsed = parseHistExpr(Ctx, Printed, Diags);
  std::ostringstream OS;
  Diags.print(OS);
  ASSERT_NE(Reparsed, nullptr) << "printed: " << Printed << "\n" << OS.str();
  EXPECT_EQ(Reparsed, E) << "printed: " << Printed << "\nreparsed: "
                         << print(Ctx, Reparsed);
}

INSTANTIATE_TEST_SUITE_P(Family, RoundTripTest, ::testing::Range(0, 14));

//===----------------------------------------------------------------------===//
// Random-expression round-trip property
//===----------------------------------------------------------------------===//

/// A random closed, well-formed history expression.
const Expr *randomExpr(HistContext &Ctx, std::mt19937 &Rng, unsigned Depth,
                       unsigned &NextRequest) {
  auto Chan = [&](unsigned I) { return "ch" + std::to_string(I % 4); };
  auto Phi = [&](unsigned I) {
    PolicyRef Ref;
    Ref.Name = Ctx.symbol("phi" + std::to_string(I % 2));
    if (Rng() % 2)
      Ref.Args.push_back({Value::integer(static_cast<int64_t>(Rng() % 10))});
    return Ref;
  };
  if (Depth == 0) {
    switch (Rng() % 3) {
    case 0:
      return Ctx.empty();
    case 1:
      return Ctx.event("ev" + std::to_string(Rng() % 3));
    default:
      return Ctx.event("ev", static_cast<int64_t>(Rng() % 100));
    }
  }
  switch (Rng() % 7) {
  case 0:
    return Ctx.seq(randomExpr(Ctx, Rng, Depth - 1, NextRequest),
                   randomExpr(Ctx, Rng, Depth - 1, NextRequest));
  case 1: {
    std::vector<ChoiceBranch> Branches;
    unsigned N = 1 + Rng() % 3;
    for (unsigned I = 0; I < N; ++I)
      Branches.push_back({CommAction::input(Ctx.symbol(Chan(I))),
                          randomExpr(Ctx, Rng, Depth - 1, NextRequest)});
    return Ctx.extChoice(std::move(Branches));
  }
  case 2: {
    std::vector<ChoiceBranch> Branches;
    unsigned N = 1 + Rng() % 3;
    for (unsigned I = 0; I < N; ++I)
      Branches.push_back({CommAction::output(Ctx.symbol(Chan(I))),
                          randomExpr(Ctx, Rng, Depth - 1, NextRequest)});
    return Ctx.intChoice(std::move(Branches));
  }
  case 3:
    return Ctx.framing(Phi(Rng()),
                       randomExpr(Ctx, Rng, Depth - 1, NextRequest));
  case 4:
    return Ctx.request(NextRequest++, Phi(Rng()),
                       randomExpr(Ctx, Rng, Depth - 1, NextRequest));
  case 5: {
    // µh. guard.(h | tail): guarded, tail-recursive by construction.
    const Expr *Tail =
        Rng() % 2 ? Ctx.var("h")
                  : randomExpr(Ctx, Rng, Depth - 1, NextRequest);
    CommAction Guard = Rng() % 2 ? CommAction::input(Ctx.symbol(Chan(Rng())))
                                 : CommAction::output(Ctx.symbol(Chan(Rng())));
    return Ctx.mu("h", Ctx.prefix(Guard, Tail));
  }
  default:
    return randomExpr(Ctx, Rng, Depth - 1, NextRequest);
  }
}

class RandomExprTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomExprTest, PrintParseRoundTrips) {
  HistContext Ctx;
  std::mt19937 Rng(GetParam());
  unsigned NextRequest = 1;
  const Expr *E = randomExpr(Ctx, Rng, 5, NextRequest);
  std::string Printed = print(Ctx, E);
  DiagnosticEngine Diags;
  const Expr *Reparsed = parseHistExpr(Ctx, Printed, Diags);
  std::ostringstream OS;
  Diags.print(OS);
  ASSERT_NE(Reparsed, nullptr) << Printed << "\n" << OS.str();
  EXPECT_EQ(Reparsed, E) << Printed;
}

TEST_P(RandomExprTest, RandomExprsAreWellFormed) {
  HistContext Ctx;
  std::mt19937 Rng(GetParam() + 10000);
  unsigned NextRequest = 1;
  const Expr *E = randomExpr(Ctx, Rng, 5, NextRequest);
  EXPECT_TRUE(Ctx.isClosed(E));
  EXPECT_TRUE(hist::isWellFormed(Ctx, E)) << print(Ctx, E);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExprTest, ::testing::Range(0u, 25u));

//===----------------------------------------------------------------------===//
// Robustness: random garbage must never crash a parser
//===----------------------------------------------------------------------===//

class ParserFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParserFuzzTest, GarbageInputIsHandledGracefully) {
  std::mt19937 Rng(GetParam());
  // A soup biased toward the DSL's own tokens.
  const std::vector<std::string> Pieces = {
      "open",  "close", "mu",    "policy", "service", "client", "plan",
      "{",     "}",     "(",     ")",      "[",       "]",      ";",
      ".",     "?",     "!",     "+",      "<+>",     "->",     "%",
      "@",     "*",     "when",  "in",     "not",     "and",    "eps",
      "x",     "42",    "-7",    ",",      ":",       "rec",    "jump",
      "snd",   "rcv",   "req",   "frame",  "select",  "branch", "fun",
      "if",    "then",  "else",  "unit",   "$",       "==",     "<=",
  };
  for (int Round = 0; Round < 20; ++Round) {
    std::string Input;
    unsigned Len = Rng() % 30;
    for (unsigned I = 0; I < Len; ++I) {
      Input += Pieces[Rng() % Pieces.size()];
      Input += " ";
    }
    // None of these may crash; errors are fine.
    {
      HistContext Ctx;
      DiagnosticEngine Diags;
      const Expr *E = parseHistExpr(Ctx, Input, Diags);
      if (!E) {
        EXPECT_TRUE(Diags.hasErrors()) << Input;
      }
    }
    {
      HistContext Ctx;
      lambda::LambdaContext L(Ctx);
      DiagnosticEngine Diags;
      (void)parseLambdaTerm(L, Input, Diags);
    }
    {
      HistContext Ctx;
      DiagnosticEngine Diags;
      (void)parseSusFile(Ctx, Input, Diags);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(0u, 10u));

//===----------------------------------------------------------------------===//
// File parser
//===----------------------------------------------------------------------===//

const char *HotelSus = R"(
// The paper's Fig. 1 policy.
policy phi(bl: set, p: int, t: int) {
  start q1;
  offending q6;
  q1 -> q2 on sgn(x) when x not in bl;
  q1 -> q6 on sgn(x) when x in bl;
  q2 -> q3 on p(y) when y <= p;
  q2 -> q4 on p(y) when y > p;
  q4 -> q5 on ta(z) when z >= t;
  q4 -> q6 on ta(z) when z < t;
  q3 -> q3 on *;
  q5 -> q5 on *;
  q6 -> q6 on *;
}

service br {
  Req? . (open 3 { IdC! . (Bok? + UnA?) }; (CoBo! . Pay? <+> NoAv!))
}
service s1 { %sgn(s1); %p(45); %ta(80); IdC? . (Bok! <+> UnA!) }
service s3 { %sgn(s3); %p(90); %ta(100); IdC? . (Bok! <+> UnA!) }

client c1 {
  open 1 @ phi({s1},45,100) { Req! . (CoBo? . Pay! + NoAv?) }
}

plan pi1 for c1 { 1 -> br; 3 -> s3; }
)";

TEST(FileParserTest, ParsesTheHotelFile) {
  HistContext Ctx;
  DiagnosticEngine Diags;
  auto File = parseSusFile(Ctx, HotelSus, Diags);
  std::ostringstream OS;
  Diags.print(OS);
  ASSERT_TRUE(File.has_value()) << OS.str();

  EXPECT_EQ(File->Repo.size(), 3u);
  EXPECT_EQ(File->Clients.size(), 1u);
  EXPECT_EQ(File->Plans.size(), 1u);
  EXPECT_NE(File->Registry.find(Ctx.symbol("phi")), nullptr);

  const syntax::PlanDecl *Pi1 = File->findPlan(Ctx.symbol("pi1"));
  ASSERT_NE(Pi1, nullptr);
  EXPECT_EQ(*Pi1->Pi.lookup(1), Ctx.symbol("br"));
  EXPECT_EQ(*Pi1->Pi.lookup(3), Ctx.symbol("s3"));
}

TEST(FileParserTest, ParsedPolicyMatchesPrelude) {
  // The parsed phi must give the same verdicts as the hand-built Fig. 1
  // automaton on characteristic traces.
  HistContext Ctx;
  DiagnosticEngine Diags;
  auto File = parseSusFile(Ctx, HotelSus, Diags);
  ASSERT_TRUE(File.has_value());

  core::HotelExample Ex = core::makeHotelExample(Ctx);
  auto ParsedInst =
      File->Registry.instantiate(Ex.Phi1, Ctx.interner(), &Diags);
  auto BuiltInst =
      Ex.Registry.instantiate(Ex.Phi1, Ctx.interner(), &Diags);
  ASSERT_TRUE(ParsedInst && BuiltInst);

  auto Ev = [&](std::string_view N, Value V) {
    return Event{Ctx.symbol(N), V};
  };
  std::vector<std::vector<Event>> Traces = {
      {Ev("sgn", Value::name(Ctx.symbol("s1")))},
      {Ev("sgn", Value::name(Ctx.symbol("s3"))), Ev("p", Value::integer(90)),
       Ev("ta", Value::integer(100))},
      {Ev("sgn", Value::name(Ctx.symbol("s4"))), Ev("p", Value::integer(50)),
       Ev("ta", Value::integer(90))},
      {Ev("sgn", Value::name(Ctx.symbol("s2"))), Ev("p", Value::integer(10)),
       Ev("ta", Value::integer(0))},
  };
  for (const auto &Trace : Traces)
    EXPECT_EQ(policy::respects(Trace, *ParsedInst),
              policy::respects(Trace, *BuiltInst));
}

TEST(FileParserTest, ParsedPolicyExactlyEquivalentToPrelude) {
  // Stronger than trace sampling: compile both automata over the whole
  // event universe of the example and check DFA language equivalence.
  HistContext Ctx;
  DiagnosticEngine Diags;
  auto File = parseSusFile(Ctx, HotelSus, Diags);
  ASSERT_TRUE(File.has_value());
  core::HotelExample Ex = core::makeHotelExample(Ctx);

  auto Parsed = File->Registry.instantiate(Ex.Phi1, Ctx.interner());
  auto Built = Ex.Registry.instantiate(Ex.Phi1, Ctx.interner());
  ASSERT_TRUE(Parsed && Built);

  std::vector<hist::Event> Universe = policy::eventUniverse(
      {Ex.S1, Ex.S2, Ex.S3, Ex.S4});
  EXPECT_FALSE(Universe.empty());
  EXPECT_TRUE(policy::equivalentOn(*Parsed, *Built, Universe));
}

TEST(FileParserTest, ParsedClientMatchesFixture) {
  HistContext Ctx;
  DiagnosticEngine Diags;
  auto File = parseSusFile(Ctx, HotelSus, Diags);
  ASSERT_TRUE(File.has_value());
  core::HotelExample Ex = core::makeHotelExample(Ctx);
  const Expr *C1 = File->findClient(Ctx.symbol("c1"));
  ASSERT_NE(C1, nullptr);
  EXPECT_EQ(C1, Ex.C1); // Same hash-consed node.
  EXPECT_EQ(File->Repo.find(Ctx.symbol("br")), Ex.Br);
  EXPECT_EQ(File->Repo.find(Ctx.symbol("s3")), Ex.S3);
}

TEST(FileParserTest, RejectsIllFormedService) {
  HistContext Ctx;
  DiagnosticEngine Diags;
  auto File = parseSusFile(Ctx, "service bad { mu h . h }", Diags);
  EXPECT_FALSE(File.has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(FileParserTest, RejectsFreeVariables) {
  HistContext Ctx;
  DiagnosticEngine Diags;
  auto File = parseSusFile(Ctx, "service bad { a! . k }", Diags);
  EXPECT_FALSE(File.has_value());
}

TEST(FileParserTest, RejectsArityMismatchedGuard) {
  HistContext Ctx;
  DiagnosticEngine Diags;
  auto File = parseSusFile(
      Ctx, "policy p() { q0 -> q0 on e(x) when x in nosuch; }", Diags);
  EXPECT_FALSE(File.has_value());
}

TEST(FileParserTest, RejectsGuardVarMismatch) {
  HistContext Ctx;
  DiagnosticEngine Diags;
  auto File = parseSusFile(
      Ctx, "policy p(s: set) { q0 -> q0 on e(x) when y in s; }", Diags);
  EXPECT_FALSE(File.has_value());
}

//===----------------------------------------------------------------------===//
// λ term parser
//===----------------------------------------------------------------------===//

class LambdaParserTest : public ::testing::Test {
protected:
  LambdaParserTest() : L(Ctx) {}

  const lambda::Term *parse(std::string_view Src) {
    DiagnosticEngine Diags;
    const lambda::Term *T = parseLambdaTerm(L, Src, Diags);
    if (!T) {
      std::ostringstream OS;
      Diags.print(OS);
      ADD_FAILURE() << "parse failed for '" << Src << "':\n" << OS.str();
    }
    return T;
  }

  bool fails(std::string_view Src) {
    DiagnosticEngine Diags;
    return parseLambdaTerm(L, Src, Diags) == nullptr;
  }

  /// Parses and effect-extracts in one go.
  const Expr *effectOf(std::string_view Src) {
    const lambda::Term *T = parse(Src);
    if (!T)
      return nullptr;
    DiagnosticEngine Diags;
    lambda::EffectSystem ES(L, Diags);
    auto E = ES.inferServiceEffect(T);
    if (!E) {
      std::ostringstream OS;
      Diags.print(OS);
      ADD_FAILURE() << "effect extraction failed for '" << Src << "':\n"
                    << OS.str();
      return nullptr;
    }
    return *E;
  }

  HistContext Ctx;
  lambda::LambdaContext L;
};

TEST_F(LambdaParserTest, ParsesAtoms) {
  EXPECT_EQ(parse("unit")->kind(), lambda::TermKind::Unit);
  EXPECT_EQ(parse("true")->kind(), lambda::TermKind::BoolLit);
  EXPECT_EQ(parse("%sgn(s1)")->kind(), lambda::TermKind::Event);
  EXPECT_EQ(parse("snd Ping")->kind(), lambda::TermKind::Send);
  EXPECT_EQ(parse("rcv Pong")->kind(), lambda::TermKind::Recv);
}

TEST_F(LambdaParserTest, ParsesSeqAndApplication) {
  const lambda::Term *T = parse("snd a; rcv b");
  EXPECT_EQ(T->kind(), lambda::TermKind::Seq);
  const lambda::Term *App = parse("(fun (x: unit) . %e) unit");
  EXPECT_EQ(App->kind(), lambda::TermKind::App);
}

TEST_F(LambdaParserTest, ParsesControlForms) {
  EXPECT_EQ(parse("if true then %a else %a")->kind(),
            lambda::TermKind::If);
  EXPECT_EQ(parse("select { a -> unit, b -> unit }")->kind(),
            lambda::TermKind::Select);
  EXPECT_EQ(parse("branch { a -> unit }")->kind(),
            lambda::TermKind::Branch);
  EXPECT_EQ(parse("rec h { snd a; jump h }")->kind(),
            lambda::TermKind::Rec);
  EXPECT_EQ(parse("req 3 { snd IdC }")->kind(),
            lambda::TermKind::Request);
  EXPECT_EQ(parse("frame phi(1) { %e }")->kind(),
            lambda::TermKind::Framing);
}

TEST_F(LambdaParserTest, RejectsMalformedTerms) {
  EXPECT_TRUE(fails("fun x . unit"));    // Missing parens/annotation.
  EXPECT_TRUE(fails("if true then unit")); // Missing else.
  EXPECT_TRUE(fails("select { }"));
  EXPECT_TRUE(fails("jump"));
  EXPECT_TRUE(fails("rec { unit }"));
  EXPECT_TRUE(fails("unit unit unit trailing +"));
}

TEST_F(LambdaParserTest, ExtractedEffectMatchesHandWritten) {
  const Expr *E = effectOf("%sgn(s3); rcv IdC; select { Bok -> unit, "
                           "UnA -> unit }");
  ASSERT_NE(E, nullptr);
  const Expr *Hand = Ctx.seq(
      {Ctx.event("sgn", "s3"), Ctx.receive("IdC", Ctx.empty()),
       Ctx.intChoice({{CommAction::output(Ctx.symbol("Bok")), Ctx.empty()},
                      {CommAction::output(Ctx.symbol("UnA")),
                       Ctx.empty()}})});
  EXPECT_EQ(E, Hand);
}

TEST_F(LambdaParserTest, ApplicationReleasesLatentEffectFromSurface) {
  const Expr *E = effectOf("(fun (x: unit) . %late) (%early; unit)");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E, Ctx.seq(Ctx.event("early"), Ctx.event("late")));
}

//===----------------------------------------------------------------------===//
// program declarations in .sus files
//===----------------------------------------------------------------------===//

TEST(FileParserTest, ProgramDeclarationsAreEffectExtracted) {
  const char *Src = R"(
    program service echo {
      rec h { rcv Ping; snd Pong; jump h }
    }
    program client user {
      req 1 { snd Ping; rcv Pong }
    }
    plan p for user { 1 -> echo; }
  )";
  HistContext Ctx;
  DiagnosticEngine Diags;
  auto File = parseSusFile(Ctx, Src, Diags);
  std::ostringstream OS;
  Diags.print(OS);
  ASSERT_TRUE(File.has_value()) << OS.str();

  const Expr *Echo = File->Repo.find(Ctx.symbol("echo"));
  ASSERT_NE(Echo, nullptr);
  EXPECT_TRUE(bisimilar(
      Ctx, Echo,
      Ctx.mu("h", Ctx.receive("Ping", Ctx.send("Pong", Ctx.var("h"))))));

  const Expr *User = File->findClient(Ctx.symbol("user"));
  ASSERT_NE(User, nullptr);
  // The λ client and the mirror service are compliant.
  auto Sites = plan::extractRequests(User);
  ASSERT_EQ(Sites.size(), 1u);
  EXPECT_TRUE(
      contract::checkServiceCompliance(Ctx, Sites[0].body(), Echo)
          .Compliant);
}

TEST(FileParserTest, ProgramTypeErrorsAreRejected) {
  HistContext Ctx;
  DiagnosticEngine Diags;
  // if branches with different effects: the effect system must reject.
  auto File = parseSusFile(
      Ctx, "program client bad { if true then %a else %b }", Diags);
  EXPECT_FALSE(File.has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(FileParserTest, ProgramNonTailRecursionRejected) {
  HistContext Ctx;
  DiagnosticEngine Diags;
  auto File = parseSusFile(
      Ctx, "program client bad { rec h { snd a; jump h; snd b } }", Diags);
  EXPECT_FALSE(File.has_value());
}

TEST(FileParserTest, RejectsDuplicatePlanBinding) {
  // A plan re-binding the same request id would hit Plan::bind's fresh-id
  // precondition; the parser must reject it as a proper diagnostic first.
  HistContext Ctx;
  DiagnosticEngine Diags;
  auto File = parseSusFile(Ctx,
                           "service s { a? }\n"
                           "client c { open 1 { a! } }\n"
                           "plan p for c { 1 -> s; 1 -> s; }",
                           Diags);
  EXPECT_FALSE(File.has_value());
  ASSERT_TRUE(Diags.hasErrors());
  std::ostringstream OS;
  Diags.print(OS);
  EXPECT_NE(OS.str().find("already bound"), std::string::npos) << OS.str();
}

TEST(FileParserTest, ReportsUsefulLocations) {
  HistContext Ctx;
  DiagnosticEngine Diags;
  parseSusFile(Ctx, "client c {\n  a! .\n}", Diags);
  ASSERT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.diagnostics().front().Loc.Line, 3u);
}

//===----------------------------------------------------------------------===//
// Recursion depth guard (regression: deeply nested input used to ride the
// native stack into a stack-overflow crash; now every parser reports a
// clean "nesting too deep" diagnostic past ParserBase::MaxDepth).
//===----------------------------------------------------------------------===//

std::string nested(const std::string &Core, unsigned Levels) {
  std::string Out;
  for (unsigned I = 0; I < Levels; ++I)
    Out += "(";
  Out += Core;
  for (unsigned I = 0; I < Levels; ++I)
    Out += ")";
  return Out;
}

bool diagsSayTooDeep(const DiagnosticEngine &Diags) {
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Message.find("nesting too deep") != std::string::npos)
      return true;
  return false;
}

TEST(DepthGuardTest, HistParserUnderLimitParses) {
  HistContext Ctx;
  DiagnosticEngine Diags;
  // Each paren level costs two depth tickets (expr + prefix), so 100
  // levels sits comfortably under MaxDepth = 256.
  EXPECT_NE(parseHistExpr(Ctx, nested("eps", 100), Diags), nullptr);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(DepthGuardTest, HistParserOverLimitFailsCleanly) {
  HistContext Ctx;
  for (unsigned Levels : {400u, 100000u}) {
    DiagnosticEngine Diags;
    EXPECT_EQ(parseHistExpr(Ctx, nested("eps", Levels), Diags), nullptr);
    EXPECT_TRUE(diagsSayTooDeep(Diags)) << Levels << " levels";
  }
}

TEST(DepthGuardTest, PrefixChainsHitTheSameLimit) {
  HistContext Ctx;
  DiagnosticEngine DiagsOk;
  std::string Ok;
  for (unsigned I = 0; I < 120; ++I)
    Ok += "a?.";
  EXPECT_NE(parseHistExpr(Ctx, Ok + "eps", DiagsOk), nullptr);
  EXPECT_FALSE(DiagsOk.hasErrors());

  DiagnosticEngine DiagsDeep;
  std::string Deep;
  for (unsigned I = 0; I < 5000; ++I)
    Deep += "a?.";
  EXPECT_EQ(parseHistExpr(Ctx, Deep + "eps", DiagsDeep), nullptr);
  EXPECT_TRUE(diagsSayTooDeep(DiagsDeep));
}

TEST(DepthGuardTest, LongFlatSpinesAreNotLimited) {
  // Flat ';' chains parse iteratively, and distributing a choice guard
  // over an already-parsed seq spine walks it iteratively too — neither
  // may trip the depth guard nor the native stack.
  HistContext Ctx;
  DiagnosticEngine Diags;
  std::string Spine = "a?.%e";
  for (unsigned I = 0; I < 1500; ++I)
    Spine += "; %e";
  EXPECT_NE(parseHistExpr(Ctx, Spine + " + b?.eps", Diags), nullptr);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(DepthGuardTest, LambdaParserOverLimitFailsCleanly) {
  HistContext Ctx;
  lambda::LambdaContext L(Ctx);
  DiagnosticEngine DiagsOk;
  EXPECT_NE(parseLambdaTerm(L, nested("unit", 100), DiagsOk), nullptr);
  EXPECT_FALSE(DiagsOk.hasErrors());
  DiagnosticEngine DiagsDeep;
  EXPECT_EQ(parseLambdaTerm(L, nested("unit", 600), DiagsDeep), nullptr);
  EXPECT_TRUE(diagsSayTooDeep(DiagsDeep));
}

TEST(DepthGuardTest, FileParserBehaviorsAreGuardedToo) {
  HistContext Ctx;
  DiagnosticEngine Diags;
  auto File =
      parseSusFile(Ctx, "service s { " + nested("eps", 600) + " }", Diags);
  EXPECT_FALSE(File.has_value());
  EXPECT_TRUE(diagsSayTooDeep(Diags));
}

} // namespace
