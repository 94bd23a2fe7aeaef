//===- fuzz/Torture.cpp - Deterministic adversarial parser battery --------===//

#include "fuzz/Differential.h"

#include "hist/HistContext.h"
#include "lambda/LambdaContext.h"
#include "support/Diagnostics.h"
#include "syntax/FileParser.h"
#include "syntax/HistParser.h"
#include "syntax/LambdaParser.h"

#include <random>
#include <string>

using namespace sus;
using namespace sus::fuzz;

namespace {

bool diagsContain(const DiagnosticEngine &Diags, std::string_view Needle) {
  if (Needle.empty())
    return true;
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

enum class Via { Hist, Lambda, File };

bool parseVia(Via V, const std::string &Src, DiagnosticEngine &Diags) {
  hist::HistContext Ctx;
  switch (V) {
  case Via::Hist:
    return syntax::parseHistExpr(Ctx, Src, Diags) != nullptr;
  case Via::Lambda: {
    lambda::LambdaContext L(Ctx);
    return syntax::parseLambdaTerm(L, Src, Diags) != nullptr;
  }
  case Via::File:
    return syntax::parseSusFile(Ctx, Src, Diags).has_value();
  }
  return false;
}

const char *viaName(Via V) {
  switch (V) {
  case Via::Hist:
    return "hist parser";
  case Via::Lambda:
    return "lambda parser";
  case Via::File:
    return "file parser";
  }
  return "?";
}

struct Battery {
  std::vector<Divergence> Out;

  void mustParse(Via V, const std::string &Src, const std::string &What) {
    DiagnosticEngine Diags;
    if (!parseVia(V, Src, Diags))
      Out.push_back({"torture", std::string(viaName(V)) + " rejected " +
                                    What});
  }

  void mustFail(Via V, const std::string &Src, std::string_view Needle,
                const std::string &What) {
    DiagnosticEngine Diags;
    if (parseVia(V, Src, Diags)) {
      Out.push_back({"torture", std::string(viaName(V)) + " accepted " +
                                    What});
      return;
    }
    if (!diagsContain(Diags, Needle))
      Out.push_back({"torture",
                     std::string(viaName(V)) + " rejected " + What +
                         " without the expected \"" + std::string(Needle) +
                         "\" diagnostic"});
  }
};

std::string repeat(const std::string &S, unsigned N) {
  std::string Out;
  Out.reserve(S.size() * N);
  for (unsigned I = 0; I < N; ++I)
    Out += S;
  return Out;
}

std::string parens(const std::string &Core, unsigned N) {
  return repeat("(", N) + Core + repeat(")", N);
}

} // namespace

std::vector<Divergence> sus::fuzz::parserTorture() {
  Battery B;

  // --- Number-literal overflow (the Lexer checked-accumulation fix). ---
  B.mustParse(Via::Hist, "%e(9223372036854775807)",
              "an INT64_MAX event argument");
  B.mustParse(Via::Hist, "%e(-9223372036854775807)",
              "a near-INT64_MIN event argument");
  B.mustFail(Via::Hist, "%e(9223372036854775808)",
             "number literal out of range", "an INT64_MAX+1 literal");
  B.mustFail(Via::Hist, "%e(" + repeat("9", 80) + ")",
             "number literal out of range", "an 80-digit literal");
  B.mustFail(Via::File,
             "policy p(t: int) {\n  start q0;\n  q0 -> q0 on e(x) when x <= " +
                 repeat("9", 40) + ";\n}\nservice s { eps }",
             "number literal out of range",
             "a policy with a 40-digit guard constant");

  // --- Nesting ladders (the ParserBase depth-guard fix). Under the limit
  // they must parse; far over it they must fail with a clean diagnostic
  // instead of overflowing the native stack. ---
  B.mustParse(Via::Hist, parens("eps", 100), "a 100-deep paren ladder");
  B.mustFail(Via::Hist, parens("eps", 400), "nesting too deep",
             "a 400-deep paren ladder");
  B.mustFail(Via::Hist, parens("eps", 100000), "nesting too deep",
             "a 100000-deep paren ladder");
  B.mustParse(Via::Hist, repeat("a?.", 120) + "eps",
              "a 120-long prefix chain");
  B.mustFail(Via::Hist, repeat("a?.", 5000) + "eps", "nesting too deep",
             "a 5000-long prefix chain");
  B.mustParse(Via::Lambda, parens("unit", 100),
              "a 100-deep lambda paren ladder");
  B.mustFail(Via::Lambda, parens("unit", 600), "nesting too deep",
             "a 600-deep lambda paren ladder");
  B.mustFail(Via::File, "service s { " + parens("eps", 600) + " }",
             "nesting too deep", "a service with a 600-deep ladder");
  {
    std::string Opens, Closes;
    for (unsigned I = 1; I <= 300; ++I) {
      Opens += "open " + std::to_string(I) + " { ";
      Closes += " }";
    }
    B.mustFail(Via::File, "client c { " + Opens + "eps" + Closes + " }",
               "nesting too deep", "a client with 300 nested sessions");
  }

  // --- Long flat spines must stay iterative (no depth limit applies):
  // a ';'-chain inside a choice operand walks an arbitrarily long
  // already-parsed seq spine when distributing the guard. ---
  B.mustParse(Via::Hist, "a?.%e" + repeat("; %e", 1500) + " + b?.eps",
              "a choice operand with a 1500-term seq spine");
  B.mustParse(Via::Hist, "%e" + repeat("; %e", 5000),
              "a flat 5000-term sequence");
  B.mustParse(Via::Hist, "%e" + repeat("; %e", 99999),
              "a flat 100000-term sequence");
  B.mustParse(Via::File,
              "service s { %e" + repeat("; %e", 99999) +
                  " }\nclient c { open 1 { eps } }",
              "a service whose body is a flat 100000-term sequence");

  // --- Seeded token soup through all three parsers: any outcome is fine,
  // crashing is not (a crash kills the process; sanitizer legs catch
  // latent UB on the same inputs). ---
  static const char *Vocab[] = {
      "(",    ")",    "{",    "}",     "[",      "]",     ";",    ":",
      ",",    ".",    "?",    "!",     "%",      "@",     "*",    "+",
      "<+>",  "->",   "<=",   ">=",    "==",     "!=",    "<",    ">",
      "mu",   "eps",  "open", "close", "fopen",  "fclose", "policy",
      "service", "client", "plan", "for", "start", "offending", "on",
      "when", "in",   "not",  "fun",   "if",     "then",  "else", "req",
      "frame", "rec", "jump", "snd",   "rcv",    "select", "branch",
      "unit", "true", "false", "x",    "ch0",    "ev0",   "phi0", "42",
      "9999999999999999999999", "-7"};
  std::mt19937_64 Rng(0x5eed5eed);
  for (unsigned Round = 0; Round < 60; ++Round) {
    std::string Soup;
    unsigned Len = 1 + Rng() % 120;
    for (unsigned I = 0; I < Len; ++I) {
      Soup += Vocab[Rng() % (sizeof(Vocab) / sizeof(Vocab[0]))];
      Soup += ' ';
    }
    DiagnosticEngine D1, D2, D3;
    parseVia(Via::Hist, Soup, D1);
    parseVia(Via::Lambda, Soup, D2);
    parseVia(Via::File, Soup, D3);
  }

  return std::move(B.Out);
}
