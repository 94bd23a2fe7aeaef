//===- syntax/LambdaParser.h - λ service-calculus parser --------*- C++ -*-===//
///
/// \file
/// Parser for the λ service calculus (lambda/Term.h), so .sus files can
/// declare behaviours as *programs* whose history expressions are
/// extracted by the type-and-effect system:
///
///   lterm := 'unit' | 'true' | 'false' | IDENT
///          | 'fun' '(' IDENT ':' ltype ')' '.' lterm
///          | 'if' lterm 'then' lterm 'else' lterm
///          | '%' IDENT ['(' value ')']                  (event)
///          | 'snd' IDENT | 'rcv' IDENT                  (one message)
///          | 'select' '{' IDENT '->' lterm (',' …)* '}'
///          | 'branch' '{' IDENT '->' lterm (',' …)* '}'
///          | 'req' NUM ['@' policyref] '{' lterm '}'
///          | 'frame' policyref '{' lterm '}'
///          | 'rec' IDENT '{' lterm '}' | 'jump' IDENT
///          | lterm ';' lterm | lterm lterm (application)
///          | '(' lterm ')'
///   ltype := 'unit' | 'bool'       (first-order parameter annotations)
///
/// Sequencing binds loosest; application is juxtaposition and binds
/// tightest. Higher-order parameter annotations are not expressible in
/// the surface syntax (latent effects would need to be written down);
/// build such terms through the LambdaContext API instead.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SYNTAX_LAMBDAPARSER_H
#define SUS_SYNTAX_LAMBDAPARSER_H

#include "lambda/LambdaContext.h"
#include "syntax/ParserBase.h"

#include <optional>

namespace sus {
namespace syntax {

/// Parses λ terms out of a token stream.
class LambdaParser : public ParserBase {
public:
  LambdaParser(const TokenBuffer &Tokens, lambda::LambdaContext &Ctx,
               DiagnosticEngine &Diags)
      : ParserBase(Tokens, Diags), Ctx(Ctx) {}

  /// Parses one term; null on error.
  const lambda::Term *parseTerm();

private:
  const lambda::Term *parseApp();
  const lambda::Term *parseAtom();
  const lambda::Type *parseType();
  std::optional<hist::PolicyRef> parsePolicyRef();
  std::optional<Value> parseValue();

  /// True if the current token can begin an atom (drives juxtaposition).
  bool startsAtom() const;

  lambda::LambdaContext &Ctx;
};

/// Convenience: parses a whole buffer as one λ term.
const lambda::Term *parseLambdaTerm(lambda::LambdaContext &Ctx,
                                    std::string_view Buffer,
                                    DiagnosticEngine &Diags);

} // namespace syntax
} // namespace sus

#endif // SUS_SYNTAX_LAMBDAPARSER_H
