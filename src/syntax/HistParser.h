//===- syntax/HistParser.h - History-expression parser ----------*- C++ -*-===//
///
/// \file
/// Recursive-descent parser for the history-expression surface syntax
/// emitted by hist::print (see hist/Printer.h for the grammar). Print and
/// parse round-trip to the same hash-consed node.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SYNTAX_HISTPARSER_H
#define SUS_SYNTAX_HISTPARSER_H

#include "hist/HistContext.h"
#include "syntax/ParserBase.h"

#include <optional>

namespace sus {
namespace syntax {

/// Parses one history expression out of a token stream (used standalone
/// and by the .sus file parser).
class HistParser : public ParserBase {
public:
  HistParser(const TokenBuffer &Tokens, hist::HistContext &Ctx,
             DiagnosticEngine &Diags)
      : ParserBase(Tokens, Diags), Ctx(Ctx) {}

  /// expr := 'mu' IDENT '.' expr | choice. Null on error.
  const hist::Expr *parseExpr();

  /// Parses a policy reference IDENT ['(' args ')'].
  std::optional<hist::PolicyRef> parsePolicyRef();

private:
  const hist::Expr *parseChoice();
  const hist::Expr *parseSeq();
  const hist::Expr *parsePrefix();
  const hist::Expr *parsePrimary();
  std::optional<Value> parseValue();

  /// Turns a choice operand into guarded branches, distributing a trailing
  /// sequence into the branch bodies; reports when the operand is not
  /// communication-guarded.
  bool operandBranches(const hist::Expr *E, bool WantInputs,
                       std::vector<hist::ChoiceBranch> &Out);

  hist::HistContext &Ctx;
};

/// Convenience: parses a whole buffer as one expression (must consume all
/// input). Null on error (details in \p Diags).
const hist::Expr *parseHistExpr(hist::HistContext &Ctx,
                                std::string_view Buffer,
                                DiagnosticEngine &Diags);

} // namespace syntax
} // namespace sus

#endif // SUS_SYNTAX_HISTPARSER_H
