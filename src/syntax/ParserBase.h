//===- syntax/ParserBase.h - Token cursor shared by parsers -----*- C++ -*-===//
///
/// \file
/// A small token cursor with diagnostics, shared by the history-expression
/// parser and the .sus file parser.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SYNTAX_PARSERBASE_H
#define SUS_SYNTAX_PARSERBASE_H

#include "syntax/Lexer.h"

#include <string>
#include <vector>

namespace sus {
namespace syntax {

/// Cursor over a token buffer with error reporting helpers.
class ParserBase {
public:
  ParserBase(const TokenBuffer &Tokens, DiagnosticEngine &Diags)
      : Tokens(Tokens), Diags(Diags) {}

  const Token &peek(unsigned Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }

  const Token &next() {
    const Token &T = peek();
    if (Pos + 1 < Tokens.size())
      ++Pos;
    return T;
  }

  bool atEof() const { return peek().is(TokenKind::Eof); }

  /// The spelling of an Ident token, and any token's source location.
  std::string_view text(const Token &T) const { return Tokens.text(T); }
  SourceLoc loc(const Token &T) const { return Tokens.loc(T); }

  /// Consumes a token of kind \p K if present.
  bool accept(TokenKind K) {
    if (!peek().is(K))
      return false;
    next();
    return true;
  }

  /// Consumes an identifier spelled as keyword \p K if present.
  bool accept(Keyword K) {
    if (!peek().is(K))
      return false;
    next();
    return true;
  }

  /// Requires a token of kind \p K; reports and returns false otherwise.
  bool expect(TokenKind K, std::string_view What = {}) {
    if (accept(K))
      return true;
    std::string Msg = "expected ";
    Msg += tokenKindName(K);
    if (!What.empty()) {
      Msg += " ";
      Msg += What;
    }
    Msg += ", got ";
    Msg += tokenKindName(peek().kind());
    error(std::move(Msg));
    return false;
  }

  void error(std::string Message) { Diags.error(loc(peek()), Message); }

  DiagnosticEngine &diags() { return Diags; }

  /// Cursor position (for handing off between cooperating parsers over
  /// the same token buffer).
  size_t position() const { return Pos; }
  void setPosition(size_t P) { Pos = P < Tokens.size() ? P : Tokens.size(); }

  /// Maximum recursive-descent nesting. Generous for real programs, small
  /// enough that the parser never rides the native stack to exhaustion on
  /// adversarial input (each level is a handful of frames).
  static constexpr unsigned MaxDepth = 256;

  /// RAII depth ticket for the recursive entry points. Construct one at
  /// the top of every function that can re-enter itself through the token
  /// stream; when it converts to false, the limit was exceeded, a
  /// diagnostic has been reported, and the caller must bail out with its
  /// failure value.
  class DepthGuard {
  public:
    explicit DepthGuard(ParserBase &P) : P(P) {
      Ok = ++P.Depth <= MaxDepth;
      if (!Ok)
        P.error("expression nesting too deep (limit " +
                std::to_string(MaxDepth) + ")");
    }
    ~DepthGuard() { --P.Depth; }
    DepthGuard(const DepthGuard &) = delete;
    DepthGuard &operator=(const DepthGuard &) = delete;
    explicit operator bool() const { return Ok; }

  private:
    ParserBase &P;
    bool Ok;
  };

protected:
  const TokenBuffer &Tokens;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  unsigned Depth = 0;
};

} // namespace syntax
} // namespace sus

#endif // SUS_SYNTAX_PARSERBASE_H
