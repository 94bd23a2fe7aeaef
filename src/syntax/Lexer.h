//===- syntax/Lexer.h - Tokenizer for the SUS surface syntax ----*- C++ -*-===//
///
/// \file
/// A hand-written lexer for the SUS DSL (history expressions, policy
/// definitions and network declarations). Comments run from `//` or `#` to
/// end of line.
///
/// The whole buffer is tokenized before anything is parsed, into one token
/// array reserved from the buffer size (every token takes at least one
/// byte) and never reallocated. A token is 16 bytes: its kind, a keyword
/// id, its byte offset and either its length or its number value. Nothing
/// else is stored per token:
///   - an identifier's spelling is a view into the buffer (TokenBuffer::text);
///   - a SourceLoc is computed from the offset through a line-start table,
///     built on the first TokenBuffer::loc call, so only diagnostics and
///     the `*Locs` declaration maps pay for line and column.
///
/// Keywords are contextual. An identifier spelled like one of the DSL's
/// keywords still lexes as an Ident token (so `service start {…}` parses)
/// and carries that Keyword id, so the parsers match keywords by id, not by
/// spelling.
///
/// Lexing is deliberately not on demand: every lex error in the file is
/// reported before parsing starts, and parsing then does not run. Lexing
/// lazily would report a parse or well-formedness error ahead of a stray
/// character further down, and change the diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SYNTAX_LEXER_H
#define SUS_SYNTAX_LEXER_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace sus {
namespace syntax {

/// Token kinds of the surface syntax.
enum class TokenKind : uint8_t {
  Eof,
  Ident,    // names (also contextual keywords)
  Number,   // decimal integers, optionally negative
  LParen,   // (
  RParen,   // )
  LBrace,   // {
  RBrace,   // }
  LBracket, // [
  RBracket, // ]
  Semi,     // ;
  Colon,    // :
  Comma,    // ,
  Dot,      // .
  Question, // ?
  Bang,     // !
  Percent,  // %
  At,       // @
  Star,     // *
  Plus,     // +
  OPlus,    // <+>
  Arrow,    // ->
  Lt,       // <
  Le,       // <=
  Gt,       // >
  Ge,       // >=
  EqEq,     // ==
  Ne,       // !=
};

/// The contextual keywords of every SUS parser. An Ident token spelled
/// like one carries its id; all other tokens carry None.
enum class Keyword : uint8_t {
  None,
  // .sus declarations and policies.
  Policy, Service, Client, Program, Plan, For, Set, Int, States, Start,
  Offending, On, When, Not, In, And,
  // History expressions.
  Mu, Eps, Open, Close, FOpen, FClose,
  // λ terms (every one of these is reserved there).
  Unit, Bool, True, False, Fun, If, Then, Else, Snd, Rcv, Select, Branch,
  Req, Frame, Rec, Jump,
};

/// One token: kind, keyword id, byte offset, and the identifier's length
/// or the number's value.
class Token {
public:
  TokenKind kind() const { return Kind; }
  Keyword keyword() const { return Kw; }
  bool is(TokenKind K) const { return Kind == K; }
  /// True for an Ident spelled as keyword \p K.
  bool is(Keyword K) const { return Kw == K; }

  /// Byte offset of the token's first character in the buffer.
  uint32_t offset() const { return Offset; }
  /// Spelling length of an Ident.
  uint32_t length() const { return static_cast<uint32_t>(Payload); }
  /// Value of a Number.
  int64_t number() const { return Payload; }

  static Token make(TokenKind K, uint32_t Offset, Keyword Kw = Keyword::None,
                    int64_t Payload = 0) {
    Token T;
    T.Kind = K;
    T.Kw = Kw;
    T.Offset = Offset;
    T.Payload = Payload;
    return T;
  }

private:
  TokenKind Kind = TokenKind::Eof;
  Keyword Kw = Keyword::None;
  uint32_t Offset = 0;
  int64_t Payload = 0;
};

static_assert(sizeof(Token) == 16, "tokens stay compact");

/// Renders a token kind for diagnostics ("';'", "identifier", ...).
const char *tokenKindName(TokenKind K);

/// The tokens of one buffer, always ending with an Eof token, plus what
/// turns a token back into text and a source location. Views the buffer
/// and the file name, which must outlive it and any diagnostic it makes.
class TokenBuffer {
public:
  size_t size() const { return Tokens.size(); }
  const Token &operator[](size_t I) const { return Tokens[I]; }
  const Token &front() const { return Tokens.front(); }
  const Token &back() const { return Tokens.back(); }
  std::vector<Token>::const_iterator begin() const { return Tokens.begin(); }
  std::vector<Token>::const_iterator end() const { return Tokens.end(); }

  /// The spelling of an Ident token.
  std::string_view text(const Token &T) const {
    return Source.substr(T.offset(), T.length());
  }

  /// The 1-based line and column of \p T (columns count bytes).
  SourceLoc loc(const Token &T) const { return locAt(T.offset()); }

  /// The location of byte \p Offset.
  SourceLoc locAt(uint32_t Offset) const;

private:
  friend TokenBuffer tokenize(std::string_view, DiagnosticEngine &,
                              std::string_view);

  std::string_view Source;
  std::string_view FileName;
  std::vector<Token> Tokens;
  /// Offsets where lines 2, 3, ... begin; filled on the first locAt.
  mutable std::vector<uint32_t> LineStarts;
  mutable bool HaveLineStarts = false;
  mutable uint32_t LastLine = 0; ///< Line index of the last locAt answer.
};

/// Tokenizes a whole buffer. Errors (stray characters, number literals
/// out of range) are reported into \p Diags and skipped. \p FileName, when
/// given, is stamped into every SourceLoc the result makes.
TokenBuffer tokenize(std::string_view Buffer, DiagnosticEngine &Diags,
                     std::string_view FileName = {});

} // namespace syntax
} // namespace sus

#endif // SUS_SYNTAX_LEXER_H
