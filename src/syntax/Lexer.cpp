//===- syntax/Lexer.cpp - Tokenizer for the SUS surface syntax ------------===//

#include "syntax/Lexer.h"

#include "support/Metrics.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

using namespace sus;
using namespace sus::syntax;

const char *sus::syntax::tokenKindName(TokenKind K) {
  switch (K) {
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Ident:
    return "identifier";
  case TokenKind::Number:
    return "number";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Semi:
    return "';'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::Question:
    return "'?'";
  case TokenKind::Bang:
    return "'!'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::At:
    return "'@'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::OPlus:
    return "'<+>'";
  case TokenKind::Arrow:
    return "'->'";
  case TokenKind::Lt:
    return "'<'";
  case TokenKind::Le:
    return "'<='";
  case TokenKind::Gt:
    return "'>'";
  case TokenKind::Ge:
    return "'>='";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::Ne:
    return "'!='";
  }
  return "token";
}

namespace {

/// Character classes, by table lookup rather than the locale-aware <cctype>
/// calls: the surface syntax is ASCII.
enum : uint8_t { Space = 1, IdentStart = 2, IdentCont = 4, Digit = 8 };

constexpr std::array<uint8_t, 256> makeClasses() {
  std::array<uint8_t, 256> T{};
  for (char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    T[static_cast<unsigned char>(C)] = Space;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = IdentStart | IdentCont;
  for (int C = 'A'; C <= 'Z'; ++C)
    T[C] = IdentStart | IdentCont;
  T['_'] = IdentStart | IdentCont;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = IdentCont | Digit;
  return T;
}

constexpr std::array<uint8_t, 256> Classes = makeClasses();

bool is(char C, uint8_t Class) {
  return Classes[static_cast<unsigned char>(C)] & Class;
}

/// The keyword spelled \p S, or None.
Keyword keywordOf(std::string_view S) {
  auto Match = [&](std::initializer_list<std::pair<std::string_view, Keyword>>
                       Candidates) {
    for (const auto &[Text, Kw] : Candidates)
      if (S == Text)
        return Kw;
    return Keyword::None;
  };
  using K = Keyword;
  switch (S[0]) {
  case 'a':
    return Match({{"and", K::And}});
  case 'b':
    return Match({{"bool", K::Bool}, {"branch", K::Branch}});
  case 'c':
    return Match({{"client", K::Client}, {"close", K::Close}});
  case 'e':
    return Match({{"eps", K::Eps}, {"else", K::Else}});
  case 'f':
    return Match({{"for", K::For},
                  {"fopen", K::FOpen},
                  {"fclose", K::FClose},
                  {"false", K::False},
                  {"fun", K::Fun},
                  {"frame", K::Frame}});
  case 'i':
    return Match({{"in", K::In}, {"int", K::Int}, {"if", K::If}});
  case 'j':
    return Match({{"jump", K::Jump}});
  case 'm':
    return Match({{"mu", K::Mu}});
  case 'n':
    return Match({{"not", K::Not}});
  case 'o':
    return Match(
        {{"on", K::On}, {"open", K::Open}, {"offending", K::Offending}});
  case 'p':
    return Match(
        {{"policy", K::Policy}, {"program", K::Program}, {"plan", K::Plan}});
  case 'r':
    return Match({{"rcv", K::Rcv}, {"req", K::Req}, {"rec", K::Rec}});
  case 's':
    return Match({{"service", K::Service},
                  {"set", K::Set},
                  {"states", K::States},
                  {"start", K::Start},
                  {"snd", K::Snd},
                  {"select", K::Select}});
  case 't':
    return Match({{"true", K::True}, {"then", K::Then}});
  case 'u':
    return Match({{"unit", K::Unit}});
  case 'w':
    return Match({{"when", K::When}});
  default:
    return K::None;
  }
}

/// The single-character token starting with \p C, or Eof for none.
constexpr std::array<TokenKind, 256> makePunctuation() {
  std::array<TokenKind, 256> T{};
  T['('] = TokenKind::LParen;
  T[')'] = TokenKind::RParen;
  T['{'] = TokenKind::LBrace;
  T['}'] = TokenKind::RBrace;
  T['['] = TokenKind::LBracket;
  T[']'] = TokenKind::RBracket;
  T[';'] = TokenKind::Semi;
  T[':'] = TokenKind::Colon;
  T[','] = TokenKind::Comma;
  T['.'] = TokenKind::Dot;
  T['?'] = TokenKind::Question;
  T['!'] = TokenKind::Bang;
  T['%'] = TokenKind::Percent;
  T['@'] = TokenKind::At;
  T['*'] = TokenKind::Star;
  T['+'] = TokenKind::Plus;
  T['<'] = TokenKind::Lt;
  T['>'] = TokenKind::Gt;
  return T;
}

constexpr std::array<TokenKind, 256> Punctuation = makePunctuation();

} // namespace

SourceLoc TokenBuffer::locAt(uint32_t Offset) const {
  if (!HaveLineStarts) {
    const char *Begin = Source.data();
    const char *End = Begin + Source.size();
    for (const char *P = Begin;
         P != End &&
         (P = static_cast<const char *>(std::memchr(P, '\n', End - P)));)
      LineStarts.push_back(static_cast<uint32_t>(++P - Begin));
    HaveLineStarts = true;
  }
  // Line index = number of line starts at or before Offset. Parsers ask
  // in source order, so try the line of the previous answer and the next
  // one before searching.
  auto OnLine = [&](uint32_t L) {
    return (L == 0 || LineStarts[L - 1] <= Offset) &&
           (L == LineStarts.size() || Offset < LineStarts[L]);
  };
  uint32_t Line = LastLine;
  if (!OnLine(Line)) {
    if (Line < LineStarts.size() && OnLine(Line + 1))
      ++Line;
    else
      Line = static_cast<uint32_t>(
          std::upper_bound(LineStarts.begin(), LineStarts.end(), Offset) -
          LineStarts.begin());
  }
  LastLine = Line;
  uint32_t Start = Line == 0 ? 0 : LineStarts[Line - 1];
  return SourceLoc{Line + 1, Offset - Start + 1, FileName};
}

TokenBuffer sus::syntax::tokenize(std::string_view Buffer,
                                  DiagnosticEngine &Diags,
                                  std::string_view FileName) {
  static metrics::TimeAccount &Account =
      metrics::timeAccount("syntax.lex_ns");
  metrics::TimeAccountScope Timed(Account);

  TokenBuffer Out;
  Out.Source = Buffer;
  Out.FileName = FileName;
  if (Buffer.size() >= std::numeric_limits<uint32_t>::max()) {
    Diags.error(SourceLoc{1, 1, FileName}, "input larger than 4 GiB");
    Out.Source = {};
    Out.Tokens.push_back(Token::make(TokenKind::Eof, 0));
    return Out;
  }
  // Every token takes at least one byte, so this one reservation holds
  // them all and the array never moves.
  std::vector<Token> &Tokens = Out.Tokens;
  Tokens.reserve(Buffer.size() + 1);

  const char *Begin = Buffer.data();
  const char *End = Begin + Buffer.size();
  const char *P = Begin;
  auto OffsetOf = [&](const char *Q) {
    return static_cast<uint32_t>(Q - Begin);
  };

  while (P != End) {
    char C = *P;
    if (is(C, Space)) {
      ++P;
      continue;
    }
    // Comments: '//' or '#' to end of line.
    if (C == '#' || (C == '/' && P + 1 != End && P[1] == '/')) {
      const void *NL = std::memchr(P, '\n', End - P);
      P = NL ? static_cast<const char *>(NL) : End;
      continue;
    }
    const char *Start = P;
    if (is(C, IdentStart)) {
      do
        ++P;
      while (P != End && is(*P, IdentCont));
      std::string_view Text(Start, P - Start);
      Tokens.push_back(Token::make(TokenKind::Ident, OffsetOf(Start),
                                   keywordOf(Text),
                                   static_cast<int64_t>(Text.size())));
      continue;
    }
    if (is(C, Digit) || (C == '-' && P + 1 != End && is(P[1], Digit))) {
      bool Negative = C == '-';
      if (Negative)
        ++P;
      // Checked accumulation: the magnitude must fit int64_t. (The most
      // negative value, whose magnitude is INT64_MAX+1, is also rejected —
      // no SUS construct needs it, and keeping the bound symmetric keeps
      // `Negative ? -N : N` free of overflow.)
      int64_t N = 0;
      bool Overflow = false;
      for (; P != End && is(*P, Digit); ++P) {
        int64_t D = *P - '0';
        if (N > (std::numeric_limits<int64_t>::max() - D) / 10)
          Overflow = true;
        else
          N = N * 10 + D;
      }
      if (Overflow) {
        Diags.error(Out.locAt(OffsetOf(Start)), "number literal out of range");
        continue;
      }
      Tokens.push_back(Token::make(TokenKind::Number, OffsetOf(Start),
                                   Keyword::None, Negative ? -N : N));
      continue;
    }

    auto Next = [&](char Want) { return P + 1 != End && P[1] == Want; };
    TokenKind Two = TokenKind::Eof;
    if (C == '<' && Next('+') && P + 2 != End && P[2] == '>') {
      Tokens.push_back(Token::make(TokenKind::OPlus, OffsetOf(Start)));
      P += 3;
      continue;
    }
    if (C == '-' && Next('>'))
      Two = TokenKind::Arrow;
    else if (C == '<' && Next('='))
      Two = TokenKind::Le;
    else if (C == '>' && Next('='))
      Two = TokenKind::Ge;
    else if (C == '=' && Next('='))
      Two = TokenKind::EqEq;
    else if (C == '!' && Next('='))
      Two = TokenKind::Ne;
    if (Two != TokenKind::Eof) {
      Tokens.push_back(Token::make(Two, OffsetOf(Start)));
      P += 2;
      continue;
    }

    TokenKind K = Punctuation[static_cast<unsigned char>(C)];
    if (K == TokenKind::Eof)
      Diags.error(Out.locAt(OffsetOf(Start)),
                  std::string("stray character '") + C + "'");
    else
      Tokens.push_back(Token::make(K, OffsetOf(Start)));
    ++P;
  }

  Tokens.push_back(Token::make(TokenKind::Eof, OffsetOf(End)));
  return Out;
}
