//===- serialize/Snapshot.h - Codecs for the snapshot sections --*- C++ -*-===//
///
/// \file
/// Encoders and decoders for the domain values the persistent cache
/// snapshot carries (DESIGN.md §13): interned strings, hash-consed
/// history expressions, contract summaries, and compliance and validity
/// verdicts.
///
/// Two design constraints shape everything here:
///
///  - *Identity is re-established, not transported.* Symbols and Expr
///    pointers are process-local (Expr::hash() is not stable across
///    processes), so the snapshot stores a local string table plus a
///    topologically ordered expression pool, and decoding re-interns
///    through the target StringInterner / HistContext factories. Two
///    structurally equal expressions therefore decode to the same
///    pointer — the property every cache key relies on.
///
///  - *Validate before constructing.* HistContext factories assert their
///    preconditions (guard polarities); a decoder fed corrupt bytes must
///    fail cleanly instead. Every kind byte, child reference and polarity
///    is range-checked against the Reader *before* any factory call, so a
///    corrupt snapshot yields Reader::failed(), never UB.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SERIALIZE_SNAPSHOT_H
#define SUS_SERIALIZE_SNAPSHOT_H

#include "contract/Compliance.h"
#include "contract/Prescreen.h"
#include "hist/HistContext.h"
#include "serialize/Serialize.h"
#include "validity/StaticValidity.h"

#include <map>
#include <vector>

namespace sus {
namespace serialize {

/// Sentinel reference meaning "no symbol" / "no expression" (invalid
/// Symbol, null Expr*).
constexpr uint32_t NoId = 0xFFFFFFFFu;

//===----------------------------------------------------------------------===//
// Encoding
//===----------------------------------------------------------------------===//

/// Snapshot-local string table: registers the symbols the other sections
/// actually use (not the whole interner) and assigns dense ids in
/// registration order. Emit its section *after* everything that registers
/// into it.
class SymbolTable {
public:
  explicit SymbolTable(const StringInterner &Interner) : Interner(Interner) {}

  /// The snapshot-local id of \p S (registering on first use); NoId for
  /// the invalid symbol.
  uint32_t idOf(Symbol S);

  /// The Strings section payload: u32 count + that many strings.
  std::string payload() const;

private:
  const StringInterner &Interner;
  std::map<Symbol, uint32_t> Ids;
  std::vector<Symbol> Order;
};

/// Hash-consed expression pool encoder. Expressions are registered (with
/// all their transitive children) and assigned dense ids in topological
/// order — every child id is smaller than its parent's — so the decoder
/// can rebuild bottom-up through the HistContext factories in one pass.
class ExprEncoder {
public:
  explicit ExprEncoder(SymbolTable &Strings) : Strings(Strings) {}

  /// The pool id of \p E (registering the whole subtree on first use);
  /// NoId for null.
  uint32_t idOf(const hist::Expr *E);

  /// The Exprs section payload: u32 count + that many records.
  std::string payload() const;

private:
  void encodeInto(Writer &W, const hist::Expr *E) const;

  SymbolTable &Strings;
  std::map<const hist::Expr *, uint32_t> Ids;
  std::vector<const hist::Expr *> Order;
};

void encodeValue(Writer &W, SymbolTable &Strings, const Value &V);
void encodeCommAction(Writer &W, SymbolTable &Strings, hist::CommAction A);
void encodeEvent(Writer &W, SymbolTable &Strings, const hist::Event &Ev);
void encodePolicyRef(Writer &W, SymbolTable &Strings,
                     const hist::PolicyRef &Ref);
void encodeReadySet(Writer &W, SymbolTable &Strings,
                    const contract::ReadySet &S);
void encodeSummary(Writer &W, SymbolTable &Strings,
                   const contract::ContractSummary &Summary);
void encodeCompliance(Writer &W, SymbolTable &Strings, ExprEncoder &Exprs,
                      const contract::ComplianceResult &R);
void encodeValidity(Writer &W, SymbolTable &Strings,
                    const validity::StaticValidityResult &R);

//===----------------------------------------------------------------------===//
// Decoding
//===----------------------------------------------------------------------===//

/// Decodes the Strings section, re-interning every entry into the target
/// interner, then maps snapshot-local ids back to live Symbols.
class SymbolDecoder {
public:
  /// Decodes the whole section; on failure \p R carries the diagnostic.
  SymbolDecoder(Reader &R, StringInterner &Interner);

  /// The live symbol for snapshot-local id \p Id (NoId → invalid symbol);
  /// fails \p R on an out-of-range id.
  Symbol symbol(uint32_t Id, Reader &R) const;

  size_t size() const { return Symbols.size(); }

private:
  std::vector<Symbol> Symbols;
};

/// Decodes the Exprs section bottom-up through the HistContext factories.
class ExprDecoder {
public:
  /// Decodes the whole pool; on failure \p R carries the diagnostic.
  ExprDecoder(Reader &R, const SymbolDecoder &Strings,
              hist::HistContext &Ctx);

  /// The live expression for pool id \p Id (NoId → null); fails \p R on
  /// an out-of-range id.
  const hist::Expr *expr(uint32_t Id, Reader &R) const;

  size_t size() const { return Exprs.size(); }

private:
  const hist::Expr *decodeOne(Reader &R, const SymbolDecoder &Strings,
                              hist::HistContext &Ctx) const;

  std::vector<const hist::Expr *> Exprs;
};

Value decodeValue(Reader &R, const SymbolDecoder &Strings);
hist::CommAction decodeCommAction(Reader &R, const SymbolDecoder &Strings);
hist::Event decodeEvent(Reader &R, const SymbolDecoder &Strings);
hist::PolicyRef decodePolicyRef(Reader &R, const SymbolDecoder &Strings);
contract::ReadySet decodeReadySet(Reader &R, const SymbolDecoder &Strings);
contract::ContractSummary decodeSummary(Reader &R,
                                        const SymbolDecoder &Strings);
contract::ComplianceResult decodeCompliance(Reader &R,
                                            const SymbolDecoder &Strings,
                                            const ExprDecoder &Exprs);
validity::StaticValidityResult decodeValidity(Reader &R,
                                              const SymbolDecoder &Strings);

} // namespace serialize
} // namespace sus

#endif // SUS_SERIALIZE_SNAPSHOT_H
