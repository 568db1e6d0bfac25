//===----------------------------------------------------------------------===//
///
/// \file
/// Interned identifiers for the compiler middle end.
///
/// A Symbol is a 32-bit index into a process-wide SymbolTable that owns
/// every distinct spelling once, in a chunked character arena. Interning
/// happens at the boundaries where names are *born* (parsing surface
/// text, uniquifying during lowering, generating fresh temporaries);
/// everywhere else — scopes, mod-sets, register maps, profile-cache
/// keys — the compiler moves, hashes, and compares 4-byte ids. Spellings
/// are materialized only at the printing and diagnostics boundaries.
///
/// The table is append-only and never deallocates a spelling, so a
/// Symbol's string_view stays valid for the life of the process. It is
/// not thread-safe; the compiler pipeline is single-threaded by design
/// (one pipeline per thread would need one table per thread or a lock,
/// neither of which this codebase needs yet).
///
/// Symbol construction from a string is deliberately implicit: the whole
/// surface of the middle end (Atom::var("x", Ty), Regs["acc"], ...)
/// reads exactly as it did when names were std::strings, while the hot
/// paths underneath pay u32 comparisons instead of memcmp and
/// red-black-tree rebalancing on heap-allocated keys.
///
/// SymbolSet is the companion flat set: a sorted vector of ids with
/// binary-search membership. The IR analyses (modSet, allVars) return
/// SymbolSets built with one sort+unique over a scratch vector — no
/// per-element node allocation.
///
/// SymbolMap<V> (support/SymbolMap.h) is the companion flat map, and the
/// only Symbol-keyed hash map in the compiler: an open-addressed table
/// of inline (Symbol, V) slots, so an insert allocates nothing. Unlike
/// std::unordered_map it moves entries on insert (rehash) and on erase
/// (backward shift): a reference or iterator into one must not be held
/// across an insert into or erase from the same map, and its iteration
/// order is unspecified.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_SUPPORT_SYMBOL_H
#define SPIRE_SUPPORT_SYMBOL_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace spire::support {

class SymbolTable;

/// An interned identifier: a 32-bit id whose spelling lives in the
/// global SymbolTable. Id 0 is the empty spelling, so a
/// default-constructed Symbol behaves like the old empty std::string
/// (Symbol().empty() is true and prints as "").
class Symbol {
public:
  constexpr Symbol() = default;
  /// Interning constructors — implicit so spelling-level call sites read
  /// unchanged. These are the only places a string comparison happens.
  Symbol(std::string_view Spelling);
  Symbol(const char *Spelling) : Symbol(std::string_view(Spelling)) {}
  Symbol(const std::string &Spelling)
      : Symbol(std::string_view(Spelling)) {}

  /// The interned spelling; valid for the life of the process.
  std::string_view view() const;
  /// The spelling as an owned string (diagnostics/printing boundary).
  std::string str() const { return std::string(view()); }

  bool empty() const { return Id == 0; }
  uint32_t id() const { return Id; }
  /// Wraps an id previously obtained from id(); no validation.
  static Symbol fromId(uint32_t Id) {
    Symbol S;
    S.Id = Id;
    return S;
  }

  friend bool operator==(Symbol A, Symbol B) { return A.Id == B.Id; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Id != B.Id; }
  /// Orders by id (interning order), not lexicographically: sets and
  /// maps over Symbols are for identity, not for display. Sort
  /// materialized spellings when presentation order matters.
  friend bool operator<(Symbol A, Symbol B) { return A.Id < B.Id; }

  friend std::ostream &operator<<(std::ostream &OS, Symbol S) {
    return OS << S.view();
  }

private:
  uint32_t Id = 0;
};

/// Appends A's spelling to a std::string (diagnostics convenience, so
/// `"variable '" + Name + "'"` keeps reading naturally).
inline std::string operator+(const std::string &A, Symbol B) {
  std::string Out = A;
  Out += B.view();
  return Out;
}
inline std::string operator+(Symbol A, const std::string &B) {
  std::string Out(A.view());
  Out += B;
  return Out;
}

/// The process-wide interner: append-only spelling arena plus an open
/// hash from spelling to id.
class SymbolTable {
public:
  SymbolTable();
  SymbolTable(const SymbolTable &) = delete;
  SymbolTable &operator=(const SymbolTable &) = delete;

  /// Id of `Spelling`, interning it on first sight. O(1) amortized.
  uint32_t intern(std::string_view Spelling);
  /// Spelling of an id produced by intern().
  std::string_view spelling(uint32_t Id) const { return Spellings[Id]; }
  /// Number of distinct spellings interned (including the empty one).
  size_t size() const { return Spellings.size(); }

  static SymbolTable &global();

private:
  const char *arenaCopy(std::string_view Spelling);

  /// Chunked character arena owning every spelling.
  std::vector<std::unique_ptr<char[]>> Chunks;
  size_t ChunkUsed = 0;
  size_t ChunkCap = 0;

  std::vector<std::string_view> Spellings; ///< Indexed by id.

  /// Open-addressing hash table of ids, keyed by the interned spelling.
  std::vector<uint32_t> Buckets; ///< 0 = empty (id 0 is pre-seeded).
  size_t BucketMask = 0;
  void grow();
};

inline Symbol::Symbol(std::string_view Spelling) {
  Id = SymbolTable::global().intern(Spelling);
}

inline std::string_view Symbol::view() const {
  return SymbolTable::global().spelling(Id);
}

/// A flat sorted set of Symbols: contiguous storage, binary-search
/// membership, one allocation for the whole set. Build incrementally
/// with insert() for small sets, or collect into a vector and
/// adoptUnsorted() for large ones.
class SymbolSet {
public:
  SymbolSet() = default;

  bool insert(Symbol S) {
    auto It = std::lower_bound(V.begin(), V.end(), S);
    if (It != V.end() && *It == S)
      return false;
    V.insert(It, S);
    return true;
  }

  /// Takes an arbitrary-order, possibly-duplicated vector and becomes
  /// its set (sort + unique in place; no per-element allocation).
  void adoptUnsorted(std::vector<Symbol> Elems) {
    std::sort(Elems.begin(), Elems.end());
    Elems.erase(std::unique(Elems.begin(), Elems.end()), Elems.end());
    V = std::move(Elems);
  }

  bool count(Symbol S) const {
    return std::binary_search(V.begin(), V.end(), S);
  }
  bool contains(Symbol S) const { return count(S); }

  size_t size() const { return V.size(); }
  bool empty() const { return V.empty(); }
  void clear() { V.clear(); }
  void reserve(size_t N) { V.reserve(N); }

  std::vector<Symbol>::const_iterator begin() const { return V.begin(); }
  std::vector<Symbol>::const_iterator end() const { return V.end(); }

  friend bool operator==(const SymbolSet &A, const SymbolSet &B) {
    return A.V == B.V;
  }

  /// The spellings, sorted lexicographically — the presentation-order
  /// boundary (tests, diagnostics listing variable names).
  std::vector<std::string> spellings() const {
    std::vector<std::string> Out;
    Out.reserve(V.size());
    for (Symbol S : V)
      Out.push_back(S.str());
    std::sort(Out.begin(), Out.end());
    return Out;
  }

private:
  std::vector<Symbol> V;
};

} // namespace spire::support

#endif // SPIRE_SUPPORT_SYMBOL_H
