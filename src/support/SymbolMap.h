//===----------------------------------------------------------------------===//
///
/// \file
/// A flat hash map keyed by Symbol: open addressing with linear probing
/// and backward-shift erase over one contiguous array of
/// std::pair<Symbol, V> slots.
///
/// The compiler's per-instance maps — the lowerer's scopes and name
/// counters, the circuit emitter's register table, the IR verifier's
/// liveness — take one entry per name, and recursion inlining makes
/// millions of names. A node-based std::unordered_map paid one heap
/// allocation per entry (and one free at teardown); this map pays none
/// per insert, only a doubling of its slot array now and then.
///
/// The interface is the subset of std::unordered_map those sites use,
/// with the same meanings (find, count, operator[], emplace without
/// overwrite, erase by key or iterator, clear, size), so `It->first`,
/// `It->second` and structured bindings read as before. Two rules differ:
///
///  - **References and iterators are invalidated by any insert or erase
///    on the same map**: an insert may rehash, and an erase shifts later
///    entries of the probe run back one slot. Copy a value out (or look
///    it up again) before inserting into or erasing from that map.
///  - **Iteration is in slot order**, which depends on the ids and on
///    the capacity. Sites that iterate must not depend on the order
///    (sort the result, or rebuild a map from it).
///
/// A default-constructed map allocates nothing, and clear() on an empty
/// map touches nothing, so pooled objects can own one cheaply. clear()
/// keeps the capacity. Slots hold a V even when empty, so V must be
/// default-constructible; it should be cheap to copy (the users hold
/// bindings, counters and register ranges).
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_SUPPORT_SYMBOLMAP_H
#define SPIRE_SUPPORT_SYMBOLMAP_H

#include "support/Symbol.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace spire::support {

template <typename V> class SymbolMap {
public:
  using value_type = std::pair<Symbol, V>;

private:
  /// Key of an unoccupied slot. Real ids are dense from 0 and never
  /// reach it (the table would need 2^32 spellings).
  static constexpr uint32_t EmptyId = ~uint32_t{0};

  static bool occupied(const value_type &Slot) {
    return Slot.first.id() != EmptyId;
  }

  template <bool IsConst> class Iter {
  public:
    using value_type = std::pair<Symbol, V>;
    using reference = std::conditional_t<IsConst, const value_type &,
                                         value_type &>;
    using pointer = std::conditional_t<IsConst, const value_type *,
                                       value_type *>;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    Iter() = default;

    reference operator*() const { return *P; }
    pointer operator->() const { return P; }
    Iter &operator++() {
      ++P;
      skipEmpty();
      return *this;
    }
    friend bool operator==(const Iter &A, const Iter &B) { return A.P == B.P; }
    friend bool operator!=(const Iter &A, const Iter &B) { return A.P != B.P; }

  private:
    friend class SymbolMap;
    Iter(pointer P, pointer End) : P(P), End(End) {}
    void skipEmpty() {
      while (P != End && !occupied(*P))
        ++P;
    }
    pointer P = nullptr;
    pointer End = nullptr;
  };

public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  SymbolMap() = default;

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  /// Number of slots (0 until the first insert).
  size_t bucketCount() const { return Slots.size(); }

  /// The slot a key's probe starts at in a table of `BucketCount` slots
  /// (a power of two): Fibonacci hashing, the top bits of id * 2^64/phi.
  /// Public so tests can build collision runs.
  static size_t homeSlot(Symbol Key, size_t BucketCount) {
    unsigned Bits = 0;
    while ((size_t{1} << Bits) < BucketCount)
      ++Bits;
    return Bits == 0 ? 0 : slotFor(Key, 64 - Bits);
  }

  iterator begin() { return makeIter(Slots.data()); }
  iterator end() { return makeIter(Slots.data() + Slots.size()); }
  const_iterator begin() const { return makeIter(Slots.data()); }
  const_iterator end() const { return makeIter(Slots.data() + Slots.size()); }

  iterator find(Symbol Key) {
    size_t I = findSlot(Key);
    return I == NotFound ? end() : makeIter(&Slots[I]);
  }
  const_iterator find(Symbol Key) const {
    size_t I = findSlot(Key);
    return I == NotFound ? end() : makeIter(&Slots[I]);
  }
  size_t count(Symbol Key) const { return findSlot(Key) != NotFound; }

  /// Inserts (Key, Value) unless Key is present; either way returns the
  /// entry for Key and whether it was inserted.
  std::pair<iterator, bool> emplace(Symbol Key, V Value) {
    auto [I, Inserted] = insertSlot(Key);
    if (Inserted)
      Slots[I].second = std::move(Value);
    return {makeIter(&Slots[I]), Inserted};
  }

  /// The value for Key, value-initialized on first use.
  V &operator[](Symbol Key) { return Slots[insertSlot(Key).first].second; }

  size_t erase(Symbol Key) {
    size_t I = findSlot(Key);
    if (I == NotFound)
      return 0;
    eraseSlot(I);
    return 1;
  }
  /// Erases the entry at `It`. Unlike std::unordered_map this returns
  /// nothing: the backward shift may move a later entry into It's slot,
  /// so erasing while iterating is not supported.
  void erase(iterator It) {
    eraseSlot(static_cast<size_t>(It.P - Slots.data()));
  }

  /// Removes every entry and keeps the capacity; O(1) when empty.
  void clear() {
    if (Count == 0)
      return;
    for (value_type &Slot : Slots)
      Slot = emptySlot();
    Count = 0;
  }

  /// Makes room for `N` entries without a rehash.
  void reserve(size_t N) {
    size_t Want = MinBuckets;
    while (!fits(N, Want))
      Want *= 2;
    if (Want > Slots.size())
      rehash(Want);
  }

private:
  static constexpr size_t NotFound = ~size_t{0};
  static constexpr size_t MinBuckets = 8;

  static value_type emptySlot() { return {Symbol::fromId(EmptyId), V()}; }

  /// Load factor at most 3/4.
  static bool fits(size_t Entries, size_t Buckets) {
    return Entries * 4 <= Buckets * 3;
  }

  static size_t slotFor(Symbol Key, unsigned Shift) {
    return static_cast<size_t>(
        (static_cast<uint64_t>(Key.id()) * 0x9e3779b97f4a7c15ull) >> Shift);
  }

  /// The iterator at the first occupied slot at or after P.
  iterator makeIter(value_type *P) {
    iterator It(P, Slots.data() + Slots.size());
    It.skipEmpty();
    return It;
  }
  const_iterator makeIter(const value_type *P) const {
    const_iterator It(P, Slots.data() + Slots.size());
    It.skipEmpty();
    return It;
  }

  size_t findSlot(Symbol Key) const {
    assert(Key.id() != EmptyId && "the empty-slot id is not a key");
    if (Count == 0)
      return NotFound;
    size_t Mask = Slots.size() - 1;
    for (size_t I = slotFor(Key, Shift);; I = (I + 1) & Mask) {
      const value_type &Slot = Slots[I];
      if (Slot.first == Key)
        return I;
      if (!occupied(Slot))
        return NotFound;
    }
  }

  /// The slot holding Key, claiming an empty one (value-initialized) if
  /// Key is absent; the bool says whether it was claimed.
  std::pair<size_t, bool> insertSlot(Symbol Key) {
    assert(Key.id() != EmptyId && "the empty-slot id is not a key");
    if (!fits(Count + 1, Slots.size()))
      rehash(Slots.empty() ? MinBuckets : Slots.size() * 2);
    size_t Mask = Slots.size() - 1;
    for (size_t I = slotFor(Key, Shift);; I = (I + 1) & Mask) {
      value_type &Slot = Slots[I];
      if (Slot.first == Key)
        return {I, false};
      if (!occupied(Slot)) {
        Slot.first = Key;
        ++Count;
        return {I, true};
      }
    }
  }

  /// Backward-shift deletion: walks the probe run after the hole and
  /// moves back every entry whose home slot does not lie cyclically in
  /// (Hole, J], so no lookup ever stops early at the vacated slot.
  void eraseSlot(size_t Hole) {
    assert(Hole < Slots.size() && occupied(Slots[Hole]) &&
           "erase of an empty slot");
    size_t Mask = Slots.size() - 1;
    for (size_t J = (Hole + 1) & Mask; occupied(Slots[J]);
         J = (J + 1) & Mask) {
      size_t Home = slotFor(Slots[J].first, Shift);
      bool StaysPut = Hole <= J ? (Hole < Home && Home <= J)
                                : (Hole < Home || Home <= J);
      if (StaysPut)
        continue;
      Slots[Hole] = std::move(Slots[J]);
      Hole = J;
    }
    Slots[Hole] = emptySlot();
    --Count;
  }

  void rehash(size_t Buckets) {
    std::vector<value_type> Old(Buckets, emptySlot());
    Old.swap(Slots);
    Shift = 64;
    while ((size_t{1} << (64 - Shift)) < Buckets)
      --Shift;
    size_t Mask = Buckets - 1;
    for (value_type &Entry : Old) {
      if (!occupied(Entry))
        continue;
      size_t I = slotFor(Entry.first, Shift);
      while (occupied(Slots[I]))
        I = (I + 1) & Mask;
      Slots[I] = std::move(Entry);
    }
  }

  std::vector<value_type> Slots; ///< Power-of-two size, or empty.
  size_t Count = 0;
  unsigned Shift = 64; ///< 64 - log2(Slots.size()).
};

} // namespace spire::support

#endif // SPIRE_SUPPORT_SYMBOLMAP_H
