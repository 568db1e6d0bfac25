#include "qopt/Passes.h"

#include "circuit/Netlist.h"
#include "support/Governor.h"
#include "support/Hash.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <iterator>
#include <random>
#include <vector>

using namespace spire::circuit;

namespace spire::qopt {

//===----------------------------------------------------------------------===//
// Commutation
//===----------------------------------------------------------------------===//

static bool controlsContain(const Gate &G, Qubit Q) {
  return std::binary_search(G.Controls.begin(), G.Controls.end(), Q);
}

bool gatesCommute(const Gate &A, const Gate &B) {
  // Diagonal gates commute with each other unconditionally.
  if (A.isPhase() && B.isPhase())
    return true;
  if (A.isPhase())
    return A.Target != B.Target || B.isPhase();
  if (B.isPhase())
    return B.Target != A.Target;

  if (A.Kind == GateKind::X && B.Kind == GateKind::X) {
    // X gates commute unless the target of one is a control of the other
    // (equal targets and shared controls are fine).
    return !controlsContain(B, A.Target) && !controlsContain(A, B.Target);
  }

  // At least one Hadamard: require that neither gate's target is touched
  // by the other (shared controls remain fine).
  if (A.Target == B.Target)
    return false;
  return !B.touches(A.Target) && !A.touches(B.Target);
}

//===----------------------------------------------------------------------===//
// Adjacent-inverse cancellation
//===----------------------------------------------------------------------===//

namespace {

/// The inverse kind of a gate, when expressible as a single gate.
GateKind inverseKind(GateKind K) {
  switch (K) {
  case GateKind::T:
    return GateKind::Tdg;
  case GateKind::Tdg:
    return GateKind::T;
  case GateKind::S:
    return GateKind::Sdg;
  case GateKind::Sdg:
    return GateKind::S;
  default:
    return K; // X, H, Z are self-inverse.
  }
}

bool isInversePair(const Gate &A, const Gate &B) {
  return B.Kind == inverseKind(A.Kind) && A.Target == B.Target &&
         A.Controls == B.Controls;
}

/// Counts the unlinked node ids up to a bound: a Fenwick tree over the
/// netlist's ids, so the live rank of a gate after another is a
/// position difference minus an O(log n) range count.
class UnlinkedIds {
public:
  explicit UnlinkedIds(size_t Size) : Tree(Size + 1, 0) {}

  void add(Netlist::NodeId Id) {
    for (size_t I = size_t(Id) + 1; I < Tree.size(); I += I & -I)
      ++Tree[I];
  }
  /// Unlinked ids in [0, Id].
  uint32_t upTo(Netlist::NodeId Id) const {
    uint32_t Sum = 0;
    for (size_t I = size_t(Id) + 1; I != 0; I &= I - 1)
      Sum += Tree[I];
    return Sum;
  }

private:
  std::vector<uint32_t> Tree;
};

/// The worklist engine behind cancelAdjacentGates: scans forward from
/// each enqueued gate for an inverse partner past commuting gates,
/// unlinks found pairs in O(1), and re-enqueues the pair's wire-neighbors
/// (the only gates whose local picture changed). An outer driver re-seeds
/// until a whole pass cancels nothing, so the result is a true fixpoint
/// with no per-round circuit copies.
class CancelWorklist {
public:
  CancelWorklist(Netlist &N, const CancelOptions &Options)
      : N(N), Options(Options),
        Unbounded(Options.MaxLookahead == CancelOptions::Unbounded),
        Budget(std::max(1u, Options.MaxLookahead)), Unlinked(N.size()),
        Queued(N.size(), 0) {
    Work.reserve(N.size());
  }

  /// Runs to fixpoint (or the MaxRounds safety cap on full re-seed
  /// passes — typical circuits need two, the last finding nothing);
  /// returns the number of cancelled pairs.
  int64_t run(OptStats *Stats) {
    int64_t TotalPairs = 0;
    bool Changed = true;
    bool Tripped = false;
    for (unsigned Pass = 0; Changed && !Tripped && Pass != Options.MaxRounds;
         ++Pass) {
      Changed = false;
      // Seed in reverse so the LIFO pops gates in circuit order.
      for (Netlist::NodeId Id = static_cast<Netlist::NodeId>(N.size());
           Id-- > 0;)
        enqueue(Id);
      while (!Work.empty()) {
        // Governor checkpoint: bail out of the fixpoint early on a
        // tripped budget. The netlist stays sound (cancellation only
        // ever removes complete inverse pairs), so the partial result
        // is a valid circuit; the stage wrapper reports the limit.
        if (!support::Governor::poll()) {
          Tripped = true;
          break;
        }
        Netlist::NodeId A = Work.back();
        Work.pop_back();
        Queued[A] = 0;
        if (!N.live(A))
          continue;
        ++Visits;
        if (tryCancel(A)) {
          Changed = true;
          ++TotalPairs;
        }
      }
      if (Stats)
        ++Stats->CancelPasses;
    }
    if (Stats) {
      Stats->CancelledPairs += TotalPairs;
      Stats->WorklistVisits += Visits;
    }
    return TotalPairs;
  }

private:
  void enqueue(Netlist::NodeId Id) {
    if (Id != Netlist::Nil && N.live(Id) && !Queued[Id]) {
      Queued[Id] = 1;
      Work.push_back(Id);
    }
  }

  /// The live gates in (A, B]: B's position in the global sequence
  /// counted from A.
  uint32_t liveRank(Netlist::NodeId A, Netlist::NodeId B) const {
    return (B - A) - (Unlinked.upTo(B) - Unlinked.upTo(A));
  }

  /// Under the conservative commutation rules, gates on disjoint qubits
  /// always commute and can never be partners, so only gates sharing a
  /// wire with A matter. Walk them in circuit order by advancing one
  /// cursor per wire of A (node ids are positions), and stop at the
  /// first non-commuting gate. The lookahead still counts every live
  /// gate in between, shared wire or not (this is what makes the
  /// peephole configurations genuinely weaker): a candidate is examined
  /// only while its live rank after A is within the budget, and the
  /// first one is always examined. The rank query is skipped while the
  /// position difference alone is within budget.
  ///
  /// The unbounded scan also stops at a gate identical to A: any partner
  /// beyond it pairs with that closer copy instead, and A gets
  /// re-enqueued when it does. A bounded scan runs past such copies.
  Netlist::NodeId findPartner(Netlist::NodeId A) {
    const Gate &GA = N.gate(A);
    unsigned K = N.numWires(A);
    Netlist::NodeId InlineCur[4];
    if (K > Cursors.size() && K > 4)
      Cursors.resize(K);
    Netlist::NodeId *Cur = K <= 4 ? InlineCur : Cursors.data();
    for (unsigned W = 0; W != K; ++W)
      Cur[W] = N.wireNext(A, W);
    for (;;) {
      Netlist::NodeId B = Netlist::Nil;
      for (unsigned W = 0; W != K; ++W)
        if (Cur[W] != Netlist::Nil && (B == Netlist::Nil || Cur[W] < B))
          B = Cur[W];
      if (B == Netlist::Nil)
        return Netlist::Nil;
      if (B - A > Budget && liveRank(A, B) > Budget)
        return Netlist::Nil;
      const Gate &GB = N.gate(B);
      if (isInversePair(GA, GB))
        return B;
      if (!gatesCommute(GA, GB))
        return Netlist::Nil;
      if (Unbounded && GB == GA)
        return Netlist::Nil;
      for (unsigned W = 0; W != K; ++W)
        if (Cur[W] == B)
          Cur[W] = N.nextOnWire(B, N.wireQubit(A, W));
    }
  }

  bool tryCancel(Netlist::NodeId A) {
    Netlist::NodeId B = findPartner(A);
    if (B == Netlist::Nil)
      return false;
    // The gates whose local picture changes are the pair's wire-neighbors
    // plus its global-sequence neighbors: the former see new wire
    // adjacencies, the latter gain lookahead budget (a nested pair on
    // *disjoint* wires becomes reachable exactly for the gates scanning
    // across the removed pair, and the nearest such gates are the global
    // neighbors — re-enqueueing them lets disjoint nests cascade in one
    // pass instead of needing one re-seed pass per peeled layer).
    // Collect before the unlink rewires anything.
    Neighbors.clear();
    for (Netlist::NodeId Id : {A, B}) {
      Neighbors.push_back(N.prev(Id));
      Neighbors.push_back(N.next(Id));
      unsigned K = N.numWires(Id);
      for (unsigned W = 0; W != K; ++W) {
        Neighbors.push_back(N.wirePrev(Id, W));
        Neighbors.push_back(N.wireNext(Id, W));
      }
    }
    N.unlink(A);
    N.unlink(B);
    Unlinked.add(A);
    Unlinked.add(B);
    for (Netlist::NodeId Id : Neighbors)
      enqueue(Id);
    return true;
  }

  Netlist &N;
  const CancelOptions &Options;
  bool Unbounded;
  unsigned Budget; ///< Highest live rank a candidate partner may have.
  UnlinkedIds Unlinked;
  std::vector<char> Queued;
  std::vector<Netlist::NodeId> Work;
  std::vector<Netlist::NodeId> Neighbors; ///< Reused across cancellations.
  std::vector<Netlist::NodeId> Cursors;   ///< Reused for MCX-wide scans.
  int64_t Visits = 0;
};

} // namespace

Circuit cancelAdjacentGates(const Circuit &C, const CancelOptions &Options,
                            OptStats *Stats) {
  Netlist N(C);
  CancelWorklist(N, Options).run(Stats);
  return N.toCircuit();
}

//===----------------------------------------------------------------------===//
// Phase folding (rotation merging)
//===----------------------------------------------------------------------===//

namespace {

using support::mix64; // The per-variable mixer behind the parity hash.

/// A wire parity: a sorted set of region variables, XOR-composed, plus a
/// complement bit. `Hash` is the XOR of mix64 over the variables —
/// order-independent, so every update is O(1) on top of the set edit,
/// and it keys the phase table below (the complement bit is deliberately
/// outside the key).
struct Parity {
  std::vector<uint32_t> Vars; // Sorted, unique.
  uint64_t Hash = 0;
  bool Complemented = false;

  void reset(uint32_t V) {
    Vars.assign(1, V);
    Hash = mix64(V);
    Complemented = false;
  }
  /// XORs `O` into this parity. The symmetric difference is built in
  /// `Scratch` and swapped in, so the old buffer becomes the next
  /// scratch: buffers only ever trade places and grow geometrically,
  /// and a CNOT allocates nothing once they reach the working size.
  void xorWith(const Parity &O, std::vector<uint32_t> &Scratch) {
    Scratch.clear();
    std::set_symmetric_difference(Vars.begin(), Vars.end(), O.Vars.begin(),
                                  O.Vars.end(), std::back_inserter(Scratch));
    Vars.swap(Scratch);
    Hash ^= O.Hash;
    Complemented ^= O.Complemented;
  }
};

/// Phase contribution of a gate kind in units of pi/4, mod 8.
int phaseUnits(GateKind K) {
  switch (K) {
  case GateKind::T:
    return 1;
  case GateKind::S:
    return 2;
  case GateKind::Z:
    return 4;
  case GateKind::Sdg:
    return 6;
  case GateKind::Tdg:
    return 7;
  default:
    return 0;
  }
}

/// `Units` reduced into [0, 8).
int normalizeUnits(int Units) { return ((Units % 8) + 8) % 8; }

/// Emits phase gates realizing `Units` (mod 8) of pi/4 onto a wire: one
/// gate per set bit of the normalized count (Z = 4, S = 2, T = 1).
void emitPhase(int Units, Qubit Target, std::vector<Gate> &Out) {
  Units = normalizeUnits(Units);
  if (Units & 4)
    Out.push_back(Gate(GateKind::Z, Target));
  if (Units & 2)
    Out.push_back(Gate(GateKind::S, Target));
  if (Units & 1)
    Out.push_back(Gate(GateKind::T, Target));
}

/// The number of gates emitPhase writes for `Units`.
int64_t phaseGateCount(int Units) {
  Units = normalizeUnits(Units);
  return (Units >> 2 & 1) + (Units >> 1 & 1) + (Units & 1);
}

/// One merged rotation accumulator, anchored at its first contribution.
/// Its parity lives in the fold's shared arena as [Offset, Offset+Length).
struct PhaseAccum {
  uint64_t Hash = 0; ///< The parity's incremental hash (its table key).
  size_t Offset = 0;
  uint32_t Length = 0;
  int Units = 0;
  size_t FirstGate = 0; ///< Index in C.Gates of the first contribution.
  Qubit Target = 0;
  bool FirstComplemented = false; ///< Wire complement at the first site.

  /// The units to emit at the first site. That wire holds p ^ c, where c
  /// is the complement there; k units of phase on p need -k on a
  /// complemented wire (up to global phase).
  int emittedUnits() const { return FirstComplemented ? -Units : Units; }
};

/// The phase table: accumulators with their parities in one flat arena,
/// indexed by an open-addressed (linear-probing) table of accumulator ids
/// keyed by the parity hash. A hash match is confirmed by comparing the
/// exact variable spans, so hashing never changes which rotations merge.
/// Storage grows by doubling, so the allocation count is logarithmic in
/// the number of distinct parities.
class PhaseTable {
public:
  static constexpr uint32_t Empty = ~0u;

  PhaseTable() : Slots(64, Empty) {}

  /// The accumulator of parity `P`, created (anchored at gate `I` on
  /// `Target`) when `P` has not been seen.
  uint32_t findOrInsert(const Parity &P, size_t I, Qubit Target) {
    size_t Mask = Slots.size() - 1;
    size_t Slot = P.Hash & Mask;
    for (; Slots[Slot] != Empty; Slot = (Slot + 1) & Mask) {
      const PhaseAccum &A = Accums[Slots[Slot]];
      if (A.Hash == P.Hash && A.Length == P.Vars.size() &&
          std::equal(P.Vars.begin(), P.Vars.end(), Arena.begin() + A.Offset))
        return Slots[Slot];
    }
    uint32_t Id = static_cast<uint32_t>(Accums.size());
    PhaseAccum &A = Accums.emplace_back();
    A.Hash = P.Hash;
    A.Offset = Arena.size();
    A.Length = static_cast<uint32_t>(P.Vars.size());
    A.FirstGate = I;
    A.Target = Target;
    A.FirstComplemented = P.Complemented;
    Arena.insert(Arena.end(), P.Vars.begin(), P.Vars.end());
    Slots[Slot] = Id;
    // Keep the load factor at or below one half.
    if (2 * Accums.size() > Slots.size())
      grow();
    return Id;
  }

  PhaseAccum &operator[](uint32_t Id) { return Accums[Id]; }
  const std::vector<PhaseAccum> &accums() const { return Accums; }

private:
  void grow() {
    Slots.assign(2 * Slots.size(), Empty);
    size_t Mask = Slots.size() - 1;
    for (uint32_t Id = 0; Id != Accums.size(); ++Id) {
      size_t Slot = Accums[Id].Hash & Mask;
      while (Slots[Slot] != Empty)
        Slot = (Slot + 1) & Mask;
      Slots[Slot] = Id;
    }
  }

  std::vector<uint32_t> Slots; ///< Accumulator ids; size a power of two.
  std::vector<PhaseAccum> Accums;
  std::vector<uint32_t> Arena; ///< Every accumulator's parity, back to back.
};

} // namespace

Circuit phaseFold(const Circuit &C, OptStats *Stats) {
  // Every parity buffer (one per wire, plus xorWith's spare) starts with
  // room for a typical parity, so few of them ever reallocate.
  constexpr size_t InitialSupport = 16;
  std::vector<Parity> Wire(C.NumQubits);
  uint32_t NextVar = 0;
  for (unsigned Q = 0; Q != C.NumQubits; ++Q) {
    Wire[Q].Vars.reserve(InitialSupport);
    Wire[Q].reset(NextVar++);
  }
  std::vector<uint32_t> Scratch;
  Scratch.reserve(InitialSupport);

  // Support cap: a parity whose variable set outgrows the register (rare
  // in compiled circuits, constructible with long H-interleaved CNOT
  // chains) is replaced by an opaque fresh variable — semantically the
  // same conservative give-up as an H barrier, so the pass stays sound
  // while every per-gate step stays O(cap). Small circuits (fewer gates
  // than the cap) can never hit it, which keeps the pass gate-for-gate
  // identical to the uncapped test oracle on the differential-test sizes.
  const size_t MaxSupport = std::max<size_t>(64, 2 * C.NumQubits);

  PhaseTable Phases;
  // The accumulator each phase gate contributes to; NoAccum marks the
  // non-phase gates, which survive as-is.
  constexpr uint32_t NoAccum = PhaseTable::Empty;
  std::vector<uint32_t> AccumOf(C.Gates.size(), NoAccum);
  int64_t PhaseGatesIn = 0;

  for (size_t I = 0; I != C.Gates.size(); ++I) {
    // Governor checkpoint: folding is a pure rewrite, so on a tripped
    // budget the unmodified input is a sound early answer; the stage
    // wrapper reports the limit and fails the run.
    if (!support::Governor::poll())
      return C;
    const Gate &G = C.Gates[I];
    if (G.isPhase() && G.Controls.empty()) {
      ++PhaseGatesIn;
      const Parity &P = Wire[G.Target];
      int Units = phaseUnits(G.Kind);
      // A phase on a complemented parity 1^p contributes a global phase
      // plus the negated rotation on p.
      if (P.Complemented)
        Units = -Units;
      uint32_t Id = Phases.findOrInsert(P, I, G.Target);
      AccumOf[I] = Id;
      PhaseAccum &A = Phases[Id];
      A.Units = (A.Units + Units) % 8;
      continue;
    }
    switch (G.Kind) {
    case GateKind::X:
      if (G.Controls.empty()) {
        Wire[G.Target].Complemented ^= true;
      } else if (G.Controls.size() == 1) {
        Wire[G.Target].xorWith(Wire[G.Controls[0]], Scratch);
        if (Wire[G.Target].Vars.size() > MaxSupport)
          Wire[G.Target].reset(NextVar++);
      } else {
        // Toffoli or larger: non-linear; fresh variable for the target.
        Wire[G.Target].reset(NextVar++);
      }
      break;
    case GateKind::H:
      Wire[G.Target].reset(NextVar++);
      break;
    default:
      // Controlled phase gates (not produced by this compiler): barrier.
      Wire[G.Target].reset(NextVar++);
      break;
    }
  }

  // Re-emit: non-phase gates as-is; every non-zero accumulator at its
  // first site, in exactly as many gates as emitPhase writes for it.
  int64_t EmittedSites = 0, PhaseGatesOut = 0;
  for (const PhaseAccum &A : Phases.accums())
    if (A.Units % 8 != 0) {
      ++EmittedSites;
      PhaseGatesOut += phaseGateCount(A.emittedUnits());
    }
  const size_t OutSize = C.Gates.size() - static_cast<size_t>(PhaseGatesIn) +
                        static_cast<size_t>(PhaseGatesOut);
  Circuit Out;
  Out.NumQubits = C.NumQubits;
  Out.Gates.reserve(OutSize);
  for (size_t I = 0; I != C.Gates.size(); ++I) {
    if (AccumOf[I] == NoAccum) {
      Out.Gates.push_back(C.Gates[I]);
      continue;
    }
    const PhaseAccum &A = Phases[AccumOf[I]];
    if (A.FirstGate == I && A.Units % 8 != 0)
      emitPhase(A.emittedUnits(), A.Target, Out.Gates);
  }
  assert(Out.Gates.size() == OutSize && "output size miscounted");
  if (Stats) {
    // Merged = input phase gates absorbed into another site's rotation.
    // Every emission site had at least one contribution, so this is
    // non-negative even when a site re-expresses its units as several
    // gates (e.g. 7 units = Z + S + T).
    Stats->MergedRotations += PhaseGatesIn - EmittedSites;
    Stats->EmittedRotations += PhaseGatesOut;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Search-based rewriting (Quartz / QUESO stand-in)
//===----------------------------------------------------------------------===//

Circuit searchRewrite(const Circuit &C, const SearchOptions &Options) {
  using Clock = std::chrono::steady_clock;
  auto Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         Options.TimeoutSeconds));
  std::mt19937_64 Rng(Options.Seed);

  Circuit Best = C;
  int64_t BestT = countGates(Best).TComplexity;
  Circuit Current = C;

  CancelOptions Window;
  Window.MaxLookahead = Options.WindowSize;

  unsigned Stale = 0;
  while (Clock::now() < Deadline) {
    // Local simplification.
    size_t SizeBefore = Current.Gates.size();
    Current = cancelAdjacentGates(Current, Window);
    int64_t T = countGates(Current).TComplexity;
    bool Improved = Current.Gates.size() < SizeBefore || T < BestT;
    if (T < BestT) {
      BestT = T;
      Best = Current;
    }
    // Fixpoint detection: cancellation removed nothing and the T count
    // stayed put (transpositions never change it), so further rounds
    // only reshuffle commuting gates. Stop burning the budget.
    if (Improved)
      Stale = 0;
    else if (++Stale >= StaleRoundLimit)
      break;
    if (Current.Gates.empty())
      break;
    // Randomized commuting transposition to escape local minima.
    if (Current.Gates.size() >= 2) {
      for (unsigned K = 0; K != 32 && Clock::now() < Deadline; ++K) {
        size_t I = Rng() % (Current.Gates.size() - 1);
        if (gatesCommute(Current.Gates[I], Current.Gates[I + 1]))
          std::swap(Current.Gates[I], Current.Gates[I + 1]);
      }
    }
  }
  return Best;
}

} // namespace spire::qopt
