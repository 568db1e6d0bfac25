#include "qopt/Passes.h"

#include "circuit/Netlist.h"
#include "support/Governor.h"
#include "support/Hash.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>
#include <random>
#include <unordered_map>
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

  /// Bounded scan: walk the global sequence exactly like the reference
  /// implementation walked the gate vector — every scanned gate, sharing
  /// wires or not, consumes lookahead budget (this is what makes the
  /// peephole configurations genuinely weaker).
  Netlist::NodeId findPartnerBounded(Netlist::NodeId A) {
    const Gate &GA = N.gate(A);
    unsigned Scanned = 0;
    for (Netlist::NodeId B = N.next(A); B != Netlist::Nil; B = N.next(B)) {
      const Gate &GB = N.gate(B);
      if (isInversePair(GA, GB))
        return B;
      if (!gatesCommute(GA, GB))
        return Netlist::Nil;
      if (++Scanned >= Options.MaxLookahead)
        return Netlist::Nil;
    }
    return Netlist::Nil;
  }

  /// Unbounded scan: under the conservative commutation rules, gates on
  /// disjoint qubits always commute and can never be partners, so only
  /// gates sharing a wire with A matter. Walk them in circuit order by
  /// advancing one cursor per wire of A (node ids are positions). Stop
  /// at the first non-commuting gate, or at a gate identical to A — any
  /// partner beyond it pairs with that closer copy instead, and A gets
  /// re-enqueued when it does.
  Netlist::NodeId findPartnerUnbounded(Netlist::NodeId A) {
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
      const Gate &GB = N.gate(B);
      if (isInversePair(GA, GB))
        return B;
      if (!gatesCommute(GA, GB))
        return Netlist::Nil;
      if (GB == GA)
        return Netlist::Nil;
      for (unsigned W = 0; W != K; ++W)
        if (Cur[W] == B)
          Cur[W] = N.nextOnWire(B, N.wireQubit(A, W));
    }
  }

  bool tryCancel(Netlist::NodeId A) {
    Netlist::NodeId B =
        Unbounded ? findPartnerUnbounded(A) : findPartnerBounded(A);
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
    for (Netlist::NodeId Id : Neighbors)
      enqueue(Id);
    return true;
  }

  Netlist &N;
  const CancelOptions &Options;
  bool Unbounded;
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

Circuit cancelAdjacentGatesReference(const Circuit &C,
                                     const CancelOptions &Options) {
  std::vector<Gate> Gates = C.Gates;
  std::vector<bool> Removed(Gates.size(), false);

  for (unsigned Round = 0; Round != Options.MaxRounds; ++Round) {
    bool Changed = false;
    for (size_t I = 0; I != Gates.size(); ++I) {
      if (Removed[I])
        continue;
      unsigned Scanned = 0;
      for (size_t J = I + 1; J != Gates.size(); ++J) {
        if (Removed[J])
          continue;
        if (isInversePair(Gates[I], Gates[J])) {
          Removed[I] = Removed[J] = true;
          Changed = true;
          break;
        }
        if (!gatesCommute(Gates[I], Gates[J]))
          break;
        if (++Scanned >= Options.MaxLookahead)
          break;
      }
    }
    if (!Changed)
      break;
    // Compact so later rounds see newly adjacent pairs.
    std::vector<Gate> Compacted;
    Compacted.reserve(Gates.size());
    for (size_t I = 0; I != Gates.size(); ++I)
      if (!Removed[I])
        Compacted.push_back(std::move(Gates[I]));
    Gates = std::move(Compacted);
    Removed.assign(Gates.size(), false);
  }

  Circuit Out;
  Out.NumQubits = C.NumQubits;
  for (size_t I = 0; I != Gates.size(); ++I)
    if (!Removed[I])
      Out.Gates.push_back(std::move(Gates[I]));
  return Out;
}

//===----------------------------------------------------------------------===//
// Phase folding (rotation merging)
//===----------------------------------------------------------------------===//

namespace {

using support::mix64; // The per-variable mixer behind the parity hash.

/// A wire parity: a sorted set of region variables, XOR-composed, plus a
/// complement bit. `Hash` is the XOR of mix64 over the variables —
/// order-independent, so every update is O(1) on top of the set edit,
/// and it keys the hashed phase table below (the complement bit is
/// deliberately outside the key, exactly like the reference pass).
struct Parity {
  std::vector<uint32_t> Vars; // Sorted, unique.
  uint64_t Hash = 0;
  bool Complemented = false;

  void reset(uint32_t V) {
    Vars.assign(1, V);
    Hash = mix64(V);
    Complemented = false;
  }
  void xorVar(uint32_t V) {
    auto It = std::lower_bound(Vars.begin(), Vars.end(), V);
    if (It != Vars.end() && *It == V)
      Vars.erase(It);
    else
      Vars.insert(It, V);
    Hash ^= mix64(V);
  }
  void xorWith(const Parity &O) {
    std::vector<uint32_t> Merged;
    Merged.reserve(Vars.size() + O.Vars.size());
    std::set_symmetric_difference(Vars.begin(), Vars.end(), O.Vars.begin(),
                                  O.Vars.end(), std::back_inserter(Merged));
    Vars = std::move(Merged);
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

/// Emits phase gates realizing `Units` (mod 8) of pi/4 onto a wire.
void emitPhase(int Units, Qubit Target, std::vector<Gate> &Out) {
  Units = ((Units % 8) + 8) % 8;
  if (Units >= 4) {
    Out.push_back(Gate(GateKind::Z, Target));
    Units -= 4;
  }
  if (Units >= 2) {
    Out.push_back(Gate(GateKind::S, Target));
    Units -= 2;
  }
  if (Units == 1)
    Out.push_back(Gate(GateKind::T, Target));
}

/// One merged rotation accumulator, anchored at its first contribution.
struct PhaseAccum {
  std::vector<uint32_t> Vars; ///< The parity this accumulates over.
  int Units = 0;
  size_t FirstGate = 0; ///< Index in C.Gates of the first contribution.
  Qubit Target = 0;
  bool FirstComplemented = false; ///< Wire complement at the first site.
};

} // namespace

Circuit phaseFold(const Circuit &C, OptStats *Stats) {
  std::vector<Parity> Wire(C.NumQubits);
  uint32_t NextVar = 0;
  for (unsigned Q = 0; Q != C.NumQubits; ++Q)
    Wire[Q].reset(NextVar++);

  // Support cap: a parity whose variable set outgrows the register (rare
  // in compiled circuits, constructible with long H-interleaved CNOT
  // chains) is replaced by an opaque fresh variable — semantically the
  // same conservative give-up as an H barrier, so the pass stays sound
  // while every per-gate step stays O(cap). Small circuits (fewer gates
  // than the cap) can never hit it, which keeps the pass gate-for-gate
  // identical to phaseFoldReference on the differential-test sizes.
  const size_t MaxSupport = std::max<size_t>(64, 2 * C.NumQubits);

  // The phase table, keyed by the parity's incremental hash; the rare
  // collision chains through the bucket vector and is resolved by exact
  // Vars comparison, so hashing never changes which rotations merge.
  std::unordered_map<uint64_t, std::vector<PhaseAccum>> Phases;
  Phases.reserve(C.Gates.size() / 4 + 16);
  // Non-phase gates survive; phase gates are replaced by merged emissions.
  std::vector<bool> IsPhaseGate(C.Gates.size(), false);
  int64_t PhaseGatesIn = 0;

  for (size_t I = 0; I != C.Gates.size(); ++I) {
    // Governor checkpoint: folding is a pure rewrite, so on a tripped
    // budget the unmodified input is a sound early answer; the stage
    // wrapper reports the limit and fails the run.
    if (!support::Governor::poll())
      return C;
    const Gate &G = C.Gates[I];
    if (G.isPhase() && G.Controls.empty()) {
      IsPhaseGate[I] = true;
      ++PhaseGatesIn;
      Parity &P = Wire[G.Target];
      int Units = phaseUnits(G.Kind);
      // A phase on a complemented parity 1^p contributes a global phase
      // plus the negated rotation on p.
      if (P.Complemented)
        Units = -Units;
      std::vector<PhaseAccum> &Bucket = Phases[P.Hash];
      PhaseAccum *A = nullptr;
      for (PhaseAccum &Candidate : Bucket)
        if (Candidate.Vars == P.Vars) {
          A = &Candidate;
          break;
        }
      if (!A) {
        Bucket.emplace_back();
        A = &Bucket.back();
        A->Vars = P.Vars;
        A->FirstGate = I;
        A->Target = G.Target;
        A->FirstComplemented = P.Complemented;
      }
      A->Units = (A->Units + Units) % 8;
      continue;
    }
    switch (G.Kind) {
    case GateKind::X:
      if (G.Controls.empty()) {
        Wire[G.Target].Complemented ^= true;
      } else if (G.Controls.size() == 1) {
        Wire[G.Target].xorWith(Wire[G.Controls[0]]);
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

  // Re-emit: non-phase gates as-is; merged phases at their first site.
  std::unordered_map<size_t, const PhaseAccum *> EmitAt;
  EmitAt.reserve(Phases.size());
  for (const auto &[Hash, Bucket] : Phases)
    for (const PhaseAccum &A : Bucket)
      if (A.Units % 8 != 0)
        EmitAt[A.FirstGate] = &A;

  Circuit Out;
  Out.NumQubits = C.NumQubits;
  Out.Gates.reserve(C.Gates.size());
  int64_t EmittedSites = 0, PhaseGatesOut = 0;
  for (size_t I = 0; I != C.Gates.size(); ++I) {
    auto It = EmitAt.find(I);
    if (It != EmitAt.end()) {
      // The emission site's wire holds p ^ c where c is the complement at
      // that point; realizing k units of phase on p requires -k when the
      // wire was complemented (up to global phase).
      const PhaseAccum &A = *It->second;
      ++EmittedSites;
      size_t Before = Out.Gates.size();
      emitPhase(A.FirstComplemented ? -A.Units : A.Units, A.Target,
                Out.Gates);
      PhaseGatesOut += static_cast<int64_t>(Out.Gates.size() - Before);
    }
    if (!IsPhaseGate[I])
      Out.Gates.push_back(C.Gates[I]);
  }
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

Circuit phaseFoldReference(const Circuit &C) {
  std::vector<Parity> Wire(C.NumQubits);
  uint32_t NextVar = 0;
  for (unsigned Q = 0; Q != C.NumQubits; ++Q)
    Wire[Q].reset(NextVar++);

  struct Accum {
    int Units = 0;
    size_t FirstGate = 0;
    Qubit Target = 0;
    bool FirstComplemented = false;
  };
  std::map<std::vector<uint32_t>, Accum> Phases;
  std::vector<bool> IsPhaseGate(C.Gates.size(), false);

  for (size_t I = 0; I != C.Gates.size(); ++I) {
    const Gate &G = C.Gates[I];
    if (G.isPhase() && G.Controls.empty()) {
      IsPhaseGate[I] = true;
      Parity &P = Wire[G.Target];
      int Units = phaseUnits(G.Kind);
      if (P.Complemented)
        Units = -Units;
      auto [It, Fresh] = Phases.try_emplace(P.Vars);
      if (Fresh) {
        It->second.FirstGate = I;
        It->second.Target = G.Target;
        It->second.FirstComplemented = P.Complemented;
      }
      It->second.Units = (It->second.Units + Units) % 8;
      continue;
    }
    switch (G.Kind) {
    case GateKind::X:
      if (G.Controls.empty()) {
        Wire[G.Target].Complemented ^= true;
      } else if (G.Controls.size() == 1) {
        Wire[G.Target].xorWith(Wire[G.Controls[0]]);
      } else {
        Wire[G.Target].reset(NextVar++);
      }
      break;
    case GateKind::H:
    default:
      Wire[G.Target].reset(NextVar++);
      break;
    }
  }

  std::map<size_t, const Accum *> EmitAt;
  for (const auto &[Vars, A] : Phases)
    if (A.Units % 8 != 0)
      EmitAt[A.FirstGate] = &A;

  Circuit Out;
  Out.NumQubits = C.NumQubits;
  for (size_t I = 0; I != C.Gates.size(); ++I) {
    auto It = EmitAt.find(I);
    if (It != EmitAt.end()) {
      const Accum &A = *It->second;
      emitPhase(A.FirstComplemented ? -A.Units : A.Units, A.Target,
                Out.Gates);
    }
    if (!IsPhaseGate[I])
      Out.Gates.push_back(C.Gates[I]);
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
