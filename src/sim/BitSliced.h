//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-sliced batch simulation of classical reversible (X-only) circuits:
/// 64 basis states per machine word, one `uint64_t` lane per wire.
///
/// Every compiled Tower program without H is a permutation of basis
/// states, and its gates are X with 0..k controls. On that fragment a
/// gate's transfer function is a handful of word-wide AND/XOR ops applied
/// to whole lanes, so one pass over the circuit advances 64 states at
/// once — the backend that turns sampled equivalence checks into
/// exhaustive sweeps at realistic qubit counts (all 2^n states of an
/// n <= 20 qubit circuit are just 2^n/64 blocks).
///
/// The simulator compiles a `circuit::Circuit` into a flat tape of
/// `BitOp`s with pre-resolved wire indices: no per-gate ControlList walk,
/// no heap-allocated operands, just straight-line bit ops over a dense
/// 6-op ISA (flip / xor / and-xor / accumulator chain / lane swap). The
/// tape is deliberately shaped like a JIT IR — each op maps to one or two
/// x64 instructions — so a later native-code backend can translate it
/// directly (the CirX64 route of ROADMAP item 3).
///
/// Validation: `laneAgreesWithBasis` replays any one bit position of a
/// finished block through the gate-at-a-time `sim::runBasis` interpreter
/// and compares lane-for-lane; the equivalence checker's --verify-each
/// hook and the fuzz suite's lane-agreement oracle both use it.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_SIM_BITSLICED_H
#define SPIRE_SIM_BITSLICED_H

#include "circuit/Gate.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace spire::sim {

/// Basis states per lane word (one block = one state per bit).
constexpr unsigned LaneBits = 64;

/// One op of the compiled bit-parallel tape. Operand meaning by kind:
///   Flip     L[T] = ~L[T]                       (uncontrolled X)
///   Cnot     L[T] ^= L[A]                       (singly controlled X)
///   Toffoli  L[T] ^= L[A] & L[B]                (doubly controlled X)
///   AndInit  Acc  = L[A] & L[B]                 (MCX prologue)
///   AndFold  Acc &= L[A]                        (MCX control fold)
///   XorAcc   L[T] ^= Acc                        (MCX epilogue)
///   Swap     swap(L[A], L[B])                   (fused CNOT triple)
struct BitOp {
  enum Kind : uint8_t { Flip, Cnot, Toffoli, AndInit, AndFold, XorAcc, Swap };
  uint8_t K = Flip;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t T = 0;
};

/// Rectangular lane storage for NumBlocks x 64 basis states over
/// NumQubits wires. Block-major: block b is NumQubits contiguous words,
/// lane q of block b holds qubit q of states [64b, 64b+64) — bit i of
/// the word is state 64b+i.
class BatchState {
public:
  BatchState(unsigned NumQubits, uint64_t NumBlocks)
      : Qubits(NumQubits), Blocks(NumBlocks),
        Lanes(static_cast<size_t>(NumQubits) * NumBlocks, 0) {}

  unsigned numQubits() const { return Qubits; }
  uint64_t numBlocks() const { return Blocks; }
  uint64_t numStates() const { return Blocks * LaneBits; }

  uint64_t *block(uint64_t B) { return Lanes.data() + B * Qubits; }
  const uint64_t *block(uint64_t B) const { return Lanes.data() + B * Qubits; }

  bool get(uint64_t State, unsigned Q) const {
    return (block(State / LaneBits)[Q] >> (State % LaneBits)) & 1;
  }
  void set(uint64_t State, unsigned Q, bool V) {
    uint64_t Mask = uint64_t(1) << (State % LaneBits);
    uint64_t &Lane = block(State / LaneBits)[Q];
    Lane = V ? (Lane | Mask) : (Lane & ~Mask);
  }

  /// Loads block `B` with the consecutive basis states Base..Base+63
  /// over the low `Width` wires (state bits above Width are ignored;
  /// wires at or above Width stay |0>). Base must be block-aligned.
  void loadCounter(uint64_t B, uint64_t Base, unsigned Width);

private:
  unsigned Qubits;
  uint64_t Blocks;
  std::vector<uint64_t> Lanes;
};

/// Fills one raw lane block (`NumQubits` words at `L`): with consecutive
/// basis states exactly like BatchState::loadCounter, or with 64
/// independent uniformly random states over the low `Width` wires
/// (SplitMix64 stream; wires above stay |0>) — for callers that stream
/// blocks through scratch buffers instead of materializing a whole
/// BatchState.
void loadCounterBlock(uint64_t *L, unsigned NumQubits, uint64_t Base,
                      unsigned Width);
void loadRandomBlock(uint64_t *L, unsigned NumQubits, unsigned Width,
                     uint64_t &Rng);

/// A batch evaluator for one X-only circuit: compile once, then run the
/// flat op tape over any number of 64-state blocks.
class BitSlicedSimulator {
public:
  /// Compiles the circuit into a flat op tape. Returns std::nullopt when
  /// the circuit contains non-classical gates (H or phases) — callers
  /// fall back to the state-vector path.
  static std::optional<BitSlicedSimulator>
  compile(const circuit::Circuit &C);

  unsigned numQubits() const { return NumQubits; }
  /// Gates of the source circuit (throughput accounting).
  size_t numGates() const { return NumGates; }
  /// Ops of the compiled tape (== gates + (k-1) extra per k>2-control
  /// MCX, minus fused SWAP triples).
  size_t numOps() const { return Tape.size(); }
  const std::vector<BitOp> &tape() const { return Tape; }

  /// Advances one 64-state block in place: `L` points at NumQubits lane
  /// words (qubit q's lane at L[q]).
  void runBlock(uint64_t *L) const;

  /// Advances every block of `B` in place. B must span >= numQubits()
  /// wires; wires past the batch's width do not exist, so the batch must
  /// be at least as wide as the circuit.
  void run(BatchState &B) const;

private:
  BitSlicedSimulator() = default;

  unsigned NumQubits = 0;
  size_t NumGates = 0;
  std::vector<BitOp> Tape;
};

/// Lane-agreement oracle: extracts the basis state at bit position `Bit`
/// of the input block `In` (NumQubits lane words), replays it through the
/// gate-at-a-time sim::runBasis interpreter on `C`, and compares the
/// result wire-for-wire against the same bit of the finished block `Out`.
/// Returns true when every wire agrees — the cross-check that validates
/// the bit-sliced backend against the interpreter it replaces.
bool laneAgreesWithBasis(const circuit::Circuit &C, const uint64_t *In,
                         const uint64_t *Out, unsigned Bit);

} // namespace spire::sim

#endif // SPIRE_SIM_BITSLICED_H
