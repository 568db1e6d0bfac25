//===----------------------------------------------------------------------===//
// Tests for circuit::Netlist: construction from a circuit, global and
// per-wire traversal, unlink/restore link integrity (including the
// dancing-links LIFO restore discipline), and randomized integrity
// sweeps — the structure the qopt cancellation worklist runs over.
//===----------------------------------------------------------------------===//

#include "circuit/Netlist.h"

#include <gtest/gtest.h>
#include <random>
#include <vector>

using namespace spire::circuit;

namespace {

/// length-5 ladder touching overlapping wires:
///   0: X q2 (c: q0 q1)   1: X q3 (c: q0)   2: H q1
///   3: T q2              4: X q2 (c: q0 q1)
Circuit ladder() {
  Circuit C;
  C.NumQubits = 4;
  C.addX(2, {0, 1});
  C.addX(3, {0});
  C.addH(1);
  C.add(Gate(GateKind::T, 2));
  C.addX(2, {0, 1});
  return C;
}

std::vector<Netlist::NodeId> globalOrder(const Netlist &N) {
  std::vector<Netlist::NodeId> Order;
  for (Netlist::NodeId Id = N.head(); Id != Netlist::Nil; Id = N.next(Id))
    Order.push_back(Id);
  return Order;
}

std::vector<Netlist::NodeId> wireOrder(const Netlist &N, Qubit Q) {
  std::vector<Netlist::NodeId> Order;
  for (Netlist::NodeId Id = N.wireHead(Q); Id != Netlist::Nil;
       Id = N.nextOnWire(Id, Q))
    Order.push_back(Id);
  return Order;
}

} // namespace

TEST(Netlist, BuildsGlobalAndWireSequences) {
  Circuit C = ladder();
  Netlist N(C);
  EXPECT_TRUE(N.checkIntegrity());
  EXPECT_EQ(N.liveCount(), 5u);
  EXPECT_EQ(globalOrder(N), (std::vector<Netlist::NodeId>{0, 1, 2, 3, 4}));
  // Wire 0 is touched (as a control) by gates 0, 1, 4.
  EXPECT_EQ(wireOrder(N, 0), (std::vector<Netlist::NodeId>{0, 1, 4}));
  // Wire 2 is the target of gates 0, 3, 4.
  EXPECT_EQ(wireOrder(N, 2), (std::vector<Netlist::NodeId>{0, 3, 4}));
  // Wire 3 only belongs to gate 1.
  EXPECT_EQ(wireOrder(N, 3), (std::vector<Netlist::NodeId>{1}));
  // Wire indexing: wire 0 is the target, then sorted controls.
  EXPECT_EQ(N.wireQubit(0, 0), 2u);
  EXPECT_EQ(N.wireQubit(0, 1), 0u);
  EXPECT_EQ(N.wireQubit(0, 2), 1u);
}

TEST(Netlist, ToCircuitRoundTrips) {
  Circuit C = ladder();
  Netlist N(C);
  Circuit Back = N.toCircuit();
  EXPECT_EQ(Back.NumQubits, C.NumQubits);
  ASSERT_EQ(Back.Gates.size(), C.Gates.size());
  for (size_t I = 0; I != C.Gates.size(); ++I)
    EXPECT_TRUE(Back.Gates[I] == C.Gates[I]) << "gate " << I;
}

TEST(Netlist, UnlinkSplicesNeighborsOnEveryWire) {
  Circuit C = ladder();
  Netlist N(C);
  N.unlink(1); // X q3 (c: q0): wire 0's list must become 0 -> 4.
  EXPECT_TRUE(N.checkIntegrity());
  EXPECT_EQ(N.liveCount(), 4u);
  EXPECT_FALSE(N.live(1));
  EXPECT_EQ(globalOrder(N), (std::vector<Netlist::NodeId>{0, 2, 3, 4}));
  EXPECT_EQ(wireOrder(N, 0), (std::vector<Netlist::NodeId>{0, 4}));
  EXPECT_EQ(wireOrder(N, 3), std::vector<Netlist::NodeId>{});
  // O(1) neighbor queries see through the removal.
  EXPECT_EQ(N.nextOnWire(0, 0), 4u);
  EXPECT_EQ(N.prevOnWire(4, 0), 0u);
}

TEST(Netlist, UnlinkHeadAndTail) {
  Circuit C = ladder();
  Netlist N(C);
  N.unlink(0);
  N.unlink(4);
  EXPECT_TRUE(N.checkIntegrity());
  EXPECT_EQ(N.head(), 1u);
  EXPECT_EQ(N.tail(), 3u);
  EXPECT_EQ(wireOrder(N, 2), (std::vector<Netlist::NodeId>{3}));
  EXPECT_EQ(N.toCircuit().Gates.size(), 3u);
}

TEST(Netlist, RestoreUndoesUnlinkInLifoOrder) {
  Circuit C = ladder();
  Netlist N(C);
  N.unlink(1);
  N.unlink(3);
  N.unlink(0);
  EXPECT_TRUE(N.checkIntegrity());
  // Dancing-links restore: exactly the reverse order of the unlinks.
  N.restore(0);
  N.restore(3);
  N.restore(1);
  EXPECT_TRUE(N.checkIntegrity());
  EXPECT_EQ(N.liveCount(), 5u);
  EXPECT_EQ(globalOrder(N), (std::vector<Netlist::NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(wireOrder(N, 0), (std::vector<Netlist::NodeId>{0, 1, 4}));
  Circuit Back = N.toCircuit();
  ASSERT_EQ(Back.Gates.size(), C.Gates.size());
  for (size_t I = 0; I != C.Gates.size(); ++I)
    EXPECT_TRUE(Back.Gates[I] == C.Gates[I]) << "gate " << I;
}

TEST(Netlist, EmptyCircuit) {
  Circuit C;
  C.NumQubits = 3;
  Netlist N(C);
  EXPECT_TRUE(N.checkIntegrity());
  EXPECT_EQ(N.head(), Netlist::Nil);
  EXPECT_EQ(N.wireHead(0), Netlist::Nil);
  EXPECT_EQ(N.toCircuit().Gates.size(), 0u);
}

TEST(Netlist, McxWiresSpillPastInlineControls) {
  Circuit C;
  C.NumQubits = 6;
  C.addX(5, {0, 1, 2, 3, 4}); // 5 controls: heap-spilled ControlList.
  C.addX(5, {0, 1, 2, 3, 4});
  C.addX(0, {3});
  Netlist N(C);
  EXPECT_TRUE(N.checkIntegrity());
  EXPECT_EQ(N.numWires(0), 6u);
  EXPECT_EQ(wireOrder(N, 3), (std::vector<Netlist::NodeId>{0, 1, 2}));
  N.unlink(1);
  EXPECT_TRUE(N.checkIntegrity());
  EXPECT_EQ(wireOrder(N, 3), (std::vector<Netlist::NodeId>{0, 2}));
}

TEST(Netlist, RandomizedUnlinkRestoreIntegritySweep) {
  std::mt19937_64 Rng(42);
  Circuit C;
  C.NumQubits = 8;
  for (unsigned I = 0; I != 200; ++I) {
    Qubit T = Rng() % 8;
    switch (Rng() % 4) {
    case 0:
      C.addX(T);
      break;
    case 1:
      C.addX(T, {static_cast<Qubit>((T + 1 + Rng() % 7) % 8)});
      break;
    case 2: {
      Qubit A = (T + 1 + Rng() % 7) % 8;
      Qubit B = (T + 1 + Rng() % 7) % 8;
      if (B == A)
        B = (B + 1) % 8 == T ? (B + 2) % 8 : (B + 1) % 8;
      C.addX(T, {A, B});
      break;
    }
    default:
      C.add(Gate(Rng() % 2 ? GateKind::T : GateKind::H, T));
      break;
    }
  }

  Netlist N(C);
  ASSERT_TRUE(N.checkIntegrity());
  std::vector<Netlist::NodeId> Unlinked;
  for (int Step = 0; Step != 120; ++Step) {
    Netlist::NodeId Id = Rng() % N.size();
    if (N.live(Id)) {
      N.unlink(Id);
      Unlinked.push_back(Id);
    }
    if (Step % 10 == 9) {
      ASSERT_TRUE(N.checkIntegrity()) << "after step " << Step;
    }
  }
  ASSERT_TRUE(N.checkIntegrity());
  // Full LIFO restore returns to the original circuit.
  while (!Unlinked.empty()) {
    N.restore(Unlinked.back());
    Unlinked.pop_back();
  }
  ASSERT_TRUE(N.checkIntegrity());
  EXPECT_EQ(N.liveCount(), C.Gates.size());
  Circuit Back = N.toCircuit();
  ASSERT_EQ(Back.Gates.size(), C.Gates.size());
  for (size_t I = 0; I != C.Gates.size(); ++I)
    EXPECT_TRUE(Back.Gates[I] == C.Gates[I]) << "gate " << I;
}
