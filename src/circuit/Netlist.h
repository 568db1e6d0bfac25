//===----------------------------------------------------------------------===//
///
/// \file
/// Wire-linked netlist over a circuit's gate list: every gate is a node
/// in one global doubly-linked sequence (circuit order) and, for each
/// qubit it touches, in a per-wire doubly-linked sequence. "The previous
/// or next gate touching qubit q" is therefore O(1) instead of a scan —
/// the structure behind the near-linear cancellation pass of src/qopt
/// (Nam et al. 2018 organize their linear-pass optimizer the same way).
///
/// Nodes are created once from a Circuit and never move; node ids are
/// assigned in circuit order, so id comparison is position comparison.
/// Removal (`unlink`) splices a node out of the global and all wire
/// sequences in O(wires); the node keeps its own link values, so
/// `restore` can splice it back dancing-links style (restores must be in
/// LIFO order with respect to unlinks, as in Knuth's DLX).
///
/// The per-wire links live in one flat pool sized by the circuit's total
/// operand count — building a netlist performs O(1) allocations however
/// many gates it holds.
///
/// The netlist borrows its gates: node N's gate is the circuit's
/// `Gates[N]`, read in place, and a node holds only its links (16
/// bytes). A netlist must therefore not outlive the circuit it was built
/// from, nor see that circuit's gate vector modified; construction from
/// a temporary circuit is deleted.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_CIRCUIT_NETLIST_H
#define SPIRE_CIRCUIT_NETLIST_H

#include "circuit/Gate.h"

#include <cstdint>
#include <vector>

namespace spire::circuit {

class Netlist {
public:
  using NodeId = uint32_t;
  static constexpr NodeId Nil = 0xffffffffu;

  explicit Netlist(const Circuit &C);
  /// The nodes would borrow the gates of a circuit about to be destroyed.
  Netlist(Circuit &&) = delete;

  unsigned numQubits() const { return NumQubits; }
  /// Total nodes ever created (live or unlinked); node ids are < size().
  size_t size() const { return Nodes.size(); }
  /// Nodes currently linked.
  size_t liveCount() const { return LiveCount; }

  // -- Global (circuit-order) sequence. -------------------------------------
  NodeId head() const { return Head; }
  NodeId tail() const { return Tail; }
  NodeId next(NodeId N) const { return Nodes[N].Next; }
  NodeId prev(NodeId N) const { return Nodes[N].Prev; }

  const Gate &gate(NodeId N) const { return Gates[N]; }
  bool live(NodeId N) const { return Nodes[N].Live; }

  // -- Per-wire sequences. ---------------------------------------------------
  /// Wires of a node: wire 0 is the target, wires 1..numControls() the
  /// controls in sorted order.
  unsigned numWires(NodeId N) const { return 1 + Gates[N].numControls(); }
  Qubit wireQubit(NodeId N, unsigned W) const {
    const Gate &G = Gates[N];
    return W == 0 ? G.Target : G.Controls[W - 1];
  }
  NodeId wireNext(NodeId N, unsigned W) const {
    return Links[Nodes[N].LinkBase + W].Next;
  }
  NodeId wirePrev(NodeId N, unsigned W) const {
    return Links[Nodes[N].LinkBase + W].Prev;
  }
  /// Next/previous node touching qubit Q after/before N. N must touch Q.
  NodeId nextOnWire(NodeId N, Qubit Q) const {
    return Links[Nodes[N].LinkBase + wireIndexOf(N, Q)].Next;
  }
  NodeId prevOnWire(NodeId N, Qubit Q) const {
    return Links[Nodes[N].LinkBase + wireIndexOf(N, Q)].Prev;
  }
  NodeId wireHead(Qubit Q) const { return WireHeads[Q]; }
  NodeId wireTail(Qubit Q) const { return WireTails[Q]; }

  // -- Mutation. -------------------------------------------------------------
  /// Splices N out of the global sequence and every wire sequence it is
  /// on. N keeps its own link values for restore().
  void unlink(NodeId N);
  /// Splices an unlinked N back between its remembered neighbors.
  /// Restores must happen in LIFO order relative to unlinks.
  void restore(NodeId N);

  /// The live gates, in sequence order, as a Circuit.
  Circuit toCircuit() const;

  /// Exhaustive structural validation (tests): global and wire sequences
  /// are mutually consistent doubly-linked lists over exactly the live
  /// nodes, in strictly increasing id order, and every live node appears
  /// on each of its wires exactly once.
  bool checkIntegrity() const;

private:
  struct Link {
    NodeId Prev = Nil, Next = Nil;
  };
  struct Node {
    NodeId Prev = Nil, Next = Nil;
    uint32_t LinkBase = 0;
    bool Live = true;
  };

  /// Index of qubit Q among N's wires (0 = target, else 1 + control
  /// position via binary search of the sorted control list).
  unsigned wireIndexOf(NodeId N, Qubit Q) const;

  const Gate *Gates; ///< The source circuit's gates, indexed by node id.
  std::vector<Node> Nodes;
  std::vector<Link> Links;
  std::vector<NodeId> WireHeads, WireTails;
  NodeId Head = Nil, Tail = Nil;
  size_t LiveCount = 0;
  unsigned NumQubits = 0;
};

} // namespace spire::circuit

#endif // SPIRE_CIRCUIT_NETLIST_H
