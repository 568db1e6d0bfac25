#include "circuit/Netlist.h"

#include <algorithm>
#include <cassert>

namespace spire::circuit {

Netlist::Netlist(const Circuit &C)
    : Gates(C.Gates.data()), NumQubits(C.NumQubits) {
  Nodes.reserve(C.Gates.size());
  size_t TotalWires = 0;
  for (const Gate &G : C.Gates)
    TotalWires += 1 + G.numControls();
  Links.resize(TotalWires);
  WireHeads.assign(NumQubits, Nil);
  WireTails.assign(NumQubits, Nil);

  uint32_t LinkBase = 0;
  for (size_t I = 0; I != C.Gates.size(); ++I) {
    NodeId Id = static_cast<NodeId>(I);
    Node N;
    N.LinkBase = LinkBase;
    LinkBase += numWires(Id);
    N.Prev = Tail;
    Nodes.push_back(N);
    if (Tail != Nil)
      Nodes[Tail].Next = Id;
    else
      Head = Id;
    Tail = Id;

    unsigned Wires = numWires(Id);
    for (unsigned W = 0; W != Wires; ++W) {
      Qubit Q = wireQubit(Id, W);
      assert(Q < NumQubits && "gate operand out of range");
      Link &L = Links[Nodes[Id].LinkBase + W];
      L.Prev = WireTails[Q];
      L.Next = Nil;
      if (WireTails[Q] != Nil)
        Links[Nodes[WireTails[Q]].LinkBase +
              wireIndexOf(WireTails[Q], Q)].Next = Id;
      else
        WireHeads[Q] = Id;
      WireTails[Q] = Id;
    }
  }
  LiveCount = Nodes.size();
}

unsigned Netlist::wireIndexOf(NodeId N, Qubit Q) const {
  const Gate &G = Gates[N];
  if (G.Target == Q)
    return 0;
  const Qubit *Begin = G.Controls.begin(), *End = G.Controls.end();
  const Qubit *It = std::lower_bound(Begin, End, Q);
  assert(It != End && *It == Q && "node does not touch this qubit");
  return 1 + static_cast<unsigned>(It - Begin);
}

void Netlist::unlink(NodeId N) {
  Node &Me = Nodes[N];
  assert(Me.Live && "unlinking a dead node");

  if (Me.Prev != Nil)
    Nodes[Me.Prev].Next = Me.Next;
  else
    Head = Me.Next;
  if (Me.Next != Nil)
    Nodes[Me.Next].Prev = Me.Prev;
  else
    Tail = Me.Prev;

  unsigned Wires = numWires(N);
  for (unsigned W = 0; W != Wires; ++W) {
    Qubit Q = wireQubit(N, W);
    const Link &L = Links[Me.LinkBase + W];
    if (L.Prev != Nil)
      Links[Nodes[L.Prev].LinkBase + wireIndexOf(L.Prev, Q)].Next = L.Next;
    else
      WireHeads[Q] = L.Next;
    if (L.Next != Nil)
      Links[Nodes[L.Next].LinkBase + wireIndexOf(L.Next, Q)].Prev = L.Prev;
    else
      WireTails[Q] = L.Prev;
  }

  Me.Live = false;
  --LiveCount;
}

void Netlist::restore(NodeId N) {
  Node &Me = Nodes[N];
  assert(!Me.Live && "restoring a live node");

  if (Me.Prev != Nil)
    Nodes[Me.Prev].Next = N;
  else
    Head = N;
  if (Me.Next != Nil)
    Nodes[Me.Next].Prev = N;
  else
    Tail = N;

  unsigned Wires = numWires(N);
  for (unsigned W = 0; W != Wires; ++W) {
    Qubit Q = wireQubit(N, W);
    const Link &L = Links[Me.LinkBase + W];
    if (L.Prev != Nil)
      Links[Nodes[L.Prev].LinkBase + wireIndexOf(L.Prev, Q)].Next = N;
    else
      WireHeads[Q] = N;
    if (L.Next != Nil)
      Links[Nodes[L.Next].LinkBase + wireIndexOf(L.Next, Q)].Prev = N;
    else
      WireTails[Q] = N;
  }

  Me.Live = true;
  ++LiveCount;
}

Circuit Netlist::toCircuit() const {
  Circuit Out;
  Out.NumQubits = NumQubits;
  Out.Gates.reserve(LiveCount);
  for (NodeId N = Head; N != Nil; N = Nodes[N].Next)
    Out.Gates.push_back(Gates[N]);
  return Out;
}

bool Netlist::checkIntegrity() const {
  // Global sequence: doubly linked over exactly the live nodes, in
  // strictly increasing id order.
  size_t Seen = 0;
  NodeId Last = Nil;
  for (NodeId N = Head; N != Nil; N = Nodes[N].Next) {
    if (!Nodes[N].Live)
      return false;
    if (Nodes[N].Prev != Last)
      return false;
    if (Last != Nil && N <= Last)
      return false;
    Last = N;
    if (++Seen > Nodes.size())
      return false; // cycle
  }
  if (Tail != Last || Seen != LiveCount)
    return false;

  // Wire sequences: each wire is a doubly-linked list of live nodes
  // touching that qubit, in increasing id order; counting the wire
  // memberships of every node must account for every link exactly once.
  size_t WireMemberships = 0;
  for (Qubit Q = 0; Q != NumQubits; ++Q) {
    NodeId Prev = Nil;
    size_t Steps = 0;
    for (NodeId N = WireHeads[Q]; N != Nil;) {
      if (!Nodes[N].Live)
        return false;
      if (!Gates[N].touches(Q))
        return false;
      const Link &L = Links[Nodes[N].LinkBase + wireIndexOf(N, Q)];
      if (L.Prev != Prev)
        return false;
      if (Prev != Nil && N <= Prev)
        return false;
      Prev = N;
      ++WireMemberships;
      if (++Steps > Nodes.size())
        return false; // cycle
      N = L.Next;
    }
    if (WireTails[Q] != Prev)
      return false;
  }
  size_t ExpectedMemberships = 0;
  for (NodeId N = Head; N != Nil; N = Nodes[N].Next)
    ExpectedMemberships += numWires(N);
  return WireMemberships == ExpectedMemberships;
}

} // namespace spire::circuit
