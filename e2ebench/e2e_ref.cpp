/// e2e_ref — the end-to-end benchmark's reference workload.
///
/// Usage: e2e_ref <reps>
///
/// Runs a fixed piece of work `reps` times and prints each repetition's
/// seconds, one per line. An untimed repetition goes first, because a
/// fresh process runs its first one slower, while its heap grows.
///
/// The work imitates the resource profile of a spirec compile: a hash
/// map, many small allocations walked in shuffled order, fresh heap pages
/// and text formatting. Its working sets exceed a core's L2 cache, as a
/// compile's do, so its time follows the shared machine's speed in about
/// the same proportion: between a slow and a fast spell of the machine
/// this work sped up 1.37x and `f --emit qc` 1.41x, where the same work
/// on a fifth of the data, mostly in L2, sped up 1.76x.
///
/// It links nothing from the repository, so a change to the compiler
/// cannot change it. run.py runs it between spirec runs to measure how
/// fast the machine is at that moment, and scales its times to a fixed
/// machine speed.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

uint64_t splitMix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Written once at the end, so the work is observable.
volatile uint64_t Observed;

struct Node {
  Node *Next;
  uint64_t Value;
};

/// One repetition; returns a value that depends on all of the work, so
/// the compiler cannot drop any of it.
uint64_t work() {
  uint64_t Sink = 0;

  // A hash map: inserts, then hits and misses.
  std::unordered_map<uint64_t, uint64_t> Map;
  for (uint64_t I = 0; I < 200000; ++I)
    Map[splitMix(I)] = I;
  for (uint64_t I = 0; I < 400000; ++I) {
    auto It = Map.find(splitMix(I));
    if (It != Map.end())
      Sink += It->second;
  }

  // Small allocations linked in shuffled order, then walked.
  constexpr uint32_t Nodes = 200000;
  std::vector<std::unique_ptr<Node>> Owned;
  Owned.reserve(Nodes);
  for (uint32_t I = 0; I < Nodes; ++I)
    Owned.emplace_back(new Node{nullptr, I});
  std::vector<uint32_t> Order(Nodes);
  for (uint32_t I = 0; I < Nodes; ++I)
    Order[I] = I;
  for (uint32_t I = Nodes - 1; I > 0; --I)
    std::swap(Order[I], Order[splitMix(I) % (I + 1)]);
  for (uint32_t I = 0; I + 1 < Nodes; ++I)
    Owned[Order[I]]->Next = Owned[Order[I + 1]].get();
  for (int Pass = 0; Pass < 4; ++Pass)
    for (Node *N = Owned[Order[0]].get(); N; N = N->Next)
      Sink += N->Value;

  // Fresh pages, as a compile's heap grows.
  {
    constexpr size_t Bytes = 64u << 20;
    std::unique_ptr<char[]> Pages(new char[Bytes]);
    for (size_t I = 0; I < Bytes; I += 4096)
      Pages[I] = static_cast<char>(I >> 12);
    Sink += static_cast<unsigned char>(Pages[Bytes / 2]);
  }

  // Text formatting, as a circuit is rendered.
  std::string Text;
  char Line[64];
  for (int I = 0; I < 300000; ++I) {
    int N = std::snprintf(Line, sizeof Line, "tof q%d q%d q%d\n", I, I + 1,
                          static_cast<int>(splitMix(I) % 1000));
    Text.append(Line, static_cast<size_t>(N));
  }
  return Sink + Text.size();
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 2 || std::atoi(Argv[1]) < 1) {
    std::fprintf(stderr, "usage: e2e_ref <reps>\n");
    return 2;
  }
  int Reps = std::atoi(Argv[1]);
  uint64_t Sink = work();
  for (int R = 0; R < Reps; ++R) {
    auto Start = std::chrono::steady_clock::now();
    Sink += work();
    std::chrono::duration<double> Took =
        std::chrono::steady_clock::now() - Start;
    std::printf("%.9f\n", Took.count());
  }
  Observed = Sink;
  return 0;
}
