#include "support/FileIO.h"

#include "support/FaultInjector.h"
#include "support/Governor.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace spire::support {

namespace {

/// True when \p Path names an existing non-regular file (device, pipe,
/// socket). rename(2) onto those would replace the special file with a
/// regular one, so they take the direct-write path.
bool isNonRegularDestination(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0)
    return false; // Missing: the rename will create a regular file.
  return !S_ISREG(St.st_mode);
}

/// The staging temp of a regular destination; the `.tmp.<pid>` suffix is
/// what sweepStaleTempFiles recognizes.
std::string stagingPath(const std::string &Path) {
  return Path + ".tmp." + std::to_string(::getpid());
}

/// read(2) until \p N bytes or end of file; returns the count read, or
/// -1 on error.
ssize_t readFully(int Fd, char *Data, size_t N) {
  size_t Done = 0;
  while (Done < N) {
    ssize_t Got = ::read(Fd, Data + Done, N - Done);
    if (Got < 0 && errno == EINTR)
      continue;
    if (Got < 0)
      return -1;
    if (Got == 0)
      break;
    Done += static_cast<size_t>(Got);
  }
  return static_cast<ssize_t>(Done);
}

} // namespace

bool readFile(const std::string &Path, std::string &Out, std::string &Error,
              const char *FaultSite) {
  if (FaultSite && faultIo(FaultSite)) {
    Error = "cannot read " + Path + " (injected fault at " + FaultSite + ")";
    return false;
  }
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0) {
    Error = "cannot read " + Path;
    return false;
  }
  // Read straight into a string sized from fstat, so the bytes are
  // copied once. The spare byte reads end of file without growing the
  // string; pipes and devices report no size and grow by doubling.
  std::string Text;
  struct stat St;
  Text.resize(::fstat(Fd, &St) == 0 && S_ISREG(St.st_mode)
                  ? static_cast<size_t>(St.st_size) + 1
                  : 4096);
  size_t Len = 0;
  for (;;) {
    ssize_t Got = readFully(Fd, Text.data() + Len, Text.size() - Len);
    if (Got < 0) {
      ::close(Fd);
      Error = "read of " + Path + " failed";
      return false;
    }
    Len += static_cast<size_t>(Got);
    if (Len < Text.size())
      break; // A short read is end of file.
    Text.resize(Text.size() * 2);
  }
  ::close(Fd);
  Text.resize(Len);
  Out = std::move(Text);
  return true;
}

// -- OutputSink ----------------------------------------------------------

OutputSink::OutputSink()
    : Storage(new char[Capacity]), Buf(Storage.get()), Pos(Buf),
      End(Buf + Capacity) {}

OutputSink::~OutputSink() = default;

void OutputSink::stop(std::string Reason) {
  if (Stopped)
    return;
  Stopped = true;
  Error = std::move(Reason);
  // Drop what is buffered and take no more: every later write is slow.
  Pos = End = Buf;
}

bool OutputSink::charge(uint64_t Total) {
  if (ChargesOutputCap && !Stopped)
    if (Governor *Gov = Governor::current();
        Gov && !Gov->checkOutputBytes(static_cast<int64_t>(Total)))
      stop("output cap exceeded");
  return !Stopped;
}

bool OutputSink::deliver(const char *Data, size_t N) {
  if (Stopped || !charge(Drained + N))
    return false;
  Drained += N;
  if (N != 0 && !drain(Data, N))
    stop(Error);
  return !Stopped;
}

bool OutputSink::flush() {
  size_t N = static_cast<size_t>(Pos - Buf);
  Pos = Buf;
  return deliver(Buf, N);
}

void OutputSink::writeSlow(std::string_view S) {
  if (Stopped)
    return;
  if (S.size() >= Capacity) {
    // Large pieces (a whole artifact handed to writeFileAtomic, a cache
    // hit copied into the sink) bypass the buffer.
    if (flush())
      deliver(S.data(), S.size());
    return;
  }
  // One flush suffices: the piece is smaller than the emptied buffer.
  size_t Room = static_cast<size_t>(End - Pos);
  std::memcpy(Pos, S.data(), Room);
  Pos += Room;
  S.remove_prefix(Room);
  if (!flush())
    return;
  std::memcpy(Pos, S.data(), S.size());
  Pos += S.size();
}

char *OutputSink::reserveSlow(size_t N) {
  if (Stopped || N > Capacity || !flush())
    return nullptr;
  return Pos;
}

void OutputSink::writeDecimal(uint64_t N) {
  char Digits[20];
  char *Last = std::to_chars(Digits, Digits + sizeof(Digits), N).ptr;
  write(std::string_view(Digits, static_cast<size_t>(Last - Digits)));
}

NameTable::NameTable(uint32_t Count, std::string_view Prefix,
                     std::string_view Suffix)
    : Prefix(Prefix), Suffix(Suffix), Slots(Count) {
  assert(Prefix.size() + Suffix.size() <= 5 && "spelling exceeds its slot");
  for (uint32_t I = 0; I != Count; ++I)
    spell(Slots[I], I);
}

const NameTable::Slot &NameTable::spell(Slot &S, uint32_t I) const {
  char *P = std::copy(Prefix.begin(), Prefix.end(), S.Text);
  P = std::to_chars(P, S.Text + sizeof(S.Text), I).ptr;
  P = std::copy(Suffix.begin(), Suffix.end(), P);
  S.Len = static_cast<uint8_t>(P - S.Text);
  return S;
}

// -- StringSink ----------------------------------------------------------

StringSink::~StringSink() { flush(); }

bool StringSink::drain(const char *Data, size_t N) {
  Out.append(Data, N);
  return true;
}

// -- StagedFile ----------------------------------------------------------

StagedFile::StagedFile(std::string Path) : Path(std::move(Path)) {
  if (!isNonRegularDestination(this->Path))
    Temp = stagingPath(this->Path);
}

StagedFile::~StagedFile() { discard(); }

void StagedFile::discard() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  if (!Committed && !Temp.empty())
    ::unlink(Temp.c_str());
}

bool StagedFile::open() {
  const std::string &Target = Temp.empty() ? Path : Temp;
  Fd = ::open(Target.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (Fd < 0) {
    Error = "cannot open " + Path + " for writing";
    return false;
  }
  return true;
}

bool StagedFile::drain(const char *Data, size_t N) {
  if (Fd < 0 && !open())
    return false;
  while (N != 0) {
    ssize_t Put = ::write(Fd, Data, N);
    if (Put < 0 && errno == EINTR)
      continue;
    if (Put <= 0) {
      Error = "write to " + Path + " failed";
      return false;
    }
    Data += Put;
    N -= static_cast<size_t>(Put);
  }
  return true;
}

bool StagedFile::commit(std::string &ErrorOut, const char *FaultSite) {
  auto fail = [&](std::string Reason) {
    discard();
    ErrorOut = std::move(Reason);
    return false;
  };
  flush();
  if (!stopped() && Fd < 0 && !open())
    stop(Error);
  if (stopped())
    return fail(Error);
  int Closing = Fd;
  Fd = -1;
  if (::close(Closing) != 0)
    return fail("write to " + Path + " failed");
  // Injected faults fire after the bytes are staged but before the
  // rename commits: a kill here leaves the orphaned temp for the stale
  // sweep to reap, and an io fault must leave the destination untouched
  // with no leaked temp — exactly the torn-write scenarios the tests pin.
  if (FaultSite)
    faultKill(FaultSite);
  if (FaultSite && faultIo(FaultSite))
    return fail("write to " + Path + " failed (injected fault at " +
                FaultSite + ")");
  if (!Temp.empty() && std::rename(Temp.c_str(), Path.c_str()) != 0)
    return fail("cannot move " + Temp + " into place as " + Path);
  Committed = true;
  return true;
}

bool writeFileAtomic(const std::string &Path, std::string_view Contents,
                     std::string &Error, const char *FaultSite) {
  StagedFile Out(Path);
  Out.write(Contents);
  return Out.commit(Error, FaultSite);
}

bool probeWritable(const std::string &Path, std::string &Error) {
  // Probe exactly what a StagedFile will open: a non-regular destination
  // by permission only (opening a FIFO would block on its reader, or
  // hand it an early end of file), otherwise a fresh temp beside the
  // path, which leaves existing content untouched.
  bool OK;
  if (isNonRegularDestination(Path)) {
    OK = ::access(Path.c_str(), W_OK) == 0;
  } else {
    std::string Temp = stagingPath(Path);
    int Fd = ::open(Temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0666);
    OK = Fd >= 0;
    if (OK) {
      ::close(Fd);
      ::unlink(Temp.c_str());
    }
  }
  if (!OK)
    Error = "cannot open " + Path + " for writing";
  return OK;
}

int sweepStaleTempFiles(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  int Removed = 0;
  while (struct dirent *Ent = ::readdir(D)) {
    std::string Name = Ent->d_name;
    size_t Marker = Name.rfind(".tmp.");
    if (Marker == std::string::npos)
      continue;
    std::string PidText = Name.substr(Marker + 5);
    if (PidText.empty())
      continue;
    char *End = nullptr;
    long Pid = std::strtol(PidText.c_str(), &End, 10);
    if (!End || *End != '\0' || Pid <= 0)
      continue;
    if (Pid == static_cast<long>(::getpid()))
      continue; // Our own in-flight staging file.
    // kill(pid, 0) probes liveness without signalling. ESRCH means the
    // writer is gone and its temp is orphaned; EPERM means it exists
    // but belongs to someone else, so leave it alone.
    if (::kill(static_cast<pid_t>(Pid), 0) == 0 || errno != ESRCH)
      continue;
    if (std::remove((Dir + "/" + Name).c_str()) == 0)
      ++Removed;
  }
  ::closedir(D);
  return Removed;
}

} // namespace spire::support
