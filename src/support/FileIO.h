//===----------------------------------------------------------------------===//
///
/// \file
/// Durable file I/O for the tool layer. Every artifact spirec emits
/// (`-o`, `--metrics-json`, `--trace-json`) goes through a StagedFile,
/// which writes the bytes into a sibling temp file as they are produced
/// and renames it into place on commit — an injected I/O fault, a full
/// disk, a tripped output cap, or a mid-write kill can lose the artifact
/// but can never leave a torn or truncated one. Destinations that are
/// not regular files (`/dev/null`, pipes) are written directly, since
/// rename(2) onto them would replace the special file.
///
/// Emitters write through the OutputSink interface: a buffered byte
/// sink over either a std::string (StringSink) or a StagedFile, so the
/// circuit writers never need the whole artifact in memory when its
/// destination is a file.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_SUPPORT_FILEIO_H
#define SPIRE_SUPPORT_FILEIO_H

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace spire::support {

/// Reads the whole file at \p Path into \p Out. On failure returns
/// false with a one-line reason in \p Error. \p FaultSite (when
/// non-null) names the injection site checked before the read.
bool readFile(const std::string &Path, std::string &Out, std::string &Error,
              const char *FaultSite = nullptr);

/// A buffered byte sink. Bytes collect in a fixed buffer that is
/// drained to the target whenever it fills and on flush(). Once the
/// target fails, or the output cap trips, the sink stops: later bytes
/// are dropped and stopped() reports it, so an emitter can quit early.
class OutputSink {
public:
  OutputSink(const OutputSink &) = delete;
  OutputSink &operator=(const OutputSink &) = delete;
  virtual ~OutputSink();

  void write(std::string_view S) {
    if (S.size() <= static_cast<size_t>(End - Pos)) {
      std::memcpy(Pos, S.data(), S.size());
      Pos += S.size();
      return;
    }
    writeSlow(S);
  }
  /// Appends the decimal spelling of \p N.
  void writeDecimal(uint64_t N);

  /// Direct access for hot emitters: returns room for at least \p N
  /// bytes (flushing first when the buffer is short), to be filled and
  /// handed back through advance(). Null when the sink has stopped or
  /// \p N exceeds the buffer; fall back to write() then.
  char *reserve(size_t N) {
    if (N <= static_cast<size_t>(End - Pos))
      return Pos;
    return reserveSlow(N);
  }
  /// Marks the bytes up to \p NewPos (within the last reserve()) as
  /// written.
  void advance(char *NewPos) { Pos = NewPos; }

  /// Drains the buffer to the target. Once chargeOutputCap() was
  /// called, every byte accepted so far is first charged against the
  /// installed governor's output cap, so bytes past a trip never reach
  /// the target. Returns false once the sink has stopped.
  bool flush();

  /// Makes every later flush charge the installed governor's output cap
  /// (support::Governor::checkOutputBytes) with the bytes accepted so
  /// far; a trip stops the sink and drops the bytes not yet drained.
  /// Only the artifact being emitted is charged — cache entries and
  /// observability dumps are not.
  void chargeOutputCap() { ChargesOutputCap = true; }

  /// True once the target failed or the output cap tripped.
  bool stopped() const { return Stopped; }
  /// Bytes accepted so far, drained or still buffered.
  uint64_t bytes() const { return Drained + static_cast<uint64_t>(Pos - Buf); }

protected:
  OutputSink();
  /// Delivers \p N bytes to the target. On failure returns false with
  /// the reason in Error; the sink then stops.
  virtual bool drain(const char *Data, size_t N) = 0;
  /// Stops the sink with \p Reason (the first reason wins).
  void stop(std::string Reason);

  /// Why the sink stopped; empty while it has not.
  std::string Error;

private:
  /// Buffer size: small enough to stay cache-resident, large enough
  /// that a file target makes few write(2) calls.
  static constexpr size_t Capacity = size_t{1} << 16;

  void writeSlow(std::string_view S);
  char *reserveSlow(size_t N);
  /// Charges \p Total accepted bytes against the output cap (when
  /// charging); false once the sink has stopped.
  bool charge(uint64_t Total);
  /// Charges, then drains \p N bytes; false once the sink has stopped.
  bool deliver(const char *Data, size_t N);

  std::unique_ptr<char[]> Storage;
  char *Buf;
  char *Pos;
  char *End;
  uint64_t Drained = 0;
  bool Stopped = false;
  bool ChargesOutputCap = false;
};

/// Spellings `<Prefix><I><Suffix>` of the operands 0..Count-1 (qubit
/// names such as ` q7` or `q[7]`), formatted once per emission with
/// std::to_chars so an emitter copies a name per operand instead of
/// formatting a number. Prefix and suffix together are at most five
/// bytes. An index past Count (an operand outside a malformed circuit's
/// declared register) is spelled on demand and stays valid until the
/// next such lookup.
class NameTable {
public:
  NameTable(uint32_t Count, std::string_view Prefix, std::string_view Suffix);
  std::string_view operator[](uint32_t I) const {
    const Slot &S = I < Slots.size() ? Slots[I] : spell(Spare, I);
    return std::string_view(S.Text, S.Len);
  }
  /// Copies the spelling of \p I to \p P, which must have room for
  /// MaxBytes, and returns the end of the spelling. The copy moves a
  /// whole slot, which compiles to one vector move.
  char *copy(char *P, uint32_t I) const {
    const Slot &S = I < Slots.size() ? Slots[I] : spell(Spare, I);
    std::memcpy(P, &S, sizeof(Slot));
    return P + S.Len;
  }
  static constexpr size_t MaxBytes = 16;

private:
  struct Slot {
    char Text[MaxBytes - 1];
    uint8_t Len;
  };
  const Slot &spell(Slot &S, uint32_t I) const;

  std::string Prefix, Suffix;
  std::vector<Slot> Slots;
  mutable Slot Spare;
};

/// Sink that appends to a caller-owned string (the cache, serve, batch,
/// and stdout paths, and the string-returning writers).
class StringSink final : public OutputSink {
public:
  explicit StringSink(std::string &Out) : Out(Out) {}
  ~StringSink() override;

private:
  bool drain(const char *Data, size_t N) override;
  std::string &Out;
};

/// Sink that stages an atomic file write. Bytes go to `Path.tmp.<pid>`
/// as the buffer fills (the temp is created at the first drain), and
/// commit() renames the temp into place. Destroying an uncommitted
/// StagedFile unlinks the temp, so a failed or abandoned emission leaves
/// any existing destination untouched. A destination that exists and is
/// not a regular file is opened and written directly instead, and bytes
/// reach it before the commit.
class StagedFile final : public OutputSink {
public:
  explicit StagedFile(std::string Path);
  ~StagedFile() override;

  /// Flushes and moves the staged bytes into place. On failure (the
  /// sink stopped, a write or the rename failed, or an injected fault
  /// fired) returns false with a one-line reason in \p ErrorOut, removes
  /// the temp, and leaves any existing destination untouched.
  /// \p FaultSite (when non-null) names the injection site checked
  /// after the bytes are staged and before the rename commits.
  bool commit(std::string &ErrorOut, const char *FaultSite = nullptr);

private:
  bool drain(const char *Data, size_t N) override;
  bool open();
  void discard();

  std::string Path;
  std::string Temp; ///< Empty for a direct (non-regular) destination.
  int Fd = -1;
  bool Committed = false;
};

/// Writes \p Contents to \p Path atomically through a StagedFile. On
/// failure returns false with a one-line reason in \p Error and leaves
/// any existing destination untouched.
bool writeFileAtomic(const std::string &Path, std::string_view Contents,
                     std::string &Error, const char *FaultSite = nullptr);

/// Cheap writability probe for \p Path: verifies a StagedFile for it can
/// open what it will write — a fresh temp beside a regular or missing
/// path, or (by permission only) a non-regular destination — without
/// touching existing content. Lets spirec reject a bad output path up
/// front (exit 2) before spending the compile.
bool probeWritable(const std::string &Path, std::string &Error);

/// Removes orphaned `*.tmp.<pid>` staging files in \p Dir left behind by
/// writers that died before their rename committed. A temp is orphaned
/// when its embedded pid no longer names a live process (and is not this
/// process). Returns the number of files removed; unreadable directories
/// count as zero (the sweep is best-effort hygiene, never an error).
int sweepStaleTempFiles(const std::string &Dir);

} // namespace spire::support

#endif // SPIRE_SUPPORT_FILEIO_H
