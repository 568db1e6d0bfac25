//===----------------------------------------------------------------------===//
///
/// \file
/// The compile service: the one request-in, artifact-out entry point
/// every `spirec` compile goes through (single-input, `--batch`, and
/// `--serve` mode alike), layered over CompilationPipeline with the two
/// properties a long-lived process needs:
///
///   * Request isolation — every request runs under a fresh
///     support::Governor (unless the caller installed one covering a
///     wider scope) and a catch wall, so a poisoned request (OOM,
///     internal error, tripped budget, injected fault) fails *that
///     request* and never the process.
///   * Artifact caching — when constructed over a support::ArtifactCache
///     the service keys each request by cacheKeyFor() and serves
///     verified hits without compiling; misses compile and store. Cache
///     damage of any kind degrades to a recompute, never to a wrong or
///     failed answer (the cache's own contract). Hits are charged
///     against the output cap exactly like freshly rendered artifacts.
///   * Streaming emission — the artifact is written into a caller's
///     support::OutputSink (a staged file for spirec's `-o`), so a
///     request without a cache never holds the whole artifact. A
///     request with a cache renders into memory, because the store
///     needs the bytes, then copies them into the sink.
///
/// The cache key hashes the input bytes together with every
/// PipelineOptions field that can change the emitted artifact
/// (optionsFingerprint); fields that only affect reporting or budgets
/// stay out so equivalent requests share entries.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_DRIVER_SERVICE_H
#define SPIRE_DRIVER_SERVICE_H

#include "driver/Pipeline.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace spire::support {
class ArtifactCache;
class OutputSink;
} // namespace spire::support

namespace spire::driver {

/// Space-free tool id stamped into cache manifests; entries written by
/// a different build read as misses, never as stale artifacts.
const char *toolVersion();

/// Stable, human-auditable `k=v;` rendering of every PipelineOptions
/// field that affects the emitted artifact bytes (plus the cache format
/// version and tool id). Budget, verification, and reporting knobs are
/// deliberately absent: they change how a run is policed, not what it
/// emits.
std::string optionsFingerprint(const PipelineOptions &Options);

/// 128-bit cache key: Hi hashes the options fingerprint, Lo the input
/// bytes, both through support::hashBytes.
struct CacheKey {
  uint64_t Hi = 0;
  uint64_t Lo = 0;
};
CacheKey cacheKeyFor(const PipelineOptions &Options, std::string_view Source);

/// One compile request: fully-configured pipeline options plus the
/// input text they apply to.
struct ServiceRequest {
  PipelineOptions Pipe;
  std::string Source;
};

struct ServiceResponse {
  bool OK = false;
  bool CacheHit = false;
  /// The rendered final circuit (Pipe.OutputFormat) when OK; filled by
  /// the one-argument handle() only.
  std::string Artifact;
  /// First error line when not OK.
  std::string Error;
  /// The pipeline run behind the artifact: stage timings, diagnostics,
  /// and every stage artifact. Empty (no stages) on a cache hit, except
  /// for LimitHit, which is set whenever the request tripped a budget.
  CompilationResult Result;
};

class Service {
public:
  /// \p Cache may be null: the service then compiles every request.
  explicit Service(support::ArtifactCache *Cache = nullptr)
      : Cache(Cache) {}

  /// Handles one request end to end under a governor for
  /// Request.Pipe.Limits (a fresh one unless the caller already
  /// installed one) and a catch wall: cache lookup, compile on miss,
  /// render into \p Out, store, and the output-cap charge for hit and
  /// miss alike (the sink charges as it flushes; a trip stops the
  /// render). A null \p Out skips the cache, the render, and the
  /// output-cap charge, for callers that want only the run's byproducts
  /// (spirec --analyze or --check-equiv without --emit). The caller
  /// commits or discards what \p Out received. Never throws; every
  /// failure mode lands in the response. Counters: service.requests /
  /// service.failures, emit.bytes; histogram: emit.seconds; spans:
  /// service/request, emit (args bytes, and format 0 = qc, 1 = qasm3).
  ServiceResponse handle(const ServiceRequest &Request,
                         support::OutputSink *Out);

  /// handle() rendering into ServiceResponse::Artifact.
  ServiceResponse handle(const ServiceRequest &Request);

private:
  support::ArtifactCache *Cache;
};

} // namespace spire::driver

#endif // SPIRE_DRIVER_SERVICE_H
