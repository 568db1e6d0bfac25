#include "driver/Service.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/ArtifactCache.h"
#include "support/FileIO.h"

#include <chrono>

namespace spire::driver {

const char *toolVersion() { return "spirec-0.10"; }

std::string optionsFingerprint(const PipelineOptions &O) {
  std::string F;
  F.reserve(192);
  auto kv = [&F](const char *K, const std::string &V) {
    F += K;
    F += '=';
    F += V;
    F += ';';
  };
  auto kn = [&kv](const char *K, int64_t N) { kv(K, std::to_string(N)); };
  // Enum fields go in as stable integers: renaming an enumerator must
  // not silently invalidate the cache, reordering one must (the emitted
  // artifact changes with the meaning, and the format version guards
  // deliberate renumberings).
  kn("v", support::ArtifactCacheFormatVersion);
  kv("tool", toolVersion());
  kv("entry", O.Entry);
  kn("size", O.Size);
  kn("input", static_cast<int>(O.Input));
  kn("informat", static_cast<int>(O.InputFormat));
  kn("outformat", static_cast<int>(O.OutputFormat));
  kn("basis", O.Basis ? static_cast<int>(*O.Basis) : -1);
  kn("flatten", O.Spire.ConditionalFlattening);
  kn("narrow", O.Spire.ConditionalNarrowing);
  kn("withdo", O.Spire.FlattenWithDo);
  kn("wordbits", O.Target.WordBits);
  kn("heapcells", O.Target.HeapCells);
  kn("maxinst", O.MaxInlineInstances);
  kn("maxdepth", O.MaxInlineDepth);
  kn("stopafter", static_cast<int>(O.StopAfter));
  kn("copt", static_cast<int>(O.CircuitOpt));
  return F;
}

CacheKey cacheKeyFor(const PipelineOptions &Options,
                     std::string_view Source) {
  CacheKey Key;
  Key.Hi = support::hashBytes(optionsFingerprint(Options));
  Key.Lo = support::hashBytes(Source);
  return Key;
}

ServiceResponse Service::handle(const ServiceRequest &Request) {
  std::string Artifact;
  support::StringSink Out(Artifact);
  ServiceResponse Resp = handle(Request, &Out);
  if (Resp.OK)
    Resp.Artifact = std::move(Artifact);
  return Resp;
}

ServiceResponse Service::handle(const ServiceRequest &Request,
                                support::OutputSink *Out) {
  obs::Span Sp("service/request");
  ++obs::Registry::global().counter("service.requests");
  ServiceResponse Resp;
  // A fresh budget per request — one runaway request trips its own
  // governor, the next starts with full budgets again — unless the
  // caller armed one covering a wider scope (spirec's single-input mode
  // also polices --check-equiv and the -o write). It is installed before
  // the cache lookup so a hit is charged against the same output cap.
  support::Governor RequestGov(Request.Pipe.Limits);
  support::GovernorScope Scope(support::Governor::current() ? nullptr
                                                            : &RequestGov);
  support::Governor *Gov = support::Governor::current();
  support::ArtifactCache *UseCache = Out ? Cache : nullptr;
  CompilationResult &R = Resp.Result;
  try {
    CacheKey Key;
    std::optional<std::string> Hit;
    if (UseCache) {
      Key = cacheKeyFor(Request.Pipe, Request.Source);
      Hit = UseCache->lookup(Key.Hi, Key.Lo);
      Resp.CacheHit = Hit.has_value();
      if (Resp.CacheHit)
        Sp.arg("cache_hit", 1);
    }
    CompilationPipeline Pipeline(Request.Pipe);
    if (!Resp.CacheHit)
      R = Pipeline.run(Request.Source);
    // The cache stores what a miss renders.
    std::string Rendered;
    if (Out && (Resp.CacheHit || (R.succeeded() && !R.LimitHit))) {
      obs::Span Emit("emit");
      auto Start = std::chrono::steady_clock::now();
      uint64_t Before = Out->bytes();
      Out->chargeOutputCap();
      if (Hit) {
        Out->write(*Hit);
      } else if (UseCache) {
        support::StringSink Memory(Rendered);
        Memory.chargeOutputCap();
        Pipeline.renderFinalCircuit(R, Memory);
        Memory.flush();
        Out->write(Rendered);
      } else {
        Pipeline.renderFinalCircuit(R, *Out);
      }
      Out->flush();
      int64_t Bytes = static_cast<int64_t>(Out->bytes() - Before);
      Emit.arg("bytes", Bytes);
      Emit.arg("format", static_cast<int64_t>(Request.Pipe.OutputFormat));
      obs::Registry::global().counter("emit.bytes") += Bytes;
      obs::Registry::global().histogram("emit.seconds").observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        Start)
              .count());
    }
    if (Gov && Gov->exceeded() && !R.LimitHit)
      R.LimitHit = Gov->limit();
    if (R.LimitHit) {
      // Never serve (or cache) an artifact past a tripped budget: the
      // sink stops taking bytes at the trip. describe(), not report():
      // a caller-owned governor reports its trip itself.
      Resp.Error = "resource-limit: " + Gov->describe();
    } else if (!R.succeeded()) {
      std::string Diags = R.Diags.str();
      Resp.Error = Diags.substr(0, Diags.find('\n'));
      if (Resp.Error.empty())
        Resp.Error = "compilation failed";
    } else {
      Resp.OK = true;
      if (UseCache && !Resp.CacheHit && !Rendered.empty())
        UseCache->store(Key.Hi, Key.Lo, Rendered);
    }
  } catch (const std::bad_alloc &) {
    Resp.OK = false;
    Resp.Error = "out of memory";
  } catch (const std::exception &E) {
    Resp.OK = false;
    Resp.Error = std::string("internal error: ") + E.what();
  }
  if (!Resp.OK)
    ++obs::Registry::global().counter("service.failures");
  Sp.arg("ok", Resp.OK ? 1 : 0);
  return Resp;
}

} // namespace spire::driver
