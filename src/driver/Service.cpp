#include "driver/Service.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/ArtifactCache.h"

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
  kn("emitlevel", static_cast<int>(O.EmitLevel));
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

ServiceResponse Service::handle(const ServiceRequest &Request,
                                bool Render) {
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
  support::ArtifactCache *UseCache = Render ? Cache : nullptr;
  CompilationResult &R = Resp.Result;
  try {
    CacheKey Key;
    if (UseCache) {
      Key = cacheKeyFor(Request.Pipe, Request.Source);
      if (std::optional<std::string> Hit = UseCache->lookup(Key.Hi, Key.Lo)) {
        Resp.CacheHit = true;
        Resp.Artifact = std::move(*Hit);
        Sp.arg("cache_hit", 1);
        if (Gov)
          Gov->checkOutputBytes(static_cast<int64_t>(Resp.Artifact.size()));
      }
    }
    if (!Resp.CacheHit) {
      CompilationPipeline Pipeline(Request.Pipe);
      R = Pipeline.run(Request.Source);
      // The writers charge the output cap as the text grows.
      if (Render && R.succeeded() && !R.LimitHit)
        Resp.Artifact = Pipeline.renderFinalCircuit(R);
    }
    if (Gov && Gov->exceeded() && !R.LimitHit)
      R.LimitHit = Gov->limit();
    if (R.LimitHit) {
      // Never serve (or cache) an artifact past a tripped budget: the
      // writers stop growing the text at the trip. describe(), not
      // report(): a caller-owned governor reports its trip itself.
      Resp.Error = "resource-limit: " + Gov->describe();
    } else if (!R.succeeded()) {
      std::string Diags = R.Diags.str();
      Resp.Error = Diags.substr(0, Diags.find('\n'));
      if (Resp.Error.empty())
        Resp.Error = "compilation failed";
    } else {
      Resp.OK = true;
      if (UseCache && !Resp.CacheHit && !Resp.Artifact.empty())
        UseCache->store(Key.Hi, Key.Lo, Resp.Artifact);
    }
  } catch (const std::bad_alloc &) {
    Resp.OK = false;
    Resp.Error = "out of memory";
  } catch (const std::exception &E) {
    Resp.OK = false;
    Resp.Error = std::string("internal error: ") + E.what();
  }
  if (!Resp.OK) {
    Resp.Artifact.clear();
    ++obs::Registry::global().counter("service.failures");
  }
  Sp.arg("ok", Resp.OK ? 1 : 0);
  return Resp;
}

} // namespace spire::driver
