#ifndef DAVIX_CORE_METALINK_ENGINE_H_
#define DAVIX_CORE_METALINK_ENGINE_H_

#include <string>

#include "common/status.h"
#include "common/uri.h"
#include "core/http_client.h"
#include "core/replica_set.h"
#include "core/request_params.h"
#include "metalink/metalink.h"

namespace davix {
namespace core {

/// Fetches and exploits Metalink replica descriptions (§2.4).
class MetalinkEngine {
 public:
  /// `client` must outlive the engine.
  explicit MetalinkEngine(HttpClient* client) : client_(client) {}

  /// Obtains the Metalink for `resource`.
  ///
  /// With a configured resolver (RequestParams::metalink_resolver, the
  /// DynaFed-like federation service) the document is requested from
  /// `<resolver>/<resource-path>`; otherwise the resource's own host is
  /// asked with `?metalink` plus an Accept header, davix's convention.
  Result<metalink::MetalinkFile> Fetch(const Uri& resource,
                                       const RequestParams& params);

  /// §2.4 "multi-stream" strategy, sink-based: resolves the resource's
  /// ReplicaSet and streams the whole object through `sink` in offset
  /// order, striping chunk range-GETs across the healthy replicas on
  /// the Context's dispatcher — with health-based failover, block-cache
  /// probe/publish, and generation quarantine (see core::ReplicaSet).
  /// When the Metalink carries an md5, the stream is verified
  /// incrementally and a mismatch surfaces as kCorruption after the
  /// last span.
  Status MultiStreamTo(const Uri& resource, const RequestParams& params,
                       const ReplicaSpanSink& sink);

  /// Legacy whole-object form: thin wrapper over MultiStreamTo that
  /// assembles the spans into one string.
  Result<std::string> MultiStreamGet(const Uri& resource,
                                     const RequestParams& params);

 private:
  HttpClient* client_;
};

}  // namespace core
}  // namespace davix

#endif  // DAVIX_CORE_METALINK_ENGINE_H_
