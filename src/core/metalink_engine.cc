#include "core/metalink_engine.h"

#include "common/checksum.h"
#include "common/string_util.h"
#include "core/replica_set.h"

namespace davix {
namespace core {

Result<metalink::MetalinkFile> MetalinkEngine::Fetch(
    const Uri& resource, const RequestParams& params) {
  Uri metalink_url = resource;
  if (!params.metalink_resolver.empty()) {
    DAVIX_ASSIGN_OR_RETURN(Uri resolver, Uri::Parse(params.metalink_resolver));
    std::string base = resolver.path();
    if (base == "/") base.clear();
    metalink_url = resolver.WithPath(base + resource.path());
  } else {
    metalink_url = resource.WithPath(resource.path() + "?metalink");
  }

  http::HeaderMap headers;
  headers.Set("Accept", std::string(metalink::kMetalinkContentType));
  // Metalink fetches must not themselves trigger metalink recursion.
  RequestParams fetch_params = params;
  fetch_params.metalink_mode = MetalinkMode::kDisabled;

  DAVIX_ASSIGN_OR_RETURN(
      HttpClient::Exchange exchange,
      client_->Execute(metalink_url, http::Method::kGet, fetch_params,
                       std::string(), &headers));
  DAVIX_RETURN_IF_ERROR(HttpStatusToStatus(
      exchange.response.status_code,
      "fetching metalink " + metalink_url.ToString()));
  Result<metalink::MetalinkFile> parsed =
      metalink::ParseMetalink(exchange.response.body);
  if (!parsed.ok()) {
    return parsed.status().WithContext("parsing metalink for " +
                                       resource.ToString());
  }
  return parsed;
}

Status MetalinkEngine::MultiStreamTo(const Uri& resource,
                                     const RequestParams& params,
                                     const ReplicaSpanSink& sink) {
  DAVIX_ASSIGN_OR_RETURN(
      std::shared_ptr<ReplicaSet> set,
      ReplicaSet::Resolve(client_->context(), resource, params));
  DAVIX_ASSIGN_OR_RETURN(uint64_t size, set->ResolveSize(params));

  // The sink delivers in offset order, so the Metalink md5 verifies
  // incrementally — no whole-object buffer on this path.
  bool verify = !set->md5().empty();
  Md5 md5;
  DAVIX_RETURN_IF_ERROR(set->Stream(
      0, size, params, [&](uint64_t offset, std::string_view data) {
        if (verify) md5.Update(data);
        return sink(offset, data);
      }));
  if (verify) {
    std::array<uint8_t, 16> digest = md5.Digest();
    std::string hex = HexEncode(std::string_view(
        reinterpret_cast<const char*>(digest.data()), digest.size()));
    if (hex != set->md5()) {
      return Status::Corruption("multi-stream md5 mismatch for " +
                                resource.ToString() + ": got " + hex +
                                " want " + set->md5());
    }
  }
  return Status::OK();
}

Result<std::string> MetalinkEngine::MultiStreamGet(
    const Uri& resource, const RequestParams& params) {
  std::string assembled;
  DAVIX_RETURN_IF_ERROR(MultiStreamTo(
      resource, params, [&](uint64_t offset, std::string_view data) {
        if (offset != assembled.size()) {
          return Status::Internal("multi-stream sink out of order at " +
                                  std::to_string(offset));
        }
        assembled.append(data);
        return Status::OK();
      }));
  return assembled;
}

}  // namespace core
}  // namespace davix
