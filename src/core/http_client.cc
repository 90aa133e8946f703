#include "core/http_client.h"

#include <atomic>

#include "common/base64.h"
#include "common/clock.h"
#include "common/logging.h"
#include "core/resilience.h"
#include "http/parser.h"

namespace davix {
namespace core {
namespace {

bool IsIdempotent(http::Method method) {
  return method != http::Method::kPost;
}

// Longest server-dictated Retry-After pause honored when the request
// does not override retry_after_max_micros.
constexpr int64_t kDefaultRetryAfterMaxMicros = 30'000'000;


// A fixed retry_jitter_seed reproduces the exact delay sequence; the
// default decorrelates concurrent requests (the point of full jitter)
// by folding a process-wide counter into the clock.
uint64_t ResolveJitterSeed(const RequestParams& params) {
  if (params.retry_jitter_seed != 0) return params.retry_jitter_seed;
  static std::atomic<uint64_t> counter{0};
  return static_cast<uint64_t>(MonotonicMicros()) ^
         ((counter.fetch_add(1, std::memory_order_relaxed) + 1) *
          0x9e3779b97f4a7c15ULL);
}

// Same resolution as the session pool's (0 = default, < 0 = disabled);
// the mux path admits against the identical breaker table, it just
// doesn't go through SessionPool::Acquire.
CircuitBreakerConfig MuxBreakerConfigFrom(const RequestParams& params) {
  CircuitBreakerConfig config;
  if (params.breaker_failure_threshold != 0) {
    config.failure_threshold = params.breaker_failure_threshold;
  }
  if (params.breaker_cooldown_micros > 0) {
    config.cooldown_micros = params.breaker_cooldown_micros;
  }
  return config;
}

// The wire request both transports send — byte-identical head, so a
// response served over mux is comparable bit-for-bit with the pooled
// path.
http::HttpRequest BuildWireRequest(const Uri& url, http::Method method,
                                   const RequestParams& params,
                                   const http::HeaderMap* extra_headers) {
  http::HttpRequest request;
  request.method = method;
  request.target = UrlEncodePath(url.path());
  if (!url.query().empty()) request.target += "?" + url.query();
  request.headers.Set("Host", url.HostPortKey());
  request.headers.Set("User-Agent", params.user_agent);
  request.headers.Set("Connection",
                      params.keep_alive ? "keep-alive" : "close");
  if (!params.username.empty()) {
    request.headers.Set(
        "Authorization",
        "Basic " + Base64Encode(params.username + ":" + params.password));
  }
  if (extra_headers != nullptr) {
    for (const auto& [name, value] : extra_headers->entries()) {
      request.headers.Set(name, value);
    }
  }
  return request;
}

}  // namespace

Status HttpStatusToStatus(int code, const std::string& context) {
  if (http::IsSuccess(code)) return Status::OK();
  std::string msg = context + ": HTTP " + std::to_string(code) + " " +
                    std::string(http::ReasonPhrase(code));
  switch (code) {
    case 404:
    case 410:
      return Status::NotFound(msg);
    case 401:
    case 403:
      return Status::PermissionDenied(msg);
    case 408:
      return Status::Timeout(msg);
    case 416:
      return Status::RangeNotSatisfiable(msg);
    case 501:
    case 505:
      return Status::NotSupported(msg);
    default:
      if (code >= 500) return Status::RemoteError(msg);
      if (http::IsRedirect(code)) {
        return Status::ProtocolError(msg + " (redirect without Location)");
      }
      return Status::InvalidArgument(msg);
  }
}

Result<HttpClient::Exchange> HttpClient::Execute(
    const Uri& url, http::Method method, const RequestParams& caller_params,
    std::string body, const http::HeaderMap* extra_headers) {
  RequestParams params = caller_params;
  params.ArmDeadline();
  Backoff backoff(BackoffConfig{params.retry_delay_micros},
                  ResolveJitterSeed(params));
  Uri current = url;
  int redirects = 0;
  int retries_used = 0;
  Status last_error = Status::OK();

  while (true) {
    if (params.deadline.Expired()) {
      context_->stats().deadline_expirations.fetch_add(
          1, std::memory_order_relaxed);
      std::string msg = "deadline exceeded: " +
                        std::string(http::MethodName(method)) + " " +
                        current.ToString();
      if (!last_error.ok()) msg += " (last error: " + last_error.ToString() + ")";
      return Status::Timeout(msg);
    }
    bool replayable = false;
    Result<http::HttpResponse> response =
        ExecuteOnce(current, method, params, body, extra_headers, &replayable);

    if (!response.ok()) {
      last_error = response.status();
      if (replayable) {
        // A recycled connection died before yielding a single response
        // byte: the server closed an idle keep-alive connection under us.
        // Replaying on a fresh connection is always safe and does not
        // consume the retry budget.
        DAVIX_LOG(kDebug) << "stale pooled connection to "
                          << current.HostPortKey() << ", replaying";
        continue;
      }
      if (response.status().IsRetryable() && IsIdempotent(method) &&
          retries_used < params.max_retries && !params.deadline.Expired()) {
        ++retries_used;
        context_->stats().retries.fetch_add(1, std::memory_order_relaxed);
        backoff.SleepWithJitter(retries_used - 1, params.deadline);
        continue;
      }
      return response.status().WithContext(
          std::string(http::MethodName(method)) + " " + current.ToString());
    }

    // A server asking us to pace off (503/429 with Retry-After) gets its
    // wish when the wait fits the per-request cap and the remaining
    // deadline; otherwise the response goes back to the caller as usual
    // (fail-over decides what to do with it).
    if ((response->status_code == 503 || response->status_code == 429) &&
        IsIdempotent(method) && retries_used < params.max_retries) {
      std::optional<std::string> retry_after =
          response->headers.Get("Retry-After");
      Result<int64_t> wait_seconds =
          retry_after ? http::ParseRetryAfter(*retry_after, WallSeconds())
                      : Result<int64_t>(Status::NotFound("no Retry-After"));
      if (wait_seconds.ok()) {
        int64_t wait_micros = *wait_seconds * 1'000'000;
        int64_t cap = params.retry_after_max_micros > 0
                          ? params.retry_after_max_micros
                          : kDefaultRetryAfterMaxMicros;
        if (wait_micros <= cap &&
            (!params.deadline.armed() ||
             wait_micros < params.deadline.RemainingMicros())) {
          ++retries_used;
          context_->stats().retries.fetch_add(1, std::memory_order_relaxed);
          context_->stats().retry_after_honored.fetch_add(
              1, std::memory_order_relaxed);
          SleepBudgeted(wait_micros, params.deadline);
          continue;
        }
      }
    }

    if (params.follow_redirects && http::IsRedirect(response->status_code)) {
      std::optional<std::string> location =
          response->headers.Get("Location");
      if (location) {
        if (++redirects > params.max_redirects) {
          return Status::RedirectLoop("too many redirects for " +
                                      url.ToString());
        }
        DAVIX_ASSIGN_OR_RETURN(current, current.Resolve(*location));
        context_->stats().redirects_followed.fetch_add(
            1, std::memory_order_relaxed);
        continue;
      }
    }

    Exchange exchange;
    exchange.response = std::move(*response);
    exchange.final_url = current;
    return exchange;
  }
}

Result<http::HttpResponse> HttpClient::ExecuteOnce(
    const Uri& url, http::Method method, const RequestParams& params,
    const std::string& body, const http::HeaderMap* extra_headers,
    bool* replayable) {
  *replayable = false;
  if (params.transport == TransportKind::kMux) {
    return ExecuteOnceMux(url, method, params, body, extra_headers,
                          replayable);
  }
  // A fast-fail or connect failure is accounted to the breaker by the
  // pool itself; this function reports only post-acquire outcomes, so
  // no host is ever double-counted for one attempt.
  DAVIX_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                         context_->pool().Acquire(url, params));
  bool recycled = session->recycled();
  CircuitBreakerRegistry& breakers = context_->pool().breakers();
  const std::string host_key = session->key();
  const int64_t io_timeout =
      params.deadline.CapTimeout(params.operation_timeout_micros);

  http::HttpRequest request =
      BuildWireRequest(url, method, params, extra_headers);
  // Zero-copy send: the payload never gets concatenated into the wire
  // buffer (for a PUT that used to mean one full extra copy of the
  // body). The head goes out first, then the caller's body directly.
  std::string wire_head = request.SerializeHead(body.size());
  context_->stats().requests.fetch_add(1, std::memory_order_relaxed);
  context_->stats().network_round_trips.fetch_add(1,
                                                  std::memory_order_relaxed);
  context_->stats().bytes_written.fetch_add(wire_head.size() + body.size(),
                                            std::memory_order_relaxed);

  Status write_status = session->socket().WriteAll(wire_head, io_timeout);
  if (write_status.ok() && !body.empty()) {
    write_status = session->socket().WriteAll(body, io_timeout);
  }
  uint64_t consumed_before = session->reader().bytes_consumed();
  if (!write_status.ok()) {
    context_->pool().Discard(std::move(session));
    *replayable = recycled;
    // A stale recycled connection is routine keep-alive churn, not a
    // host-health signal; everything else counts against the breaker.
    if (!*replayable) breakers.RecordFailure(host_key, MonotonicMicros());
    return write_status.WithContext("writing request");
  }

  Result<http::HttpResponse> head =
      http::MessageReader::ReadResponseHead(&session->reader());
  if (!head.ok()) {
    bool nothing_read =
        session->reader().bytes_consumed() == consumed_before;
    context_->pool().Discard(std::move(session));
    *replayable = recycled && nothing_read;
    if (!*replayable) breakers.RecordFailure(host_key, MonotonicMicros());
    return head.status().WithContext("reading response head");
  }
  http::HttpResponse response = std::move(*head);
  Status body_status = http::MessageReader::ReadResponseBody(
      &session->reader(), method == http::Method::kHead, &response);
  if (!body_status.ok()) {
    context_->pool().Discard(std::move(session));
    breakers.RecordFailure(host_key, MonotonicMicros());
    return body_status.WithContext("reading response body");
  }
  context_->stats().bytes_read.fetch_add(
      session->reader().bytes_consumed() - consumed_before,
      std::memory_order_relaxed);

  // Any complete HTTP response — 5xx included — proves the host is
  // talking; breaker health tracks the transport, not the status code.
  breakers.RecordSuccess(host_key);
  session->IncrementExchanges();
  if (params.keep_alive && response.KeepsConnectionAlive()) {
    context_->pool().Release(std::move(session));
  } else {
    context_->pool().Discard(std::move(session));
  }
  return response;
}

Result<http::HttpResponse> HttpClient::ExecuteOnceMux(
    const Uri& url, http::Method method, const RequestParams& params,
    const std::string& body, const http::HeaderMap* extra_headers,
    bool* replayable) {
  // A mux exchange is never replayable: the stream either completes or
  // fails for real (there is no "stale recycled connection" — dead
  // connections are pruned by the transport and failures come back as
  // retryable statuses that consume the retry budget).
  *replayable = false;
  const std::string host_key = url.HostPortKey();
  CircuitBreakerRegistry& breakers = context_->pool().breakers();
  switch (breakers.Admit(host_key, MuxBreakerConfigFrom(params),
                         MonotonicMicros())) {
    case CircuitBreaker::Decision::kFastFail:
      return Status::ConnectionFailed("circuit breaker open for " + host_key);
    case CircuitBreaker::Decision::kAdmit:
    case CircuitBreaker::Decision::kProbe:
      break;
  }

  http::HttpRequest request =
      BuildWireRequest(url, method, params, extra_headers);
  request.body = body;
  context_->stats().requests.fetch_add(1, std::memory_order_relaxed);
  context_->stats().network_round_trips.fetch_add(1,
                                                  std::memory_order_relaxed);
  context_->stats().bytes_written.fetch_add(
      request.SerializeHead(body.size()).size() + body.size(),
      std::memory_order_relaxed);

  Result<http::HttpResponse> response = context_->mux_transport().Execute(
      url, request, method == http::Method::kHead, params);
  if (!response.ok()) {
    breakers.RecordFailure(host_key, MonotonicMicros());
    return response.status().WithContext("mux exchange");
  }
  context_->stats().bytes_read.fetch_add(
      response->SerializeHead(response->body.size()).size() +
          response->body.size(),
      std::memory_order_relaxed);
  // Any complete response — 5xx included — proves the host is talking;
  // breaker health tracks the transport, not the status code.
  breakers.RecordSuccess(host_key);
  return response;
}

}  // namespace core
}  // namespace davix
