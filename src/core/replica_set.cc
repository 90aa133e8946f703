#include "core/replica_set.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/metalink_engine.h"
#include "core/resilience.h"
#include "http/multipart.h"
#include "http/parser.h"
#include "http/range.h"

namespace davix {
namespace core {

namespace {

/// EWMA smoothing factor for per-source latency; high enough that a
/// source going slow mid-transfer loses its preferred rank within a few
/// chunks.
constexpr double kLatencyEwmaAlpha = 0.3;

constexpr uint64_t kDefaultChunkBytes = 1 << 20;
constexpr size_t kDefaultMaxStreams = 4;
/// Consecutive failures that put a source into a timed quarantine, and
/// how long that quarantine lasts.
constexpr int kQuarantineFailures = 2;
constexpr int64_t kQuarantineMicros = 30'000'000;

/// Satisfies every wire range of `batch` from a full-entity body (the
/// 200-fallback: once the server has sent everything, all remaining
/// batches demote to local scatter — single-stream, no wire traffic).
Status ScatterFromFullBody(const std::vector<CoalescedRange>& batch,
                           std::string_view full_body,
                           const std::vector<http::ByteRange>& ranges,
                           std::vector<std::string>* results) {
  for (const CoalescedRange& wire : batch) {
    if (wire.range.offset + wire.range.length > full_body.size()) {
      return Status::ProtocolError("entity shorter than wire range");
    }
    DAVIX_RETURN_IF_ERROR(ScatterWireRange(
        wire, full_body.substr(wire.range.offset, wire.range.length), ranges,
        results));
  }
  return Status::OK();
}

}  // namespace

BlockValidator ValidatorFrom(const http::HeaderMap& headers) {
  BlockValidator v;
  v.etag = headers.Get("ETag").value_or("");
  if (std::optional<std::string> lm = headers.Get("Last-Modified")) {
    Result<int64_t> mtime = http::ParseHttpDate(*lm);
    if (mtime.ok()) v.mtime_epoch_seconds = *mtime;
  }
  return v;
}

bool ShouldFailover(const Status& status) {
  switch (status.code()) {
    case StatusCode::kConnectionFailed:
    case StatusCode::kConnectionReset:
    case StatusCode::kTimeout:
    case StatusCode::kRemoteError:
    case StatusCode::kNotFound:
    case StatusCode::kProtocolError:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// ReplicaSource
// ---------------------------------------------------------------------------

void ReplicaSource::RecordSuccess(int64_t latency_micros) {
  MutexLock lock(mu_);
  consecutive_failures_ = 0;
  quarantine_until_micros_ = 0;
  ++successes_;
  double sample = static_cast<double>(latency_micros);
  latency_ewma_micros_ =
      latency_ewma_micros_ == 0
          ? sample
          : kLatencyEwmaAlpha * sample +
                (1 - kLatencyEwmaAlpha) * latency_ewma_micros_;
}

bool ReplicaSource::RecordFailure(int64_t now_micros, int failure_threshold,
                                  int64_t quarantine_micros) {
  MutexLock lock(mu_);
  ++failures_;
  ++consecutive_failures_;
  if (generation_rejected_) return false;
  bool was_quarantined = quarantine_until_micros_ > now_micros;
  if (consecutive_failures_ >= failure_threshold) {
    quarantine_until_micros_ = now_micros + quarantine_micros;
    return !was_quarantined;
  }
  return false;
}

bool ReplicaSource::RejectGeneration() {
  MutexLock lock(mu_);
  if (generation_rejected_) return false;
  generation_rejected_ = true;
  return true;
}

bool ReplicaSource::Quarantined(int64_t now_micros) const {
  MutexLock lock(mu_);
  return generation_rejected_ || quarantine_until_micros_ > now_micros;
}

bool ReplicaSource::generation_rejected() const {
  MutexLock lock(mu_);
  return generation_rejected_;
}

double ReplicaSource::latency_ewma_micros() const {
  MutexLock lock(mu_);
  return latency_ewma_micros_;
}

int ReplicaSource::consecutive_failures() const {
  MutexLock lock(mu_);
  return consecutive_failures_;
}

uint64_t ReplicaSource::successes() const {
  MutexLock lock(mu_);
  return successes_;
}

uint64_t ReplicaSource::failures() const {
  MutexLock lock(mu_);
  return failures_;
}

// ---------------------------------------------------------------------------
// ReplicaSet
// ---------------------------------------------------------------------------

ReplicaSet::ReplicaSet(Context* context, Uri primary, ReplicaSetConfig config)
    : context_(context),
      client_(context),
      primary_(std::move(primary)),
      config_(config) {}

Result<std::shared_ptr<ReplicaSet>> ReplicaSet::Make(
    Context* context, const Uri& primary,
    const metalink::MetalinkFile& metalink, ReplicaSetConfig config) {
  if (config.chunk_bytes == 0) config.chunk_bytes = kDefaultChunkBytes;
  if (config.max_streams == 0) config.max_streams = kDefaultMaxStreams;

  auto set = std::shared_ptr<ReplicaSet>(
      new ReplicaSet(context, primary, config));
  set->size_ = metalink.size;
  set->md5_ = metalink.md5;

  std::set<std::string> seen;
  for (const metalink::Replica& replica : metalink.SortedReplicas()) {
    Result<Uri> uri = Uri::Parse(replica.url);
    if (!uri.ok()) {
      DAVIX_LOG(kWarn) << "skipping unparseable replica URL " << replica.url;
      continue;
    }
    if (!seen.insert(BlockCache::UrlKey(*uri)).second) continue;
    set->sources_.push_back(std::make_shared<ReplicaSource>(
        std::move(*uri), replica.priority));
  }
  if (seen.insert(BlockCache::UrlKey(primary)).second) {
    // The original URL the caller opened is always a source, preferred
    // over the Metalink entries (priority 0 < RFC 5854's minimum 1).
    set->sources_.insert(set->sources_.begin(),
                         std::make_shared<ReplicaSource>(primary, 0));
  }
  if (set->sources_.empty()) {
    return Status::AllReplicasFailed("metalink for " + primary.ToString() +
                                     " lists no usable replicas");
  }
  return set;
}

Result<std::shared_ptr<ReplicaSet>> ReplicaSet::Resolve(
    Context* context, const Uri& resource, const RequestParams& params) {
  HttpClient client(context);
  MetalinkEngine engine(&client);
  DAVIX_ASSIGN_OR_RETURN(metalink::MetalinkFile file,
                         engine.Fetch(resource, params));
  return Make(context, resource, file,
              ReplicaSetConfig{params.multistream_chunk_bytes,
                               params.multistream_max_streams});
}

uint64_t ReplicaSet::size() const {
  MutexLock lock(mu_);
  return size_;
}

std::shared_ptr<ReplicaSource> ReplicaSet::FindSource(const Uri& url) const {
  std::string key = BlockCache::UrlKey(url);
  for (const std::shared_ptr<ReplicaSource>& source : sources_) {
    if (BlockCache::UrlKey(source->url()) == key) return source;
  }
  return nullptr;
}

std::vector<std::shared_ptr<ReplicaSource>> ReplicaSet::RankedSources()
    const {
  int64_t now = MonotonicMicros();
  // Healthy before quarantined before breaker-open; among healthy
  // sources, those without a failure streak first, so a source that just
  // failed is retried only after the others had their turn (a primary
  // that failed before the set was resolved is the last healthy source
  // of the walk). Then probed sources by latency EWMA; unprobed ones
  // after, by Metalink priority then URL (deterministic ties). A host
  // whose circuit breaker is open (still inside its cooldown, every
  // acquire fast-fails without wire traffic) ranks below a
  // quarantined-but-probing source: the latter may answer, the former
  // cannot. The key is snapshotted once per source BEFORE sorting:
  // health state mutates concurrently (dispatcher workers record
  // outcomes mid-sort), and a comparator re-reading live state could
  // violate strict weak ordering — undefined behaviour in stable_sort.
  const CircuitBreakerRegistry& breakers = context_->pool().breakers();
  struct Decorated {
    std::tuple<int, bool, int, double, int, std::string> key;
    std::shared_ptr<ReplicaSource> source;
  };
  std::vector<Decorated> decorated;
  decorated.reserve(sources_.size());
  for (const std::shared_ptr<ReplicaSource>& source : sources_) {
    if (source->generation_rejected()) continue;
    double ewma = source->latency_ewma_micros();
    int health = breakers.OpenForHost(source->url().HostPortKey(), now) ? 2
                 : source->Quarantined(now)                             ? 1
                                                                        : 0;
    decorated.push_back(
        {std::make_tuple(health, source->consecutive_failures() > 0,
                         ewma == 0 ? 1 : 0, ewma, source->priority(),
                         source->url().ToString()),
         source});
  }
  std::stable_sort(decorated.begin(), decorated.end(),
                   [](const Decorated& a, const Decorated& b) {
                     return a.key < b.key;
                   });
  std::vector<std::shared_ptr<ReplicaSource>> ranked;
  ranked.reserve(decorated.size());
  for (Decorated& d : decorated) ranked.push_back(std::move(d.source));
  return ranked;
}

std::vector<std::shared_ptr<ReplicaSource>> ReplicaSet::CandidatesFor(
    size_t index, size_t stripe_width) const {
  std::vector<std::shared_ptr<ReplicaSource>> candidates = RankedSources();
  int64_t now = MonotonicMicros();
  const CircuitBreakerRegistry& breakers = context_->pool().breakers();
  size_t healthy = 0;
  while (healthy < candidates.size() &&
         !candidates[healthy]->Quarantined(now) &&
         !breakers.OpenForHost(candidates[healthy]->url().HostPortKey(),
                               now)) {
    ++healthy;
  }
  // Stripe rotation: concurrent slots start on different healthy
  // sources, so parallel chunk fetches aggregate per-connection TCP
  // windows instead of convoying on the single best replica. A stripe
  // width of 1 (single stream) keeps every chunk on the ranked-best
  // source and its warm keep-alive connection.
  size_t width = std::min(stripe_width == 0 ? 1 : stripe_width,
                          healthy == 0 ? 1 : healthy);
  if (healthy > 1 && width > 1) {
    std::rotate(candidates.begin(), candidates.begin() + (index % width),
                candidates.begin() + healthy);
  }
  return candidates;
}

void ReplicaSet::RecordSuccess(const std::shared_ptr<ReplicaSource>& source,
                               int64_t latency_micros) {
  source->RecordSuccess(latency_micros);
}

void ReplicaSet::RecordFailure(const std::shared_ptr<ReplicaSource>& source) {
  if (source->RecordFailure(MonotonicMicros(), kQuarantineFailures,
                            kQuarantineMicros)) {
    context_->stats().replica_quarantines.fetch_add(
        1, std::memory_order_relaxed);
  }
}

Status ReplicaSet::TryCandidates(size_t index, size_t stripe_width,
                                 const CandidateAttemptFn& attempt) {
  Status last = Status::AllReplicasFailed("replica set has no usable source");
  bool first = true;
  for (const std::shared_ptr<ReplicaSource>& source :
       CandidatesFor(index, stripe_width)) {
    if (!first) {
      context_->stats().replica_failovers.fetch_add(1,
                                                    std::memory_order_relaxed);
      DAVIX_LOG(kDebug) << "failing over to replica "
                        << source->url().ToString();
    }
    first = false;
    int64_t start = MonotonicMicros();
    bool did_fetch = false;
    Status status = attempt(source, &did_fetch);
    if (status.ok()) {
      if (did_fetch) RecordSuccess(source, MonotonicMicros() - start);
      return status;
    }
    if (!did_fetch) return status;  // local failure: nobody to blame
    RecordFailure(source);
    if (!ShouldFailover(status) &&
        status.code() != StatusCode::kCorruption) {
      return status;
    }
    last = std::move(status);
  }
  return last;
}

void ReplicaSet::SeedValidator(const BlockValidator& validator) {
  if (validator.empty()) return;
  MutexLock lock(mu_);
  if (agreed_set_) return;
  agreed_ = validator;
  agreed_set_ = true;
}

bool ReplicaSet::AgreesLocked(const BlockValidator& validator) const {
  // A response with no validators cannot disagree. Otherwise compare
  // ETags when both sides have one (replicas with skewed Last-Modified
  // stamps but equal ETags still pool); full validator equality when
  // either lacks an ETag.
  if (!agreed_set_ || validator.empty()) return true;
  return (!validator.etag.empty() && !agreed_.etag.empty())
             ? validator.etag == agreed_.etag
             : validator == agreed_;
}

bool ReplicaSet::Agrees(const BlockValidator& validator) const {
  MutexLock lock(mu_);
  return AgreesLocked(validator);
}

bool ReplicaSet::AdmitCachedGeneration(BlockCache* cache,
                                       const std::string& cache_key) {
  std::optional<BlockValidator> current = cache->UrlValidator(cache_key);
  // No registry entry means a purge raced the probe: the copied bytes
  // may span two generations, so they go back to the wire.
  if (!current) return false;
  SeedValidator(*current);
  return Agrees(*current);
}

std::optional<BlockValidator> ReplicaSet::Admit(
    const std::shared_ptr<ReplicaSource>& source,
    const BlockValidator& validator) {
  {
    MutexLock lock(mu_);
    if (!agreed_set_ && !validator.empty()) {
      agreed_ = validator;
      agreed_set_ = true;
      return agreed_;
    }
    if (AgreesLocked(validator)) return agreed_;
  }
  if (source && source->RejectGeneration()) {
    context_->stats().replica_quarantines.fetch_add(
        1, std::memory_order_relaxed);
    DAVIX_LOG(kWarn) << "replica " << source->url().ToString()
                     << " serves a different generation of "
                     << primary_.ToString() << "; quarantined";
  }
  return std::nullopt;
}

std::optional<BlockValidator> ReplicaSet::AdmitUrl(
    const Uri& url, const BlockValidator& validator) {
  return Admit(FindSource(url), validator);
}

BlockValidator ReplicaSet::agreed_validator() const {
  MutexLock lock(mu_);
  return agreed_;
}

std::vector<ReplicaSourceSnapshot> ReplicaSet::Snapshot() const {
  int64_t now = MonotonicMicros();
  std::vector<ReplicaSourceSnapshot> out;
  out.reserve(sources_.size());
  for (const std::shared_ptr<ReplicaSource>& source : sources_) {
    ReplicaSourceSnapshot snap;
    snap.url = source->url().ToString();
    snap.latency_ewma_micros = source->latency_ewma_micros();
    snap.consecutive_failures = source->consecutive_failures();
    snap.quarantined = source->Quarantined(now);
    snap.generation_rejected = source->generation_rejected();
    snap.successes = source->successes();
    snap.failures = source->failures();
    out.push_back(std::move(snap));
  }
  return out;
}

Result<HttpClient::Exchange> ReplicaSet::HeadRankedSources(
    const RequestParams& params) {
  RequestParams head_params = params;
  head_params.metalink_mode = MetalinkMode::kDisabled;
  std::optional<HttpClient::Exchange> answer;
  DAVIX_RETURN_IF_ERROR(TryCandidates(
      0, 1,
      [&](const std::shared_ptr<ReplicaSource>& source,
          bool* did_fetch) -> Status {
        *did_fetch = true;
        DAVIX_ASSIGN_OR_RETURN(
            HttpClient::Exchange exchange,
            client_.Execute(source->url(), http::Method::kHead, head_params));
        DAVIX_RETURN_IF_ERROR(
            HttpStatusToStatus(exchange.response.status_code,
                               "HEAD " + source->url().ToString()));
        SeedValidator(ValidatorFrom(exchange.response.headers));
        answer = std::move(exchange);
        return Status::OK();
      }));
  return std::move(*answer);
}

void ReplicaSet::EnsureSeeded(const RequestParams& params) {
  {
    MutexLock lock(mu_);
    if (agreed_set_) return;
  }
  // Nobody answering leaves the set unseeded: the first fetched chunk's
  // validator becomes the agreed generation instead.
  HeadRankedSources(params).ok();
}

Result<uint64_t> ReplicaSet::ResolveSize(const RequestParams& params) {
  {
    MutexLock lock(mu_);
    if (size_ != 0) return size_;
  }
  DAVIX_ASSIGN_OR_RETURN(HttpClient::Exchange exchange,
                         HeadRankedSources(params));
  std::optional<uint64_t> length =
      exchange.response.headers.GetUint64("Content-Length");
  if (!length || *length == 0) {
    return Status::ProtocolError(
        "multi-source: HEAD without usable Content-Length for " +
        primary_.ToString());
  }
  MutexLock lock(mu_);
  size_ = *length;
  return size_;
}

Status ReplicaSet::FetchChunk(size_t chunk_index, size_t stripe_width,
                              uint64_t chunk_offset, uint64_t chunk_length,
                              const RequestParams& params,
                              const std::string& cache_key, BlockCache* cache,
                              std::string* data) {
  if (cache != nullptr) {
    // A probe hit is delivered only when (a) no purge interleaved the
    // multi-block copy-out — the epoch is stable, so every byte read
    // belongs to one generation — and (b) that generation is the one
    // this stream agreed on (a concurrent reader may have refilled the
    // cache from a newer object mid-stream). Anything else refetches on
    // the wire, where Admit enforces the same agreement.
    uint64_t epoch = cache->PurgeEpoch();
    if (cache->TryReadFull(cache_key, chunk_offset, chunk_length, data) &&
        cache->PurgeEpoch() == epoch &&
        AdmitCachedGeneration(cache, cache_key)) {
      context_->stats().multisource_cache_chunks.fetch_add(
          1, std::memory_order_relaxed);
      return Status::OK();
    }
  }

  RequestParams chunk_params = params;
  chunk_params.ArmDeadline();
  chunk_params.metalink_mode = MetalinkMode::kDisabled;
  // A chunk is a one-range batch of the shared ranged GET, which owns
  // the stall watchdog, generation admission, the response-shape checks
  // and cache publication.
  const std::vector<http::ByteRange> ranges = {
      http::ByteRange{chunk_offset, chunk_length}};
  const std::vector<CoalescedRange> batch = {CoalescedRange{ranges[0], {0}}};
  std::vector<std::string> results(1);
  Status status = TryCandidates(
      chunk_index, stripe_width,
      [&](const std::shared_ptr<ReplicaSource>& source, bool* did_fetch) {
        // Fresh state per attempt: a full entity parked by a source that
        // then failed the chunk must not answer for the next source.
        VecDispatchState state;
        state.cache = cache;
        state.cache_key = &cache_key;
        state.replica_set = this;
        Status attempt = FetchVecBatch(&client_, source->url(), batch,
                                       chunk_params, ranges, &state, &results,
                                       did_fetch);
        if (*did_fetch) {
          context_->stats().multisource_chunks.fetch_add(
              1, std::memory_order_relaxed);
        }
        return attempt;
      });
  if (!status.ok()) {
    return status.WithContext("multi-source chunk at offset " +
                              std::to_string(chunk_offset));
  }
  *data = std::move(results[0]);
  return status;
}

Status ReplicaSet::Stream(uint64_t offset, uint64_t length,
                          const RequestParams& caller_params,
                          const ReplicaSpanSink& sink) {
  if (length == 0) return Status::OK();
  // One budget for the whole stream: every chunk, retry and fail-over
  // below decrements the same armed deadline.
  RequestParams params = caller_params;
  params.ArmDeadline();

  BlockCache* cache = params.use_block_cache &&
                              context_->block_cache().enabled()
                          ? &context_->block_cache()
                          : nullptr;
  std::string cache_key =
      cache != nullptr ? BlockCache::UrlKey(primary_) : std::string();
  EnsureSeeded(params);
  if (cache != nullptr) {
    // The agreed generation doubles as revalidation — whoever seeded it
    // (Open's Stat, the size HEAD, a prior stream): blocks cached from
    // an older generation are purged before the first probe can serve
    // them.
    BlockValidator agreed = agreed_validator();
    if (!agreed.empty()) cache->NoteValidator(cache_key, agreed);
  }

  uint64_t chunk_bytes = config_.chunk_bytes;
  size_t chunks =
      static_cast<size_t>((length + chunk_bytes - 1) / chunk_bytes);
  size_t parallelism = std::max<size_t>(
      1, std::min<size_t>(config_.max_streams, chunks));
  ThreadPool* dispatcher =
      chunks > 1 && parallelism > 1 ? &context_->dispatcher() : nullptr;

  // In-order delivery: completed chunks park in `pending` until the
  // delivery cursor reaches them; the sink runs serially under the
  // lock. At most ~stripe_width chunks wait at once (the claim loop
  // hands out indices in order, so the next-needed chunk is always
  // in flight).
  struct DeliveryState {
    explicit DeliveryState(uint64_t start) : next_offset(start) {}
    Mutex mu;
    std::map<uint64_t, std::string> pending GUARDED_BY(mu);
    uint64_t next_offset GUARDED_BY(mu);
    Status first_error GUARDED_BY(mu) = Status::OK();
    std::atomic<bool> failed{false};
  };
  DeliveryState state(offset);

  ParallelForCancellable(
      dispatcher, chunks, parallelism, [&](size_t chunk_index) {
        if (state.failed.load(std::memory_order_acquire)) return false;
        uint64_t chunk_offset = offset + chunk_index * chunk_bytes;
        uint64_t chunk_length =
            std::min<uint64_t>(chunk_bytes, offset + length - chunk_offset);
        std::string data;
        Status status =
            FetchChunk(chunk_index, config_.max_streams, chunk_offset,
                       chunk_length, params, cache_key, cache, &data);
        MutexLock lock(state.mu);
        if (!state.first_error.ok()) return false;
        if (!status.ok()) {
          state.first_error = std::move(status);
          state.failed.store(true, std::memory_order_release);
          return false;
        }
        state.pending.emplace(chunk_offset, std::move(data));
        auto it = state.pending.find(state.next_offset);
        while (it != state.pending.end()) {
          Status delivered = sink(it->first, it->second);
          if (!delivered.ok()) {
            state.first_error = std::move(delivered);
            state.failed.store(true, std::memory_order_release);
            return false;
          }
          state.next_offset += it->second.size();
          state.pending.erase(it);
          it = state.pending.find(state.next_offset);
        }
        return true;
      });

  MutexLock lock(state.mu);
  return state.first_error;
}

// ---------------------------------------------------------------------------
// The ranged GET
// ---------------------------------------------------------------------------

Status FetchVecBatch(HttpClient* client, const Uri& replica,
                     const std::vector<CoalescedRange>& batch,
                     const RequestParams& params,
                     const std::vector<http::ByteRange>& ranges,
                     VecDispatchState* state,
                     std::vector<std::string>* results, bool* did_fetch) {
  // A sibling batch already failed between this batch being claimed and
  // starting: don't put more traffic on the wire.
  if (state->failed.load(std::memory_order_acquire)) return Status::OK();

  // A sibling batch already received the whole entity: demote to local
  // scatter, zero wire traffic.
  if (state->have_full_body.load(std::memory_order_acquire)) {
    return ScatterFromFullBody(batch, state->full_body, ranges, results);
  }

  std::vector<http::ByteRange> wire_ranges;
  wire_ranges.reserve(batch.size());
  uint64_t wire_bytes = 0;
  for (const CoalescedRange& wire : batch) {
    wire_ranges.push_back(wire.range);
    wire_bytes += wire.range.length;
  }
  http::HeaderMap headers;
  headers.Set("Range", http::FormatRangeHeader(wire_ranges));

  // Stall watchdog: budget this batch by its wire bytes at the minimum
  // acceptable rate, so one trickling server aborts the batch (counted
  // as a stall_abort) and the candidate walk fails it over instead of
  // wedging the whole read.
  const int64_t stall_budget =
      StallBudgetMicros(wire_bytes, params.min_throughput_bytes_per_sec);
  RequestParams attempt_params = params;
  if (stall_budget > 0) {
    attempt_params.deadline = params.deadline.Tightened(stall_budget);
  }

  ContextStats& stats = client->context()->stats();
  *did_fetch = true;
  Result<HttpClient::Exchange> attempt = client->Execute(
      replica, http::Method::kGet, attempt_params, std::string(), &headers);
  if (!attempt.ok()) {
    // The tightened per-attempt budget fired, not the caller's
    // end-to-end deadline: a stall.
    if (stall_budget > 0 &&
        attempt.status().code() == StatusCode::kTimeout &&
        !params.deadline.Expired()) {
      stats.stall_aborts.fetch_add(1, std::memory_order_relaxed);
    }
    return attempt.status();
  }
  http::HttpResponse& response = attempt->response;
  if (response.status_code != 200 && response.status_code != 206) {
    Status status = HttpStatusToStatus(response.status_code,
                                       "ranged GET " + replica.ToString());
    if (status.ok()) {
      status = Status::ProtocolError("unexpected ranged-GET status " +
                                     std::to_string(response.status_code) +
                                     " from " + replica.ToString());
    }
    return status;
  }

  // Generation admission, before any byte is scattered or cached: with
  // a replica set, a response whose validators disagree with the set's
  // agreed generation is dropped wholesale (the source is quarantined
  // by the admission) and the walk moves on to the next-best source.
  // Admitted responses publish under the agreed validator, so fills
  // from different replicas never purge each other.
  BlockValidator validator = ValidatorFrom(response.headers);
  if (state->replica_set != nullptr) {
    std::optional<BlockValidator> admitted =
        state->replica_set->AdmitUrl(replica, validator);
    if (!admitted) {
      stats.replica_validator_rejects.fetch_add(1, std::memory_order_relaxed);
      return Status::Corruption("replica generation mismatch: " +
                                replica.ToString());
    }
    validator = *admitted;
  }
  BlockCache* cache = state->cache;

  if (response.status_code == 200) {
    // Server ignored the Range header: it sent the whole entity. Move
    // the body into the shared state (no copy) so every remaining batch
    // is satisfied locally.
    bool stored = false;
    {
      MutexLock lock(state->mu);
      if (!state->have_full_body.load(std::memory_order_relaxed)) {
        state->full_body = std::move(response.body);
        state->have_full_body.store(true, std::memory_order_release);
        stored = true;
      }
    }
    if (stored && cache != nullptr) {
      // The whole object is in hand: cache every block of it, final
      // short block included.
      cache->Insert(*state->cache_key, validator, 0, state->full_body,
                    state->full_body.size());
    }
    return ScatterFromFullBody(batch, state->full_body, ranges, results);
  }

  std::string content_type = response.headers.Get("Content-Type").value_or("");
  if (content_type.find("multipart/byteranges") != std::string::npos) {
    DAVIX_ASSIGN_OR_RETURN(std::string boundary,
                           http::ExtractBoundary(content_type));
    DAVIX_ASSIGN_OR_RETURN(std::vector<http::BytesPartView> parts,
                           http::ParseMultipartViews(response.body, boundary));
    // Match parts to wire ranges via a single-pass offset-keyed lookup
    // (wire ranges are pairwise disjoint, so offsets are unique). The
    // parts are views into the response body: payload bytes are copied
    // exactly once, straight into the user slots.
    std::unordered_map<uint64_t, const http::BytesPartView*> parts_by_offset;
    parts_by_offset.reserve(parts.size());
    for (const http::BytesPartView& part : parts) {
      parts_by_offset.emplace(part.range.offset, &part);
    }
    for (const CoalescedRange& wire : batch) {
      auto it = parts_by_offset.find(wire.range.offset);
      const http::BytesPartView* match =
          it != parts_by_offset.end() && it->second->range == wire.range
              ? it->second
              : nullptr;
      if (match == nullptr) {
        // Tolerate servers that send duplicate-offset or extra parts:
        // fall back to an exact scan before declaring the range missing.
        for (const http::BytesPartView& part : parts) {
          if (part.range == wire.range) {
            match = &part;
            break;
          }
        }
      }
      if (match == nullptr) {
        return Status::ProtocolError("multipart response missing range " +
                                     http::FormatRangeHeader({wire.range}));
      }
      DAVIX_RETURN_IF_ERROR(
          ScatterWireRange(wire, match->data, ranges, results));
      if (cache != nullptr) {
        // Wire ranges include coalesced gap bytes, so whole blocks the
        // user never asked for still become cache lines.
        cache->Insert(*state->cache_key, validator, match->range.offset,
                      match->data, match->total_size);
      }
    }
    return Status::OK();
  }

  // 206 with a single Content-Range: either we asked for one range, or
  // the server merged our ranges into one span. Its bytes are trusted
  // only where its Content-Range says they belong, and only when that
  // span covers every wire range of the batch.
  std::optional<std::string> content_range =
      response.headers.Get("Content-Range");
  if (!content_range) {
    return Status::ProtocolError("206 without Content-Range");
  }
  DAVIX_ASSIGN_OR_RETURN(http::ContentRange cr,
                         http::ParseContentRange(*content_range));
  if (response.body.size() != cr.range.length) {
    return Status::ProtocolError("206 body size != Content-Range length");
  }
  for (const CoalescedRange& wire : batch) {
    if (wire.range.offset < cr.range.offset ||
        wire.range.offset + wire.range.length >
            cr.range.offset + cr.range.length) {
      return Status::ProtocolError("206 span " + *content_range +
                                   " does not cover requested range");
    }
    DAVIX_RETURN_IF_ERROR(ScatterWireRange(
        wire,
        std::string_view(response.body)
            .substr(wire.range.offset - cr.range.offset, wire.range.length),
        ranges, results));
  }
  if (cache != nullptr) {
    cache->Insert(*state->cache_key, validator, cr.range.offset,
                  response.body, cr.total_size);
  }
  return Status::OK();
}

}  // namespace core
}  // namespace davix
