#ifndef DAVIX_CORE_REPLICA_SET_H_
#define DAVIX_CORE_REPLICA_SET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/uri.h"
#include "core/block_cache.h"
#include "core/http_client.h"
#include "core/request_params.h"
#include "core/vector_io.h"
#include "http/header_map.h"
#include "metalink/metalink.h"

namespace davix {
namespace core {

/// ETag/Last-Modified of a response, as block-cache validation metadata.
/// Shared by every read path that publishes fetched spans into the cache.
BlockValidator ValidatorFrom(const http::HeaderMap& headers);

/// Failures that justify looking for another replica (§2.4): anything
/// suggesting *this* endpoint is unavailable, including 404 (in a
/// federated namespace the resource may simply live elsewhere).
bool ShouldFailover(const Status& status);

/// One replica location plus its health state (§2.4 replica management):
/// a latency EWMA, a consecutive-failure count, and a quarantine
/// deadline. The scheduler prefers low-latency healthy sources and stops
/// sending traffic to quarantined ones until their deadline passes; a
/// generation rejection (ETag disagreeing with the set's agreed
/// validator) quarantines the source for the life of the set.
///
/// Thread-safe: yes — health updates come concurrently from every chunk
/// fetch that used this source.
class ReplicaSource {
 public:
  ReplicaSource(Uri url, int priority) : url_(std::move(url)),
                                         priority_(priority) {}

  const Uri& url() const { return url_; }
  int priority() const { return priority_; }

  /// Feeds one successful exchange into the health state: resets the
  /// consecutive-failure count, lifts a timed quarantine, and folds
  /// `latency_micros` into the EWMA.
  void RecordSuccess(int64_t latency_micros);

  /// Feeds one failed exchange. After `failure_threshold` consecutive
  /// failures the source is quarantined until `now_micros +
  /// quarantine_micros`. Returns true when this call newly quarantined
  /// the source.
  bool RecordFailure(int64_t now_micros, int failure_threshold,
                     int64_t quarantine_micros);

  /// Permanent quarantine: the source served a different generation of
  /// the object than the set agreed on. Returns true when this call
  /// newly rejected it (false if it was already rejected).
  bool RejectGeneration();

  /// True while the source should not be scheduled (timed quarantine
  /// still running, or generation-rejected).
  bool Quarantined(int64_t now_micros) const;

  /// True when the source was generation-rejected (never reused, even
  /// as a last resort).
  bool generation_rejected() const;

  /// Smoothed request latency; 0 until the first success.
  double latency_ewma_micros() const;

  int consecutive_failures() const;
  uint64_t successes() const;
  uint64_t failures() const;

 private:
  const Uri url_;
  const int priority_;

  mutable Mutex mu_;
  double latency_ewma_micros_ GUARDED_BY(mu_) = 0;
  int consecutive_failures_ GUARDED_BY(mu_) = 0;
  int64_t quarantine_until_micros_ GUARDED_BY(mu_) = 0;
  bool generation_rejected_ GUARDED_BY(mu_) = false;
  uint64_t successes_ GUARDED_BY(mu_) = 0;
  uint64_t failures_ GUARDED_BY(mu_) = 0;
};

/// Point-in-time health view of one source, for benches and tests.
struct ReplicaSourceSnapshot {
  std::string url;
  double latency_ewma_micros = 0;
  int consecutive_failures = 0;
  bool quarantined = false;
  bool generation_rejected = false;
  uint64_t successes = 0;
  uint64_t failures = 0;
};

/// Shape of the striped multi-source scheduler; both knobs follow the
/// repository's 0 = auto convention (resolved once, in ReplicaSet::Make)
/// and Resolve takes them from RequestParams::multistream_*.
struct ReplicaSetConfig {
  /// Bytes per chunk range-GET. 0 = 1 MiB.
  uint64_t chunk_bytes = 0;
  /// Parallel chunk fetches ceiling (stripe width). 0 = 4.
  size_t max_streams = 0;
};

/// Sink of the streaming multi-source read: called serially, in offset
/// order, with contiguous spans (`offset` of each call is exactly the
/// end of the previous one). Returning an error aborts the stream.
using ReplicaSpanSink =
    std::function<Status(uint64_t offset, std::string_view data)>;

/// One attempt of a candidate walk (ReplicaSet::TryCandidates): perform
/// the operation against `source`, setting `*did_fetch` as soon as a
/// request actually goes on the wire — health feedback only covers real
/// exchanges.
using CandidateAttemptFn = std::function<Status(
    const std::shared_ptr<ReplicaSource>& source, bool* did_fetch)>;

/// The replica-aware multi-source engine behind §2.4: owns the replica
/// pointers of one resource (from its Metalink) plus their health
/// state, and schedules chunk range-GETs across the healthy sources on
/// the Context's dispatcher pool.
///
/// Striping: chunk i's candidate order is the health-ranked source list
/// rotated by `i % stripe_width` (stripe_width = min(max_streams,
/// healthy sources)), so concurrent streams pull from different
/// replicas — aggregating per-connection TCP windows on long fat paths
/// — while a single-stream read stays pinned to the best source and its
/// warm keep-alive connection. A failing chunk walks the remaining
/// candidates (next-best failover) before surfacing an error, so a read
/// succeeds as long as one agreeing replica is reachable.
///
/// Caching: when the Context has a block cache (and the request leaves
/// `use_block_cache` on), every chunk probes the cache before fetching
/// — warm chunks never touch the wire — and every fetched span is
/// published back under the *primary* URL key with the set's agreed
/// validator, so fail-over and striping share one block set.
///
/// Generation agreement: the first observed validator (seeded from
/// DavPosix::Open's Stat, the size-resolving HEAD, or the first fetched
/// chunk) becomes the set's agreed generation. A source whose response
/// ETag disagrees is generation-rejected: quarantined for the life of
/// the set, its bytes neither delivered nor published into the cache.
/// Agreement compares ETags when both sides have one and falls back to
/// the full validator otherwise, so replicas with skewed Last-Modified
/// stamps but equal ETags still pool.
///
/// Ownership: holds a Context* (must outlive the set) and its own
/// HttpClient; shared by DavFile and in-flight read-ahead fetches via
/// shared_ptr. Thread-safe: yes.
class ReplicaSet {
 public:
  /// Builds the set from an already-fetched Metalink. `primary` is
  /// prepended (priority 0) when the Metalink does not list it, so the
  /// original URL is always a source. Fails when no usable replica
  /// URL parses.
  static Result<std::shared_ptr<ReplicaSet>> Make(
      Context* context, const Uri& primary,
      const metalink::MetalinkFile& metalink, ReplicaSetConfig config);

  /// Fetches the resource's Metalink (via RequestParams::
  /// metalink_resolver or the origin "?metalink" convention) and builds
  /// the set; config knobs come from `params`.
  static Result<std::shared_ptr<ReplicaSet>> Resolve(
      Context* context, const Uri& resource, const RequestParams& params);

  const Uri& primary() const { return primary_; }
  /// Whole-object md5 from the Metalink; empty when absent.
  const std::string& md5() const { return md5_; }
  /// Object size; 0 until known (Metalink or ResolveSize).
  uint64_t size() const;
  size_t source_count() const { return sources_.size(); }

  /// Object size from the Metalink, falling back to a HEAD walked over
  /// the ranked sources (which also seeds the agreed validator and the
  /// first latency sample). The resolved size is remembered.
  Result<uint64_t> ResolveSize(const RequestParams& params);

  /// Streams [offset, offset+length) through `sink` in offset order by
  /// striping chunk range-GETs across the healthy sources on the
  /// Context's dispatcher (see class comment). Out-of-order completed
  /// chunks are buffered; at most ~stripe_width chunks wait at once.
  Status Stream(uint64_t offset, uint64_t length,
                const RequestParams& params, const ReplicaSpanSink& sink);

  /// Sources ranked for scheduling: healthy before quarantined before
  /// breaker-open; among healthy ones, sources without a failure streak
  /// first; then lower-latency EWMA first (unprobed sources after probed
  /// ones, by Metalink priority then URL). Generation-rejected sources
  /// are excluded entirely.
  std::vector<std::shared_ptr<ReplicaSource>> RankedSources() const;

  /// Candidate try-order for stripe slot `index`: RankedSources()
  /// with its healthy prefix rotated by `index % stripe_width`.
  std::vector<std::shared_ptr<ReplicaSource>> CandidatesFor(
      size_t index, size_t stripe_width) const;

  /// The §2.4 failover policy and the only walk over replica
  /// candidates: walks the candidates for stripe slot `index`, invoking
  /// `attempt` on each until one succeeds. Owns the bookkeeping — every
  /// retry counts a replica_failover, successes feed the latency EWMA,
  /// failures that reached the wire feed the failure streak (a failure
  /// before any wire traffic returns immediately: nobody to blame,
  /// retrying is pointless) — and continues past retryable errors and
  /// generation mismatches (kCorruption: the next source may agree) but
  /// stops on terminal ones. Returns the last error when every candidate
  /// failed. Used by the chunk scheduler, the size/seed HEAD, and
  /// DavFile's vectored batch dispatch and per-operation failover.
  Status TryCandidates(size_t index, size_t stripe_width,
                       const CandidateAttemptFn& attempt);

  /// Health feedback outside a candidate walk (tests, and DavFile
  /// marking a primary that failed before the set was resolved).
  void RecordSuccess(const std::shared_ptr<ReplicaSource>& source,
                     int64_t latency_micros);
  void RecordFailure(const std::shared_ptr<ReplicaSource>& source);

  /// Looks up a source by canonical URL; null when unknown.
  std::shared_ptr<ReplicaSource> FindSource(const Uri& url) const;

  /// Seeds the agreed generation when none is set yet (DavPosix::Open
  /// feeds the validator its existence Stat observed). Empty
  /// validators are ignored.
  void SeedValidator(const BlockValidator& validator);

  /// Admits `validator` as agreeing with the set's generation: returns
  /// the validator to publish cached blocks with (the agreed one) on
  /// agreement, std::nullopt on disagreement — the source serving it is
  /// then generation-rejected and its bytes must be dropped. An unset
  /// agreed generation adopts the first non-empty validator seen.
  std::optional<BlockValidator> Admit(
      const std::shared_ptr<ReplicaSource>& source,
      const BlockValidator& validator);

  /// Admit() variant for fetchers that track the target by URL
  /// (FetchVecBatch): resolves the source by canonical URL; an unknown
  /// URL is validated against the agreed generation without quarantine
  /// side effects.
  std::optional<BlockValidator> AdmitUrl(const Uri& url,
                                         const BlockValidator& validator);

  /// Agreed generation; empty validator until seeded.
  BlockValidator agreed_validator() const;

  /// Per-source health snapshot (bench/test visibility).
  std::vector<ReplicaSourceSnapshot> Snapshot() const;

 private:
  ReplicaSet(Context* context, Uri primary, ReplicaSetConfig config);

  /// Fetches one chunk: cache probe, then a candidate walk of one-range
  /// FetchVecBatch attempts. On success `*data` holds exactly
  /// `chunk_length` bytes.
  Status FetchChunk(size_t chunk_index, size_t stripe_width,
                    uint64_t chunk_offset, uint64_t chunk_length,
                    const RequestParams& params, const std::string& cache_key,
                    BlockCache* cache, std::string* data);

  /// Agreement predicate of Admit: true when `validator` matches the
  /// agreed generation (ETags compared when both sides carry one; an
  /// unset agreed generation or an empty validator agrees with
  /// everything). `AgreesLocked` requires `mu_` held.
  bool Agrees(const BlockValidator& validator) const EXCLUDES(mu_);
  bool AgreesLocked(const BlockValidator& validator) const REQUIRES(mu_);

  /// True when the cache's current generation for `cache_key` agrees
  /// with the set's — the gate a cache-probe hit must pass before its
  /// bytes are delivered. An unseeded set adopts the cached generation;
  /// a vanished registry entry (purge racing the probe) fails the gate.
  bool AdmitCachedGeneration(BlockCache* cache,
                             const std::string& cache_key);

  /// Walks the ranked sources (TryCandidates) with a HEAD until one
  /// answers 2xx, seeding the agreed validator from the winning
  /// response. Shared by EnsureSeeded and ResolveSize.
  Result<HttpClient::Exchange> HeadRankedSources(const RequestParams& params);

  /// Ensures the agreed validator is seeded, HEADing ranked sources if
  /// needed (best effort: an unreachable set leaves the first fetched
  /// chunk to seed instead).
  void EnsureSeeded(const RequestParams& params);

  Context* context_;
  HttpClient client_;
  const Uri primary_;
  const ReplicaSetConfig config_;
  std::string md5_;
  /// Immutable after construction; per-source state lives inside each
  /// ReplicaSource.
  std::vector<std::shared_ptr<ReplicaSource>> sources_;

  mutable Mutex mu_;
  BlockValidator agreed_ GUARDED_BY(mu_);
  bool agreed_set_ GUARDED_BY(mu_) = false;
  uint64_t size_ GUARDED_BY(mu_) = 0;
};

/// Shared state of one ranged-GET dispatch (a vectored read's batches,
/// or one multi-source chunk): every batch worker reports errors here,
/// and the first batch to receive a 200 (server ignored the Range
/// header) parks the full entity for its siblings.
///
/// Thread-safe: yes — `mu` guards the error slot, `full_body` is
/// published once via the release/acquire pair on `have_full_body`, and
/// the remaining members are immutable for the dispatch's duration.
struct VecDispatchState {
  Mutex mu;
  Status first_error GUARDED_BY(mu) = Status::OK();
  std::atomic<bool> failed{false};
  /// Written once under `mu`, then read-only; readers gate on the
  /// acquire-load of `have_full_body` (a release/acquire publication,
  /// so the post-publication reads are deliberately lock-free and the
  /// member stays unannotated).
  std::string full_body;
  std::atomic<bool> have_full_body{false};
  /// Block-cache fill target (null = caching off for this dispatch).
  /// Every fetched wire span is inserted, keyed by the dispatch's
  /// canonical primary URL, with the validator its response carried.
  BlockCache* cache = nullptr;
  const std::string* cache_key = nullptr;
  /// Replica set of the dispatch (null = single-source). Every
  /// response's validators are admitted against the set's agreed
  /// generation before scatter/cache-fill; spans are published under
  /// the agreed validator so fail-over and striping share one cache
  /// generation.
  ReplicaSet* replica_set = nullptr;
};

/// The one ranged GET: fetches the wire ranges of `batch` from `replica`
/// with one (multi-)range request and scatters the payload into the
/// preallocated `results` slots of the user `ranges`. Runs concurrently
/// with sibling batches of the same `state`. In order, it
///  - short-circuits when a sibling failed (OK, nothing fetched) or
///    parked the full entity (local scatter, no wire traffic);
///  - arms the stall watchdog: the attempt's deadline is tightened to
///    its wire bytes at RequestParams::min_throughput_bytes_per_sec, and
///    a stall counts a stall_abort;
///  - admits the response's validators against `state->replica_set`'s
///    agreed generation (a mismatch returns kCorruption);
///  - checks the response shape — a 206 multipart body must carry every
///    wire range, a single-range 206 must name a Content-Range that
///    covers the batch with a body of exactly that length, and a 200 is
///    parked as the full entity — and fails with kProtocolError
///    otherwise;
///  - only then publishes the fetched spans into `state->cache`.
/// `*did_fetch` (required) is set when a request actually went on the
/// wire, so candidate walks feed health only for real exchanges.
Status FetchVecBatch(HttpClient* client, const Uri& replica,
                     const std::vector<CoalescedRange>& batch,
                     const RequestParams& params,
                     const std::vector<http::ByteRange>& ranges,
                     VecDispatchState* state,
                     std::vector<std::string>* results, bool* did_fetch);

}  // namespace core
}  // namespace davix

#endif  // DAVIX_CORE_REPLICA_SET_H_
