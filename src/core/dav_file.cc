#include "core/dav_file.h"

#include <algorithm>
#include <optional>

#include "common/base64.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "core/block_cache.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/metalink_engine.h"
#include "core/replica_set.h"
#include "core/vector_io.h"
#include "http/parser.h"

namespace davix {
namespace core {

DavFile::DavFile(Context* context, Uri url)
    : context_(context), client_(context), url_(std::move(url)) {}

Result<DavFile> DavFile::Make(Context* context, const std::string& url) {
  DAVIX_ASSIGN_OR_RETURN(Uri parsed, Uri::Parse(url));
  return DavFile(context, std::move(parsed));
}

template <typename T>
Result<T> DavFile::WithFailover(
    const RequestParams& caller_params,
    const std::function<Result<T>(const Uri&, const RequestParams&)>& op) {
  RequestParams params = caller_params;
  params.ArmDeadline();
  if (params.metalink_mode == MetalinkMode::kDisabled) return op(url_, params);
  std::shared_ptr<ReplicaSet> set = replica_set_;
  if (set == nullptr) {
    // No resolved set: a healthy primary costs one request and no
    // Metalink. Only when it fails is the resource's set resolved, for
    // this walk only (nothing is pinned to the file).
    Result<T> primary = op(url_, params);
    if (primary.ok() || !ShouldFailover(primary.status())) return primary;
    Result<std::shared_ptr<ReplicaSet>> resolved =
        ReplicaSet::Resolve(context_, url_, params);
    if (!resolved.ok()) {
      DAVIX_LOG(kDebug) << "no metalink for " << url_.ToString() << ": "
                        << resolved.status().ToString();
      return primary;  // keep the original, more informative error
    }
    set = std::move(*resolved);
    if (set->source_count() < 2) return primary;  // no other replica
    // The primary's failure ranks it behind every other source, so it is
    // not retried before they all had their turn; leaving it counts as
    // the walk's first failover.
    set->RecordFailure(set->FindSource(url_));
    context_->stats().replica_failovers.fetch_add(1,
                                                  std::memory_order_relaxed);
  }

  std::optional<T> value;
  Status status = set->TryCandidates(
      0, 1,
      [&](const std::shared_ptr<ReplicaSource>& source,
          bool* did_fetch) -> Status {
        *did_fetch = true;
        Result<T> attempt = op(source->url(), params);
        if (!attempt.ok()) return attempt.status();
        value = std::move(*attempt);
        return Status::OK();
      });
  if (status.ok()) return std::move(*value);
  // A terminal error stops the walk and surfaces as is; a walk that ran
  // out of sources reports the last one's error.
  if (!ShouldFailover(status) && status.code() != StatusCode::kCorruption) {
    return status;
  }
  return Status::AllReplicasFailed("all replicas of " + url_.ToString() +
                                   " failed; last error: " +
                                   status.ToString());
}

Result<std::string> DavFile::Get(const RequestParams& params) {
  if (params.metalink_mode == MetalinkMode::kMultiStream) {
    MetalinkEngine engine(&client_);
    Result<std::string> multi = engine.MultiStreamGet(url_, params);
    if (multi.ok()) return multi;
    DAVIX_LOG(kDebug) << "multi-stream failed (" << multi.status().ToString()
                      << "), falling back to plain GET";
  }
  return WithFailover<std::string>(
      params,
      [&](const Uri& replica, const RequestParams& p) -> Result<std::string> {
        DAVIX_ASSIGN_OR_RETURN(
            HttpClient::Exchange exchange,
            client_.Execute(replica, http::Method::kGet, p));
        DAVIX_RETURN_IF_ERROR(HttpStatusToStatus(
            exchange.response.status_code, "GET " + replica.ToString()));
        return std::move(exchange.response.body);
      });
}

Status DavFile::Put(std::string data, const RequestParams& params) {
  DAVIX_ASSIGN_OR_RETURN(
      HttpClient::Exchange exchange,
      client_.Execute(url_, http::Method::kPut, params, std::move(data)));
  return HttpStatusToStatus(exchange.response.status_code,
                            "PUT " + url_.ToString());
}

Status DavFile::Delete(const RequestParams& params) {
  DAVIX_ASSIGN_OR_RETURN(
      HttpClient::Exchange exchange,
      client_.Execute(url_, http::Method::kDelete, params));
  return HttpStatusToStatus(exchange.response.status_code,
                            "DELETE " + url_.ToString());
}

Result<FileInfo> DavFile::Stat(const RequestParams& params) {
  return WithFailover<FileInfo>(
      params,
      [&](const Uri& replica, const RequestParams& p) -> Result<FileInfo> {
        DAVIX_ASSIGN_OR_RETURN(
            HttpClient::Exchange exchange,
            client_.Execute(replica, http::Method::kHead, p));
        DAVIX_RETURN_IF_ERROR(HttpStatusToStatus(
            exchange.response.status_code, "HEAD " + replica.ToString()));
        FileInfo info;
        info.size =
            exchange.response.headers.GetUint64("Content-Length").value_or(0);
        info.etag = exchange.response.headers.Get("ETag").value_or("");
        if (std::optional<std::string> lm =
                exchange.response.headers.Get("Last-Modified")) {
          Result<int64_t> mtime = http::ParseHttpDate(*lm);
          if (mtime.ok()) info.mtime_epoch_seconds = *mtime;
        }
        return info;
      });
}

Result<std::string> DavFile::GetChecksum(const RequestParams& params) {
  return WithFailover<std::string>(
      params,
      [&](const Uri& replica, const RequestParams& p) -> Result<std::string> {
        http::HeaderMap headers;
        headers.Set("Want-Digest", "md5");
        DAVIX_ASSIGN_OR_RETURN(
            HttpClient::Exchange exchange,
            client_.Execute(replica, http::Method::kHead, p,
                            std::string(), &headers));
        DAVIX_RETURN_IF_ERROR(HttpStatusToStatus(
            exchange.response.status_code, "HEAD " + replica.ToString()));
        std::optional<std::string> digest =
            exchange.response.headers.Get("Digest");
        if (!digest) {
          return Status::NotSupported("server sent no Digest header for " +
                                      replica.ToString());
        }
        // Digest: md5=<base64>
        std::string_view value = TrimWhitespace(*digest);
        if (!StartsWith(value, "md5=")) {
          return Status::ProtocolError("unexpected Digest algorithm: " +
                                       *digest);
        }
        DAVIX_ASSIGN_OR_RETURN(std::string raw,
                               Base64Decode(value.substr(4)));
        return HexEncode(raw);
      });
}

Status DavFile::Copy(const std::string& destination_path,
                     const RequestParams& params) {
  http::HeaderMap headers;
  headers.Set("Destination", destination_path);
  DAVIX_ASSIGN_OR_RETURN(
      HttpClient::Exchange exchange,
      client_.Execute(url_, http::Method::kCopy, params, std::string(),
                      &headers));
  return HttpStatusToStatus(exchange.response.status_code,
                            "COPY " + url_.ToString());
}

Result<std::string> DavFile::ReadPartial(uint64_t offset, uint64_t length,
                                         const RequestParams& params) {
  if (length == 0) return std::string();
  std::vector<http::ByteRange> ranges = {http::ByteRange{offset, length}};
  DAVIX_ASSIGN_OR_RETURN(std::vector<std::string> results,
                         ReadPartialVec(ranges, params));
  return std::move(results[0]);
}

Status DavFile::ResolveReplicaSet(const RequestParams& params) {
  if (replica_set_ != nullptr) return Status::OK();
  if (params.metalink_mode == MetalinkMode::kDisabled) {
    return Status::InvalidArgument("metalink disabled for " +
                                   url_.ToString());
  }
  DAVIX_ASSIGN_OR_RETURN(replica_set_,
                         ReplicaSet::Resolve(context_, url_, params));
  return Status::OK();
}

Result<std::vector<std::string>> DavFile::ReadPartialVec(
    const std::vector<http::ByteRange>& ranges, const RequestParams& params) {
  if (replica_set_ != nullptr &&
      params.metalink_mode != MetalinkMode::kDisabled) {
    // The batch dispatch fails over per batch on the resolved set (and
    // stripes batches across its sources); a top-level retry here would
    // only repeat the same walk. One armed deadline spans every batch.
    RequestParams armed = params;
    armed.ArmDeadline();
    return ReadPartialVecAt(url_, ranges, armed);
  }
  return WithFailover<std::vector<std::string>>(
      params,
      [&](const Uri& replica,
          const RequestParams& p) -> Result<std::vector<std::string>> {
        return ReadPartialVecAt(replica, ranges, p);
      });
}

std::future<Result<std::vector<std::string>>> DavFile::ReadPartialVecAsync(
    const std::vector<http::ByteRange>& ranges, const RequestParams& params) {
  // The task owns copies of the ranges and params; `this` stays valid by
  // the contract documented in the header. Sharing the packaged_task lets
  // the submit closure stay copyable.
  auto task = std::make_shared<
      std::packaged_task<Result<std::vector<std::string>>()>>(
      [this, ranges, params]() { return ReadPartialVec(ranges, params); });
  std::future<Result<std::vector<std::string>>> future = task->get_future();
  if (!context_->dispatcher().Submit([task]() { (*task)(); })) {
    // Dispatcher shutting down: run inline so the future still resolves.
    (*task)();
  }
  return future;
}

Status DavFile::RevalidateCached(const Uri& replica,
                                 const RequestParams& params,
                                 BlockCache* cache,
                                 const std::string& cache_key) {
  DAVIX_ASSIGN_OR_RETURN(
      HttpClient::Exchange exchange,
      client_.Execute(replica, http::Method::kHead, params));
  DAVIX_RETURN_IF_ERROR(HttpStatusToStatus(exchange.response.status_code,
                                           "HEAD " + replica.ToString()));
  cache->NoteValidator(cache_key, ValidatorFrom(exchange.response.headers));
  return Status::OK();
}

Result<std::vector<std::string>> DavFile::ReadPartialVecAt(
    const Uri& replica, const std::vector<http::ByteRange>& ranges,
    const RequestParams& params) {
  std::vector<std::string> results(ranges.size());

  BlockCache* cache = params.use_block_cache &&
                              context_->block_cache().enabled()
                          ? &context_->block_cache()
                          : nullptr;
  // Cache entries are keyed by the canonical *primary* URL, not the
  // replica actually fetched from: fail-over reads of the same resource
  // share one block set.
  ReplicaSet* set = params.metalink_mode != MetalinkMode::kDisabled
                        ? replica_set_.get()
                        : nullptr;
  std::string cache_key = cache ? BlockCache::UrlKey(url_) : std::string();
  if (cache &&
      params.cache_revalidation == CacheRevalidatePolicy::kAlways &&
      cache->HasUrl(cache_key)) {
    // With a resolved set the revalidation HEAD goes to the best-ranked
    // source (the primary may be the very replica that is down).
    Uri revalidate_target = replica;
    if (set != nullptr) {
      std::vector<std::shared_ptr<ReplicaSource>> ranked =
          set->RankedSources();
      if (!ranked.empty()) revalidate_target = ranked.front()->url();
    }
    DAVIX_RETURN_IF_ERROR(
        RevalidateCached(revalidate_target, params, cache, cache_key));
  }

  // Cache carve-out, before any coalescing: the cached prefix and
  // suffix of each user range are copied straight into its result slot,
  // and only the missing middle span is forwarded to the wire planner.
  // Fully cached ranges never reach the network at all.
  struct NetSpan {
    size_t range_index;    ///< index into `ranges` / `results`
    uint64_t dest_offset;  ///< where the fetched bytes land in the slot
  };
  std::vector<http::ByteRange> net_ranges;
  std::vector<NetSpan> net_spans;
  bool cache_served = false;  // any byte of `results` came from the cache
  bool carved = false;        // some range was trimmed (dest offsets != 0)
  // Snapshot of the cache's purge epoch, taken before any cached byte
  // is served: compared after the network fill to catch a generation
  // turnover — whether triggered by this dispatch's own fills or by a
  // concurrent dispatch / Open on the same Context.
  uint64_t purge_epoch = cache ? cache->PurgeEpoch() : 0;
  if (cache) {
    net_ranges.reserve(ranges.size());
    net_spans.reserve(ranges.size());
    // One registry probe up front: a URL with nothing resident (the
    // cold case) skips the per-range lookups — and their 2N lock
    // round trips — entirely. The skipped lookups still count as
    // misses so hit/miss accounting reflects reads that hit the wire.
    bool may_be_cached = cache->HasUrl(cache_key);
    uint64_t skipped_lookups = 0;
    for (size_t i = 0; i < ranges.size(); ++i) {
      const http::ByteRange& r = ranges[i];
      results[i].resize(r.length);
      if (r.length == 0) {
        // Placeholder keeps net indices aligned with user indices, so
        // empty ranges do not knock the dispatch off the direct
        // zero-copy scatter path. CoalesceRanges skips them.
        net_ranges.push_back(http::ByteRange{r.offset, 0});
        net_spans.push_back({i, 0});
        continue;
      }
      if (!may_be_cached) {
        ++skipped_lookups;
        net_ranges.push_back(r);
        net_spans.push_back({i, 0});
        continue;
      }
      uint64_t prefix =
          cache->ReadPrefix(cache_key, r.offset, r.length, results[i].data());
      if (prefix == r.length) {
        cache_served = true;
        continue;  // fully cache-served
      }
      uint64_t suffix = cache->ReadSuffix(cache_key, r.offset + prefix,
                                          r.length - prefix,
                                          results[i].data() + prefix);
      if (prefix > 0 || suffix > 0) cache_served = carved = true;
      net_ranges.push_back(
          http::ByteRange{r.offset + prefix, r.length - prefix - suffix});
      net_spans.push_back({i, prefix});
    }
    cache->RecordMisses(skipped_lookups);
    bool all_empty_or_served = true;
    for (const http::ByteRange& r : net_ranges) {
      if (r.length != 0) {
        all_empty_or_served = false;
        break;
      }
    }
    if (all_empty_or_served) return results;  // warm: zero wire traffic
  }
  const std::vector<http::ByteRange>& wire_view = cache ? net_ranges : ranges;

  std::vector<CoalescedRange> coalesced =
      CoalesceRanges(wire_view, params.vector_gap_bytes);
  if (coalesced.empty()) {
    // All (remaining) ranges empty; size untouched slots like preadv.
    for (size_t i = 0; i < ranges.size(); ++i) {
      results[i].resize(ranges[i].length);
    }
    return results;
  }
  // Multi-stream chunking: re-split big contiguous runs and cap batch
  // bytes so one large read fans out across the parallel dispatcher
  // instead of riding a single connection's congestion window.
  coalesced = SplitOversized(std::move(coalesced), wire_view,
                             params.vector_parallel_chunk_bytes);
  std::vector<std::vector<CoalescedRange>> batches =
      SplitBatches(std::move(coalesced), params.max_ranges_per_request,
                   params.vector_parallel_chunk_bytes);

  // Zero-copy scatter: size every result slot up front so concurrent
  // batch workers write payload bytes straight into them — no allocation
  // inside the dispatch, and no two workers share a slot (each user
  // range lives in exactly one wire range, each wire range in exactly
  // one batch). Only when the cache actually trimmed or dropped ranges
  // (net indices no longer line up with user indices) do workers
  // scatter into per-net-span slots that are folded back into the user
  // slots afterwards — a cold read on a cache-enabled Context keeps
  // the direct zero-copy path.
  bool direct_scatter =
      cache == nullptr || (!carved && net_ranges.size() == ranges.size());
  std::vector<std::string> net_results;
  std::vector<std::string>* scatter_slots;
  if (direct_scatter) {
    for (size_t i = 0; i < ranges.size(); ++i) {
      results[i].resize(ranges[i].length);
    }
    scatter_slots = &results;
  } else {
    net_results.resize(net_ranges.size());
    for (size_t j = 0; j < net_ranges.size(); ++j) {
      net_results[j].resize(net_ranges[j].length);
    }
    scatter_slots = &net_results;
  }

  size_t parallelism = params.max_parallel_range_requests;
  if (parallelism == 0) {
    parallelism = context_->pool().config().max_idle_per_host;
  }
  parallelism = std::max<size_t>(1, std::min(parallelism, batches.size()));

  // Single-batch (or serial) dispatches stay on the calling thread and
  // never start the dispatcher; multi-batch dispatches run on the shared
  // per-Context pool instead of spawning threads per call.
  ThreadPool* dispatcher =
      batches.size() > 1 && parallelism > 1 ? &context_->dispatcher() : nullptr;

  VecDispatchState state;
  state.cache = cache;
  state.cache_key = &cache_key;
  state.replica_set = set;
  ParallelForCancellable(
      dispatcher, batches.size(), parallelism, [&](size_t batch_index) {
        const std::vector<CoalescedRange>& batch = batches[batch_index];
        auto fetch = [&](const Uri& source, bool* did_fetch) {
          Status attempt = FetchVecBatch(&client_, source, batch, params,
                                         wire_view, &state, scatter_slots,
                                         did_fetch);
          if (*did_fetch) {
            context_->stats().vector_queries.fetch_add(
                1, std::memory_order_relaxed);
            context_->stats().ranges_requested.fetch_add(
                batch.size(), std::memory_order_relaxed);
          }
          return attempt;
        };
        // With a resolved set, batches stripe across its sources and a
        // failing batch is re-dispatched to the next-best one.
        bool did_fetch = false;
        Status status =
            set != nullptr
                ? set->TryCandidates(
                      batch_index, parallelism,
                      [&](const std::shared_ptr<ReplicaSource>& source,
                          bool* fetched) {
                        return fetch(source->url(), fetched);
                      })
                : fetch(replica, &did_fetch);
        if (!status.ok()) {
          MutexLock lock(state.mu);
          if (state.first_error.ok()) state.first_error = std::move(status);
          state.failed.store(true, std::memory_order_release);
          return false;  // first-error cancellation: skip unstarted batches
        }
        return true;
      });

  {
    MutexLock lock(state.mu);
    if (!state.first_error.ok()) return state.first_error;
  }
  if (cache && cache_served && cache->PurgeEpoch() != purge_epoch) {
    // A generation turnover happened while part of this read was
    // already served from the cache — detected by this dispatch's own
    // fill, or caused by a concurrent dispatch/Open purging the URL:
    // the assembled buffer could mix two generations into bytes that
    // never existed remotely. Refetch everything coherently with the
    // cache bypassed — same single-pass semantics a cache-less
    // dispatch has.
    DAVIX_LOG(kDebug) << "cache generation changed mid-read of "
                      << url_.ToString() << "; refetching without cache";
    RequestParams bypass = params;
    bypass.use_block_cache = false;
    return ReadPartialVecAt(replica, ranges, bypass);
  }
  if (!direct_scatter) {
    for (size_t j = 0; j < net_ranges.size(); ++j) {
      const NetSpan& span = net_spans[j];
      results[span.range_index].replace(span.dest_offset,
                                        net_results[j].size(),
                                        net_results[j]);
    }
  }
  return results;
}

}  // namespace core
}  // namespace davix
