#include "core/replica_set.h"

#include "common/checksum.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/context.h"
#include "core/dav_posix.h"
#include "core/metalink_engine.h"
#include "fed/federation_handler.h"
#include "fed/replica_catalog.h"
#include "http/range.h"
#include "netsim/fault_injector.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace core {
namespace {

using ::davix::testing::StartStorageServer;
using ::davix::testing::TestStorageServer;

// ------------------------------------------------------- ReplicaSource

TEST(ReplicaSourceTest, HealthStateMachine) {
  ReplicaSource source(*Uri::Parse("http://replica-a:80/f"), 1);
  EXPECT_FALSE(source.Quarantined(1'000));

  // Below the threshold nothing is quarantined; at it, a timed one.
  EXPECT_FALSE(source.RecordFailure(1'000, 2, 500));
  EXPECT_FALSE(source.Quarantined(1'000));
  EXPECT_TRUE(source.RecordFailure(1'000, 2, 500));
  EXPECT_TRUE(source.Quarantined(1'400));
  EXPECT_FALSE(source.Quarantined(1'600));  // deadline passed

  // Still failing after the deadline: quarantined anew.
  EXPECT_TRUE(source.RecordFailure(2'000, 2, 500));
  EXPECT_TRUE(source.Quarantined(2'400));

  // One success resets the streak and lifts the quarantine.
  source.RecordSuccess(5'000);
  EXPECT_FALSE(source.Quarantined(2'100));
  EXPECT_EQ(source.consecutive_failures(), 0);
  EXPECT_GT(source.latency_ewma_micros(), 0);

  // Generation rejection is permanent.
  EXPECT_TRUE(source.RejectGeneration());
  EXPECT_FALSE(source.RejectGeneration());
  EXPECT_TRUE(source.generation_rejected());
  EXPECT_TRUE(source.Quarantined(1'000'000'000));
  source.RecordSuccess(1);
  EXPECT_TRUE(source.Quarantined(1'000'000'000));
}

TEST(ReplicaSourceTest, LatencyEwmaSmoothes) {
  ReplicaSource source(*Uri::Parse("http://replica-a:80/f"), 1);
  source.RecordSuccess(1'000);
  EXPECT_DOUBLE_EQ(source.latency_ewma_micros(), 1'000.0);
  source.RecordSuccess(2'000);
  // alpha = 0.3: 0.3 * 2000 + 0.7 * 1000.
  EXPECT_NEAR(source.latency_ewma_micros(), 1'300.0, 1e-6);
}

// ----------------------------------------------- ranking / striping

TEST(ReplicaSetRankingTest, RanksByHealthThenPriorityAndRotatesStripes) {
  Context context;
  metalink::MetalinkFile file;
  file.replicas = {{"http://b:80/f", 2, ""},
                   {"http://a:80/f", 1, ""},
                   {"http://c:80/f", 3, ""}};
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<ReplicaSet> set,
      ReplicaSet::Make(&context, *Uri::Parse("http://a:80/f"), file, {}));
  EXPECT_EQ(set->source_count(), 3u);

  // No samples yet: Metalink priority order.
  auto ranked = set->RankedSources();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0]->url().ToString(), "http://a:80/f");
  EXPECT_EQ(ranked[1]->url().ToString(), "http://b:80/f");
  EXPECT_EQ(ranked[2]->url().ToString(), "http://c:80/f");

  // A probed fast source outranks unprobed ones.
  set->RecordSuccess(ranked[2], 10);
  ranked = set->RankedSources();
  EXPECT_EQ(ranked[0]->url().ToString(), "http://c:80/f");

  // Stripe slot 1 at width 2 starts on the second-ranked source.
  auto candidates = set->CandidatesFor(1, 2);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0]->url().ToString(), ranked[1]->url().ToString());
  // Slot 0 keeps the ranked order.
  candidates = set->CandidatesFor(0, 2);
  EXPECT_EQ(candidates[0]->url().ToString(), ranked[0]->url().ToString());

  // Repeated failures sink a source to the back of the rotation.
  set->RecordFailure(ranked[0]);
  set->RecordFailure(ranked[0]);
  auto after = set->RankedSources();
  EXPECT_EQ(after.back()->url().ToString(), "http://c:80/f");
  EXPECT_TRUE(after.back()->Quarantined(MonotonicMicros()));
}

TEST(ReplicaSetRankingTest, AgreedGenerationAdmission) {
  Context context;
  metalink::MetalinkFile file;
  file.replicas = {{"http://a:80/f", 1, ""}, {"http://b:80/f", 2, ""}};
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<ReplicaSet> set,
      ReplicaSet::Make(&context, *Uri::Parse("http://a:80/f"), file, {}));
  auto ranked = set->RankedSources();

  BlockValidator gen1{"\"dv-1\"", 100};
  BlockValidator gen1_skewed{"\"dv-1\"", 200};  // same ETag, skewed mtime
  BlockValidator gen2{"\"dv-2\"", 100};

  // First non-empty validator becomes the agreed generation.
  auto admitted = set->Admit(ranked[0], gen1);
  ASSERT_TRUE(admitted.has_value());
  EXPECT_EQ(admitted->etag, "\"dv-1\"");
  // Equal ETags pool even when Last-Modified skews; the publish
  // validator is always the agreed one.
  admitted = set->Admit(ranked[1], gen1_skewed);
  ASSERT_TRUE(admitted.has_value());
  EXPECT_EQ(admitted->mtime_epoch_seconds, 100);
  // A different ETag is rejected and the source permanently quarantined.
  EXPECT_FALSE(set->Admit(ranked[1], gen2).has_value());
  EXPECT_TRUE(ranked[1]->generation_rejected());
  EXPECT_EQ(set->RankedSources().size(), 1u);
  EXPECT_GE(context.SnapshotCounters().replica_quarantines, 1u);
}

// ------------------------------------------------- replicated fixture

constexpr char kPath[] = "/set/data.bin";

class ReplicaSetTest : public ::testing::Test {
 protected:
  void Deploy(int replica_count, BlockCacheConfig cache_config = {}) {
    Rng rng(99);
    content_ = rng.Bytes(512 * 1024);
    for (int i = 0; i < replica_count; ++i) {
      replicas_.push_back(StartStorageServer());
      replicas_.back().store->Put(kPath, content_);
    }
    catalog_ = std::make_shared<fed::ReplicaCatalog>();
    for (size_t i = 0; i < replicas_.size(); ++i) {
      catalog_->AddReplica(kPath, replicas_[i].UrlFor(kPath),
                           static_cast<int>(i + 1));
    }
    catalog_->SetFileMeta(kPath, content_.size(), Md5::HexDigest(content_));
    federation_ = std::make_shared<fed::FederationHandler>(catalog_);
    fed_router_ = std::make_shared<httpd::Router>();
    federation_->Register(fed_router_.get(), "/");
    auto server = httpd::HttpServer::Start({}, fed_router_);
    ASSERT_TRUE(server.ok());
    fed_server_ = std::move(*server);

    context_ = std::make_unique<Context>(SessionPoolConfig{}, 0,
                                         cache_config);
    params_.metalink_resolver = fed_server_->BaseUrl();
    params_.max_retries = 0;
    params_.connect_timeout_micros = 2'000'000;
  }

  std::string PrimaryUrl() const { return replicas_[0].UrlFor(kPath); }

  Result<std::shared_ptr<ReplicaSet>> ResolveSet() {
    return ReplicaSet::Resolve(context_.get(), *Uri::Parse(PrimaryUrl()),
                               params_);
  }

  std::string content_;
  std::vector<TestStorageServer> replicas_;
  std::shared_ptr<fed::ReplicaCatalog> catalog_;
  std::shared_ptr<fed::FederationHandler> federation_;
  std::shared_ptr<httpd::Router> fed_router_;
  std::unique_ptr<httpd::HttpServer> fed_server_;
  std::unique_ptr<Context> context_;
  RequestParams params_;
};

TEST_F(ReplicaSetTest, StreamStripesAcrossReplicasAndDeliversInOrder) {
  Deploy(3);
  params_.multistream_chunk_bytes = 64 * 1024;
  params_.multistream_max_streams = 3;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<ReplicaSet> set, ResolveSet());

  std::string assembled;
  uint64_t expected_offset = 0;
  bool in_order = true;
  ASSERT_OK(set->Stream(0, content_.size(), params_,
                        [&](uint64_t offset, std::string_view data) {
                          if (offset != expected_offset) in_order = false;
                          expected_offset = offset + data.size();
                          assembled.append(data);
                          return Status::OK();
                        }));
  EXPECT_TRUE(in_order);
  EXPECT_EQ(assembled, content_);
  // 8 chunks rotated over a 3-wide stripe: every replica served bytes.
  for (auto& replica : replicas_) {
    EXPECT_GT(replica.handler->stats().get_requests.load(), 0u);
  }
}

TEST_F(ReplicaSetTest, WarmStreamRerunsFromCacheWithZeroRangeGets) {
  BlockCacheConfig cache_config;
  cache_config.capacity_bytes = 8 << 20;
  cache_config.block_bytes = 16 * 1024;
  Deploy(3, cache_config);
  params_.multistream_chunk_bytes = 64 * 1024;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<ReplicaSet> set, ResolveSet());

  auto read_all = [&](std::string* out) {
    return set->Stream(0, content_.size(), params_,
                       [out](uint64_t, std::string_view data) {
                         out->append(data);
                         return Status::OK();
                       });
  };
  std::string cold;
  ASSERT_OK(read_all(&cold));
  EXPECT_EQ(cold, content_);
  IoCounters after_cold = context_->SnapshotCounters();
  EXPECT_GT(after_cold.multisource_chunks, 0u);

  std::string warm;
  ASSERT_OK(read_all(&warm));
  EXPECT_EQ(warm, content_);
  IoCounters after_warm = context_->SnapshotCounters();
  // The rerun put no chunk range-GET on the wire: every chunk was
  // served by the cache probe.
  EXPECT_EQ(after_warm.multisource_chunks, after_cold.multisource_chunks);
  EXPECT_GT(after_warm.multisource_cache_chunks,
            after_cold.multisource_cache_chunks);
}

TEST_F(ReplicaSetTest, MismatchedReplicaIsQuarantinedAndNeverCached) {
  BlockCacheConfig cache_config;
  cache_config.capacity_bytes = 8 << 20;
  cache_config.block_bytes = 16 * 1024;
  Deploy(2, cache_config);
  // Replica 1 serves a different generation (new ETag, new bytes).
  replicas_[1].store->Put(kPath, std::string(content_.size(), 'Z'));
  params_.multistream_chunk_bytes = 64 * 1024;
  params_.multistream_max_streams = 2;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<ReplicaSet> set, ResolveSet());

  std::string assembled;
  ASSERT_OK(set->Stream(0, content_.size(), params_,
                        [&](uint64_t, std::string_view data) {
                          assembled.append(data);
                          return Status::OK();
                        }));
  // The stream never mixes generations: every byte delivered — and
  // every byte cached — comes from the agreed (primary) generation.
  EXPECT_EQ(assembled, content_);
  std::string cached;
  ASSERT_TRUE(context_->block_cache().TryReadFull(
      BlockCache::UrlKey(*Uri::Parse(PrimaryUrl())), 0, content_.size(),
      &cached));
  EXPECT_EQ(cached, content_);

  IoCounters io = context_->SnapshotCounters();
  EXPECT_GE(io.replica_validator_rejects, 1u);
  EXPECT_GE(io.replica_quarantines, 1u);
  bool rejected = false;
  for (const ReplicaSourceSnapshot& snap : set->Snapshot()) {
    if (snap.url == replicas_[1].UrlFor(kPath)) {
      rejected = snap.generation_rejected;
    }
  }
  EXPECT_TRUE(rejected);
}

TEST_F(ReplicaSetTest, DavPosixWindowedReadFailsOverMidStream) {
  Deploy(2);
  params_.readahead_bytes = 32 * 1024;
  params_.readahead_window_chunks = 3;
  DavPosix posix(context_.get());
  ASSERT_OK_AND_ASSIGN(int fd, posix.Open(PrimaryUrl(), params_));

  std::string assembled;
  while (assembled.size() < content_.size() / 4) {
    ASSERT_OK_AND_ASSIGN(std::string part, posix.Read(fd, 16 * 1024));
    ASSERT_FALSE(part.empty());
    assembled += part;
  }
  // The replica serving the stream dies mid-read: the window's chunk
  // fetches re-dispatch to the surviving source — no error surfaces.
  replicas_[0].server->faults().SetServerDown(true);
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string part, posix.Read(fd, 16 * 1024));
    if (part.empty()) break;
    assembled += part;
  }
  EXPECT_EQ(assembled.size(), content_.size());
  EXPECT_EQ(Crc32(assembled), Crc32(content_));
  EXPECT_GE(context_->SnapshotCounters().replica_failovers, 1u);
  EXPECT_OK(posix.Close(fd));
}

TEST_F(ReplicaSetTest, VectoredBatchesRedispatchAfterPrimaryDies) {
  Deploy(2);
  params_.max_ranges_per_request = 2;  // force several wire batches
  DavPosix posix(context_.get());
  ASSERT_OK_AND_ASSIGN(int fd, posix.Open(PrimaryUrl(), params_));
  replicas_[0].server->faults().SetServerDown(true);

  std::vector<http::ByteRange> ranges;
  for (uint64_t i = 0; i < 8; ++i) {
    ranges.push_back({i * 50'000, 1'000});
  }
  ASSERT_OK_AND_ASSIGN(auto results, posix.PReadVec(fd, ranges));
  ASSERT_EQ(results.size(), ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(results[i], content_.substr(ranges[i].offset,
                                          ranges[i].length));
  }
  EXPECT_GE(context_->SnapshotCounters().replica_failovers, 1u);
  EXPECT_OK(posix.Close(fd));
}

TEST_F(ReplicaSetTest, LossyPrimaryStillDeliversExactBytes) {
  BlockCacheConfig cache_config;
  cache_config.capacity_bytes = 8 << 20;
  cache_config.block_bytes = 16 * 1024;
  Deploy(2, cache_config);
  // The primary truncates half of its responses mid-body (netsim loss):
  // reads must still complete with exact bytes and no surfaced error.
  netsim::FaultRule rule;
  rule.path_prefix = kPath;
  rule.action = netsim::FaultAction::kTruncateBody;
  rule.probability = 0.5;
  replicas_[0].server->faults().AddRule(rule);

  params_.readahead_bytes = 32 * 1024;
  params_.readahead_window_chunks = 2;
  DavPosix posix(context_.get());
  ASSERT_OK_AND_ASSIGN(int fd, posix.Open(PrimaryUrl(), params_));
  std::string assembled;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string part, posix.Read(fd, 16 * 1024));
    if (part.empty()) break;
    assembled += part;
  }
  EXPECT_EQ(Crc32(assembled), Crc32(content_));

  std::vector<http::ByteRange> ranges = {{1'000, 5'000},
                                         {200'000, 8'000},
                                         {500'000, 12'000}};
  ASSERT_OK_AND_ASSIGN(auto results, posix.PReadVec(fd, ranges));
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(results[i], content_.substr(ranges[i].offset,
                                          ranges[i].length));
  }
  // Every cached block still belongs to the one true generation.
  std::string cached;
  if (context_->block_cache().TryReadFull(
          BlockCache::UrlKey(*Uri::Parse(PrimaryUrl())), 0,
          content_.size(), &cached)) {
    EXPECT_EQ(cached, content_);
  }
  EXPECT_OK(posix.Close(fd));
}

// A replica whose every single-range GET is answered with the bytes, and
// the Content-Range, of the next range over: right status, length and
// ETag (its store holds the same object), wrong offset.
TestStorageServer StartShiftingReplica(const std::string& content) {
  TestStorageServer liar;
  liar.store = std::make_shared<httpd::ObjectStore>();
  liar.store->Put(kPath, content);
  liar.handler = std::make_shared<httpd::DavHandler>(liar.store);
  liar.router = std::make_shared<httpd::Router>();
  std::shared_ptr<httpd::DavHandler> handler = liar.handler;
  const uint64_t size = content.size();
  liar.router->HandleAll(
      "/", [handler, size](const http::HttpRequest& request,
                           http::HttpResponse* response) {
        http::HttpRequest shifted = request;
        std::optional<std::string> range = request.headers.Get("Range");
        if (range) {
          Result<std::vector<http::ByteRange>> parsed =
              http::ParseRangeHeader(*range, size);
          if (parsed.ok() && parsed->size() == 1) {
            http::ByteRange r = (*parsed)[0];
            r.offset = r.offset + 2 * r.length <= size ? r.offset + r.length
                                                       : 0;
            shifted.headers.Set("Range", http::FormatRangeHeader({r}));
          }
        }
        handler->Handle(shifted, response);
      });
  auto server = httpd::HttpServer::Start({}, liar.router);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  liar.server = std::move(*server);
  return liar;
}

TEST_F(ReplicaSetTest, ShiftedRangeReplicaNeverDeliversOrCachesItsBytes) {
  Deploy(1);
  TestStorageServer liar = StartShiftingReplica(content_);
  const std::string honest_url = PrimaryUrl();
  const std::string liar_url = liar.UrlFor(kPath);
  BlockCacheConfig cache_config;
  cache_config.capacity_bytes = 8 << 20;
  cache_config.block_bytes = 16 * 1024;
  ReplicaSetConfig config;
  config.chunk_bytes = 64 * 1024;
  config.max_streams = 2;

  for (bool with_honest : {true, false}) {
    SCOPED_TRACE(with_honest ? "sources {liar, honest}" : "sources {liar}");
    Context context(SessionPoolConfig{}, 0, cache_config);
    metalink::MetalinkFile file;
    file.size = content_.size();
    file.replicas = {{liar_url, 1, ""}};
    if (with_honest) file.replicas.push_back({honest_url, 2, ""});
    Uri primary = *Uri::Parse(liar_url);
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<ReplicaSet> set,
                         ReplicaSet::Make(&context, primary, file, config));

    std::string delivered;
    Status status = set->Stream(0, content_.size(), params_,
                                [&](uint64_t, std::string_view data) {
                                  delivered.append(data);
                                  return Status::OK();
                                });
    if (with_honest) {
      ASSERT_OK(status);
      EXPECT_EQ(delivered.size(), content_.size());
      EXPECT_EQ(Crc32(delivered), Crc32(content_));
    } else {
      // The liar alone cannot serve a single chunk: a clean error, and
      // not one of its bytes reached the sink.
      EXPECT_FALSE(status.ok());
      EXPECT_TRUE(delivered.empty());
    }

    // No cached block differs from the oracle; with the honest source
    // the whole object is cached.
    const std::string key = BlockCache::UrlKey(primary);
    const uint64_t block = cache_config.block_bytes;
    size_t cached_blocks = 0;
    for (uint64_t offset = 0; offset < content_.size(); offset += block) {
      std::string cached;
      if (context.block_cache().TryReadFull(key, offset, block, &cached)) {
        ++cached_blocks;
        EXPECT_TRUE(cached == content_.substr(offset, block))
            << "cached block at " << offset << " differs from the oracle";
      }
    }
    EXPECT_EQ(cached_blocks, with_honest ? content_.size() / block : 0u);
  }
}

}  // namespace
}  // namespace core
}  // namespace davix
