#include "common/checksum.h"
#include "common/rng.h"
#include "core/context.h"
#include "core/dav_file.h"
#include "core/metalink_engine.h"
#include "core/replica_set.h"
#include "fed/federation_handler.h"
#include "fed/replica_catalog.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace core {
namespace {

using ::davix::testing::StartStorageServer;
using ::davix::testing::TestStorageServer;

/// A replicated deployment: N storage servers holding the same object
/// plus one federation server that serves Metalinks for it.
class ReplicatedSetupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1234);
    content_ = rng.Bytes(300'000);
    for (int i = 0; i < 3; ++i) {
      replicas_.push_back(testing::StartStorageServer());
      replicas_.back().store->Put("/data.bin", content_);
    }
    catalog_ = std::make_shared<fed::ReplicaCatalog>();
    for (size_t i = 0; i < replicas_.size(); ++i) {
      catalog_->AddReplica("/data.bin",
                           replicas_[i].UrlFor("/data.bin"),
                           static_cast<int>(i + 1));
    }
    catalog_->SetFileMeta("/data.bin", content_.size(),
                          Md5::HexDigest(content_));
    federation_ = std::make_shared<fed::FederationHandler>(catalog_);
    fed_router_ = std::make_shared<httpd::Router>();
    federation_->Register(fed_router_.get(), "/");
    auto server = httpd::HttpServer::Start({}, fed_router_);
    ASSERT_TRUE(server.ok());
    fed_server_ = std::move(*server);

    context_ = std::make_unique<Context>();
    params_.metalink_mode = MetalinkMode::kFailover;
    params_.metalink_resolver = fed_server_->BaseUrl();
    params_.max_retries = 0;  // keep failover fast in tests
    params_.connect_timeout_micros = 2'000'000;
  }

  /// URL of the primary (priority 1) replica.
  std::string PrimaryUrl() const { return replicas_[0].UrlFor("/data.bin"); }

  std::string content_;
  std::vector<TestStorageServer> replicas_;
  std::shared_ptr<fed::ReplicaCatalog> catalog_;
  std::shared_ptr<fed::FederationHandler> federation_;
  std::shared_ptr<httpd::Router> fed_router_;
  std::unique_ptr<httpd::HttpServer> fed_server_;
  std::unique_ptr<Context> context_;
  RequestParams params_;
};

TEST_F(ReplicatedSetupTest, FetchMetalinkViaResolver) {
  HttpClient client(context_.get());
  MetalinkEngine engine(&client);
  Uri resource = *Uri::Parse(PrimaryUrl());
  ASSERT_OK_AND_ASSIGN(metalink::MetalinkFile file,
                       engine.Fetch(resource, params_));
  EXPECT_EQ(file.size, content_.size());
  EXPECT_EQ(file.replicas.size(), 3u);
  EXPECT_EQ(file.md5, Md5::HexDigest(content_));
}

TEST_F(ReplicatedSetupTest, FetchMetalinkFromOriginConvention) {
  // Register the federation with dav fallback on replica 0's server so
  // "GET /data.bin?metalink" works at the origin, davix-style.
  auto handler = replicas_[0].handler;
  federation_->RegisterWithFallback(
      replicas_[0].router.get(), "/",
      [handler](const http::HttpRequest& request,
                http::HttpResponse* response) {
        handler->Handle(request, response);
      });
  HttpClient client(context_.get());
  MetalinkEngine engine(&client);
  RequestParams origin_params = params_;
  origin_params.metalink_resolver.clear();  // ask the origin host
  Uri resource = *Uri::Parse(PrimaryUrl());
  ASSERT_OK_AND_ASSIGN(metalink::MetalinkFile file,
                       engine.Fetch(resource, origin_params));
  EXPECT_EQ(file.replicas.size(), 3u);
  // And a plain GET on the same path still returns the bytes.
  ASSERT_OK_AND_ASSIGN(
      auto exchange,
      client.Execute(resource, http::Method::kGet, origin_params));
  EXPECT_EQ(exchange.response.body, content_);
}

TEST_F(ReplicatedSetupTest, FailoverToSecondReplica) {
  replicas_[0].server->faults().SetServerDown(true);
  DavFile file = *DavFile::Make(context_.get(), PrimaryUrl());
  ASSERT_OK_AND_ASSIGN(std::string body, file.Get(params_));
  EXPECT_EQ(body, content_);
  EXPECT_GE(context_->SnapshotCounters().replica_failovers, 1u);
}

TEST_F(ReplicatedSetupTest, FailoverSkipsToThirdWhenTwoDown) {
  replicas_[0].server->faults().SetServerDown(true);
  replicas_[1].server->faults().SetServerDown(true);
  DavFile file = *DavFile::Make(context_.get(), PrimaryUrl());
  ASSERT_OK_AND_ASSIGN(std::string body, file.Get(params_));
  EXPECT_EQ(body, content_);
}

TEST_F(ReplicatedSetupTest, AllReplicasDownIsAllReplicasFailed) {
  for (auto& replica : replicas_) {
    replica.server->faults().SetServerDown(true);
  }
  DavFile file = *DavFile::Make(context_.get(), PrimaryUrl());
  Result<std::string> result = file.Get(params_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAllReplicasFailed);
}

TEST_F(ReplicatedSetupTest, FailoverDisabledFailsFast) {
  replicas_[0].server->faults().SetServerDown(true);
  params_.metalink_mode = MetalinkMode::kDisabled;
  DavFile file = *DavFile::Make(context_.get(), PrimaryUrl());
  EXPECT_FALSE(file.Get(params_).ok());
  EXPECT_EQ(context_->SnapshotCounters().replica_failovers, 0u);
}

TEST_F(ReplicatedSetupTest, FailoverOnVectoredReads) {
  replicas_[0].server->faults().SetServerDown(true);
  DavFile file = *DavFile::Make(context_.get(), PrimaryUrl());
  std::vector<http::ByteRange> ranges = {{100, 50}, {200'000, 64}};
  ASSERT_OK_AND_ASSIGN(auto results, file.ReadPartialVec(ranges, params_));
  EXPECT_EQ(results[0], content_.substr(100, 50));
  EXPECT_EQ(results[1], content_.substr(200'000, 64));
}

TEST_F(ReplicatedSetupTest, FailoverOn404WhenResourceMovedElsewhere) {
  // Primary is healthy but lacks the object (federated namespace).
  replicas_[0].store->Delete("/data.bin").ok();
  DavFile file = *DavFile::Make(context_.get(), PrimaryUrl());
  ASSERT_OK_AND_ASSIGN(std::string body, file.Get(params_));
  EXPECT_EQ(body, content_);
  // The primary that already failed is not tried again while another
  // replica can serve the read.
  EXPECT_EQ(replicas_[0].handler->stats().get_requests.load(), 1u);
}

TEST_F(ReplicatedSetupTest, MultiStreamDownloadsAndVerifiesMd5) {
  params_.metalink_mode = MetalinkMode::kMultiStream;
  params_.multistream_chunk_bytes = 64 * 1024;
  params_.multistream_max_streams = 3;
  HttpClient client(context_.get());
  MetalinkEngine engine(&client);
  Uri resource = *Uri::Parse(PrimaryUrl());
  ASSERT_OK_AND_ASSIGN(std::string body,
                       engine.MultiStreamGet(resource, params_));
  EXPECT_EQ(body, content_);
  // All three replicas served traffic.
  int replicas_used = 0;
  for (auto& replica : replicas_) {
    if (replica.handler->stats().get_requests.load() > 0) ++replicas_used;
  }
  EXPECT_EQ(replicas_used, 3);
}

TEST_F(ReplicatedSetupTest, MultiStreamSurvivesDeadReplica) {
  replicas_[1].server->faults().SetServerDown(true);
  params_.metalink_mode = MetalinkMode::kMultiStream;
  params_.multistream_chunk_bytes = 64 * 1024;
  HttpClient client(context_.get());
  MetalinkEngine engine(&client);
  Uri resource = *Uri::Parse(PrimaryUrl());
  ASSERT_OK_AND_ASSIGN(std::string body,
                       engine.MultiStreamGet(resource, params_));
  EXPECT_EQ(body, content_);
}

TEST_F(ReplicatedSetupTest, MultiStreamQuarantinesMismatchedReplica) {
  // Poison replica 2's copy: its ETag disagrees with the generation the
  // set agrees on (seeded from the best-ranked healthy replica), so its
  // chunks are rejected and refetched from the agreeing replicas — the
  // download still delivers the correct bytes.
  replicas_[2].store->Put("/data.bin", std::string(content_.size(), 'Z'));
  params_.metalink_mode = MetalinkMode::kMultiStream;
  params_.multistream_chunk_bytes = 64 * 1024;
  params_.multistream_max_streams = 3;
  HttpClient client(context_.get());
  MetalinkEngine engine(&client);
  Uri resource = *Uri::Parse(PrimaryUrl());
  ASSERT_OK_AND_ASSIGN(std::string body,
                       engine.MultiStreamGet(resource, params_));
  EXPECT_EQ(body, content_);
  IoCounters io = context_->SnapshotCounters();
  EXPECT_GE(io.replica_validator_rejects, 1u);
  EXPECT_GE(io.replica_quarantines, 1u);
}

TEST_F(ReplicatedSetupTest, MultiStreamDetectsCorruption) {
  // Poison every replica consistently (equal ETag generations, so no
  // quarantine can help): the Metalink md5 is the last line of defence.
  for (auto& replica : replicas_) {
    replica.store->Put("/data.bin", std::string(content_.size(), 'Z'));
  }
  params_.metalink_mode = MetalinkMode::kMultiStream;
  params_.multistream_chunk_bytes = 64 * 1024;
  HttpClient client(context_.get());
  MetalinkEngine engine(&client);
  Uri resource = *Uri::Parse(PrimaryUrl());
  Result<std::string> result = engine.MultiStreamGet(resource, params_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST_F(ReplicatedSetupTest, DavFileGetMultiStreamMode) {
  params_.metalink_mode = MetalinkMode::kMultiStream;
  params_.multistream_chunk_bytes = 100'000;
  DavFile file = *DavFile::Make(context_.get(), PrimaryUrl());
  ASSERT_OK_AND_ASSIGN(std::string body, file.Get(params_));
  EXPECT_EQ(body, content_);
}

TEST_F(ReplicatedSetupTest, ResolveReplicasOrderedByPriority) {
  Uri resource = *Uri::Parse(PrimaryUrl());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<ReplicaSet> set,
                       ReplicaSet::Resolve(context_.get(), resource, params_));
  auto replicas = set->RankedSources();
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(replicas[0]->url().ToString(), replicas_[0].UrlFor("/data.bin"));
  EXPECT_EQ(replicas[2]->url().ToString(), replicas_[2].UrlFor("/data.bin"));
}

TEST_F(ReplicatedSetupTest, UnknownResourceKeepsOriginalError) {
  DavFile file = *DavFile::Make(
      context_.get(), replicas_[0].UrlFor("/not-registered"));
  Result<std::string> result = file.Get(params_);
  ASSERT_FALSE(result.ok());
  // No metalink for it: the original 404 comes through, not a metalink
  // error.
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace core
}  // namespace davix
