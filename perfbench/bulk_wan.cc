// bulk_wan: the large-body paths. A 32 MiB object has 3 Metalink replicas
// behind the federation redirector on the WAN profile, and the first
// replica is down for the whole run. Each op is a fresh Context that does,
// alternately, a kMultiStream GET with 3 streams (ReplicaSet striping,
// failover and quarantine) or a DavPosix::Read scan through a 4 x 512 KiB
// asynchronous read-ahead window (ReadAheadStream).

#include <optional>

#include "common/checksum.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/dav_file.h"
#include "core/dav_posix.h"
#include "fed/federation_handler.h"
#include "fed/replica_catalog.h"
#include "perfbench/harness.h"

namespace perfbench {
namespace {

using davix::Stopwatch;
namespace core = davix::core;

constexpr char kPath[] = "/bulk/dataset.bin";
constexpr uint64_t kObjectBytes = 32ull << 20;
constexpr int kReplicas = 3;
constexpr size_t kStreams = 3;
constexpr uint64_t kReadAheadChunk = 512 * 1024;
constexpr size_t kReadAheadWindow = 4;
constexpr size_t kConsumerRead = 256 * 1024;

struct Deployment {
  std::vector<HttpNode> replicas;
  HttpNode federation;
  std::string url;  ///< the object, named through the federation
};

Deployment SetUp(const std::shared_ptr<davix::httpd::ObjectStore>& store,
                 uint64_t size, const std::string& md5) {
  const davix::netsim::LinkProfile link = davix::netsim::LinkProfile::Wan();
  Deployment d;
  auto catalog = std::make_shared<davix::fed::ReplicaCatalog>();
  for (int i = 0; i < kReplicas; ++i) {
    d.replicas.push_back(StartHttpNode(link, store));
    catalog->AddReplica(kPath, d.replicas.back().UrlFor(kPath), i + 1);
  }
  catalog->SetFileMeta(kPath, size, md5);
  d.replicas[0].server->faults().SetServerDown(true);

  auto federation = std::make_shared<davix::fed::FederationHandler>(catalog);
  d.federation.router = std::make_shared<davix::httpd::Router>();
  federation->Register(d.federation.router.get(), "/");
  davix::httpd::ServerConfig config;
  config.link = link;
  auto server = davix::httpd::HttpServer::Start(config, d.federation.router);
  if (!server.ok()) {
    std::fprintf(stderr, "bulk_wan: cannot start the federation\n");
    std::exit(1);
  }
  d.federation.server = std::move(*server);
  d.url = d.federation.UrlFor(kPath);
  return d;
}

core::RequestParams BaseParams(const Deployment& d) {
  core::RequestParams params;
  params.metalink_resolver = d.federation.server->BaseUrl();
  return params;
}

struct Transfer {
  bool ok = false;
  uint32_t crc = 0;
  uint64_t bytes = 0;
};

Transfer MultiStreamGet(const Deployment& d, core::Context* context) {
  core::RequestParams params = BaseParams(d);
  params.metalink_mode = core::MetalinkMode::kMultiStream;
  params.multistream_max_streams = kStreams;
  CheckLoadBudget("multistream streams", params.multistream_max_streams);
  Transfer t;
  davix::Result<std::string> data = [&]() -> davix::Result<std::string> {
    SpanScope span("core.multistream");
    DAVIX_ASSIGN_OR_RETURN(core::DavFile file,
                           core::DavFile::Make(context, d.url));
    return file.Get(params);
  }();
  if (!data.ok()) return t;
  t.ok = true;
  t.bytes = data->size();
  t.crc = davix::Crc32(*data);
  return t;
}

Transfer Scan(const Deployment& d, core::Context* context) {
  core::RequestParams params = BaseParams(d);
  params.readahead_bytes = kReadAheadChunk;
  params.readahead_window_chunks = kReadAheadWindow;
  core::DavPosix posix(context);
  Transfer t;
  SpanScope scan("core.scan");
  davix::Result<int> fd = [&] {
    SpanScope span("core.open");
    return posix.Open(d.url, params);
  }();
  if (!fd.ok()) return t;
  while (true) {
    davix::Result<std::string> part = [&] {
      SpanScope span("core.read_block");
      return posix.Read(*fd, kConsumerRead);
    }();
    if (!part.ok()) {
      posix.Close(*fd).ok();
      return t;
    }
    if (part->empty()) break;
    t.crc = davix::Crc32(*part, t.crc);
    t.bytes += part->size();
  }
  t.ok = posix.Close(*fd).ok();
  return t;
}

}  // namespace

Report RunBulkWan(const Options& options) {
  Report report;
  auto store = std::make_shared<davix::httpd::ObjectStore>();
  uint32_t expected_crc = 0;
  std::string md5;
  {
    std::string object = davix::Rng(options.seed).Bytes(kObjectBytes);
    expected_crc = davix::Crc32(object);
    md5 = davix::Md5::HexDigest(object);
    store->Put(kPath, std::move(object));
  }
  if (options.corrupt_oracle) expected_crc ^= 1;

  std::optional<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    Stopwatch setup;
    d.emplace(SetUp(store, kObjectBytes, md5));
    // First contact: resolve the replica set and fail over the dead
    // replica once, as every op will.
    core::Context context(core::SessionPoolConfig{}, Nproc());
    core::DavPosix posix(&context);
    if (!posix.Stat(d->url, BaseParams(*d)).ok()) {
      std::fprintf(stderr, "bulk_wan: cannot stat the object\n");
      std::exit(1);
    }
    report.setup_s.push_back(setup.ElapsedSeconds());
  }
  CheckLoadBudget("dispatcher threads", Nproc());

  std::vector<const HttpNode*> replicas;
  for (const HttpNode& node : d->replicas) replicas.push_back(&node);
  std::vector<const HttpNode*> all = replicas;
  all.push_back(&d->federation);
  ServerCounters replicas_before = SnapshotServers(replicas);
  ServerCounters federation_before = SnapshotServers({&d->federation});
  ClientCounters client;
  uint64_t peak_connections = 0;
  std::vector<double> traced_ms;

  const int64_t window_us = static_cast<int64_t>(options.seconds * 1e6);
  double cpu_start = ProcessCpuSeconds();
  Stopwatch window;
  // Whole pairs only, so every run weighs both transfer kinds equally; a
  // traced run alternates untraced and traced pairs.
  for (uint64_t pair = 0; window.ElapsedMicros() < window_us ||
                          (options.trace && pair < 2);
       ++pair) {
    bool traced = options.trace && pair % 2 == 1;
    for (const char* kind : {"multistream_op", "scan_op"}) {
      Stopwatch stopwatch;
      Transfer t;
      {
        OpScope scope(traced, kind);
        core::Context context(core::SessionPoolConfig{}, Nproc());
        t = kind == std::string("scan_op") ? Scan(*d, &context)
                                           : MultiStreamGet(*d, &context);
        peak_connections = std::max(peak_connections, ActiveConnections(all));
        client += SnapshotClient(context);
      }
      double ms = stopwatch.ElapsedSeconds() * 1e3;
      ++report.attempted;
      if (!t.ok) {
        ++report.failed;
        continue;
      }
      if (t.crc != expected_crc || t.bytes != kObjectBytes) {
        ++report.failed;
        report.CheckFailed(std::string(kind) + "_crc");
        continue;
      }
      ++report.ops_completed;
      report.payload_bytes += t.bytes;
      (traced ? traced_ms : report.op_ms).push_back(ms);
    }
  }
  report.window_s = window.ElapsedSeconds();
  report.cpu_s = ProcessCpuSeconds() - cpu_start;
  ServerCounters server = SnapshotServers(replicas) - replicas_before;
  ServerCounters federation =
      SnapshotServers({&d->federation}) - federation_before;

  AddTransportMetrics(client, server, report.ops_completed,
                      report.payload_bytes, &report);
  report.layer["fed.redirector_requests"] =
      static_cast<double>(federation.requests_handled);
  AddTraceMetrics(traced_ms, report.op_ms, peak_connections, &report);
  if (options.trace) {
    SpanIndex spans(Tracer::Get().Spans());
    std::map<std::string, double>& m = report.layer;
    m["core.multistream_s"] = Median(spans.Durations("core.multistream"));
    m["core.scan_s"] = Median(spans.Durations("core.scan"));
    m["core.read_block_s"] =
        Median(spans.PerOpSum("core.read_block", "scan_op"));
    m["core.open_ms_p50"] = Median(spans.Durations("core.open")) * 1e3;
  }
  report.notes.push_back("peak server connections " +
                         std::to_string(peak_connections));
  return report;
}

}  // namespace perfbench
