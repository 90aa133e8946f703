// readv_lan: §2.3 vectored I/O under concurrency. A closed loop of
// clients sharing one Context on the LAN profile; every op is one
// DavPosix::PReadVec of 64 scattered fragments of a 64 MiB object, and
// 80 % of the ops fall in a 16 MiB hot region. The block cache is on at
// its default block size with room for the whole hot region.

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/clock.h"
#include "common/rng.h"
#include "core/dav_posix.h"
#include "perfbench/harness.h"

namespace perfbench {
namespace {

using davix::Rng;
using davix::Stopwatch;
using davix::http::ByteRange;

constexpr char kPath[] = "/readv/object.bin";
constexpr uint64_t kObjectBytes = 64ull << 20;
constexpr uint64_t kHotBytes = 16ull << 20;
constexpr int kFragments = 64;
constexpr double kHotShare = 0.8;

/// One fragment per stripe of the chosen region: sorted, disjoint and
/// scattered, 0.5-16 KiB each.
std::vector<ByteRange> DrawFragments(Rng* rng, uint64_t hot_offset) {
  bool hot = rng->Chance(kHotShare);
  uint64_t base = hot ? hot_offset : 0;
  uint64_t region = hot ? kHotBytes : kObjectBytes;
  uint64_t stripe = region / kFragments;
  std::vector<ByteRange> ranges;
  for (int i = 0; i < kFragments; ++i) {
    uint64_t length = static_cast<uint64_t>(rng->Range(512, 16 * 1024));
    uint64_t slack = stripe - length;
    ranges.push_back({base + static_cast<uint64_t>(i) * stripe +
                          rng->Below(slack + 1),
                      length});
  }
  return ranges;
}

struct Deployment {
  HttpNode node;
  std::unique_ptr<davix::core::Context> context;
  std::unique_ptr<davix::core::DavPosix> posix;
  std::vector<int> fds;
};

Deployment SetUp(const std::string& object, int clients) {
  Deployment d;
  auto store = std::make_shared<davix::httpd::ObjectStore>();
  store->Put(kPath, object);
  d.node = StartHttpNode(davix::netsim::LinkProfile::Lan(), store);
  davix::core::BlockCacheConfig cache;
  cache.capacity_bytes = 2 * kHotBytes;
  d.context = std::make_unique<davix::core::Context>(
      davix::core::SessionPoolConfig{}, Nproc(), cache);
  d.posix = std::make_unique<davix::core::DavPosix>(d.context.get());
  davix::core::RequestParams params;
  // One multi-range query per op: 64 fragments never need a second
  // batch, and one connection per client keeps the load within nproc.
  params.max_parallel_range_requests = 1;
  CheckLoadBudget("parallel range requests",
                  params.max_parallel_range_requests);
  for (int c = 0; c < clients; ++c) {
    auto fd = d.posix->Open(d.node.UrlFor(kPath), params);
    if (!fd.ok()) {
      std::fprintf(stderr, "readv_lan: open failed: %s\n",
                   fd.status().ToString().c_str());
      std::exit(1);
    }
    d.fds.push_back(*fd);
  }
  return d;
}

}  // namespace

Report RunReadvLan(const Options& options) {
  Report report;
  const int clients = static_cast<int>(std::min(4u, Nproc()));
  Rng input_rng(options.seed);
  std::string object = input_rng.Bytes(kObjectBytes);
  uint64_t hot_offset =
      input_rng.Below((kObjectBytes - kHotBytes) / (1 << 20) + 1) << 20;
  std::string oracle = object;

  // Members are destroyed in reverse order: descriptors and the Context
  // go before the server they talk to.
  std::optional<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    Stopwatch setup;
    d.emplace(SetUp(object, clients));
    report.setup_s.push_back(setup.ElapsedSeconds());
  }
  object.clear();
  object.shrink_to_fit();
  if (options.corrupt_oracle) {
    for (size_t i = 0; i < oracle.size(); i += 256) oracle[i] ^= 0x5a;
  }

  std::vector<Rng> client_rng;
  for (int c = 0; c < clients; ++c) {
    client_rng.emplace_back(options.seed * 7919 + static_cast<uint64_t>(c));
  }
  std::vector<uint64_t> check_failures(static_cast<size_t>(clients), 0);
  auto op = [&](int c) -> OpOutcome {
    std::vector<ByteRange> ranges =
        DrawFragments(&client_rng[static_cast<size_t>(c)], hot_offset);
    davix::Result<std::vector<std::string>> got = [&] {
      SpanScope span("core.preadvec");
      return d->posix->PReadVec(d->fds[static_cast<size_t>(c)], ranges);
    }();
    OpOutcome outcome;
    if (!got.ok() || got->size() != ranges.size()) {
      outcome.ok = false;
      return outcome;
    }
    for (size_t i = 0; i < ranges.size(); ++i) {
      const std::string& bytes = (*got)[i];
      outcome.payload_bytes += bytes.size();
      if (bytes.size() != ranges[i].length ||
          std::memcmp(bytes.data(), oracle.data() + ranges[i].offset,
                      bytes.size()) != 0) {
        outcome.ok = false;
      }
    }
    if (!outcome.ok) ++check_failures[static_cast<size_t>(c)];
    return outcome;
  };
  std::vector<const HttpNode*> nodes = {&d->node};
  auto connections = [&] { return ActiveConnections(nodes); };

  RunClosedLoop(clients, kWarmupSeconds, false, op, connections);
  std::fill(check_failures.begin(), check_failures.end(), 0);
  d->context->ResetCounters();
  ClientCounters client_before = SnapshotClient(*d->context);
  ServerCounters server_before = SnapshotServers(nodes);

  LoopResult loop =
      RunClosedLoop(clients, options.seconds, options.trace, op, connections);

  ClientCounters client = SnapshotClient(*d->context) - client_before;
  ServerCounters server = SnapshotServers(nodes) - server_before;
  for (uint64_t n : check_failures) {
    if (n > 0) report.check_failures["readv_fragment"] += n;
  }
  FillFromLoop(loop, &report);

  AddTransportMetrics(client, server, report.ops_completed,
                      loop.payload_bytes, &report);
  if (options.trace) {
    SpanIndex spans(Tracer::Get().Spans());
    report.layer["core.vec_read_ms_p50"] =
        Median(spans.Durations("core.preadvec")) * 1e3;
    report.layer["core.vec_read_ms_max"] =
        Quantile(spans.Durations("core.preadvec"), 1.0) * 1e3;
  }
  report.notes.push_back(
      "hot region at " + std::to_string(hot_offset >> 20) + " MiB, " +
      std::to_string(clients) + " clients, peak server connections " +
      std::to_string(loop.peak_connections));
  return report;
}

}  // namespace perfbench
