// small_ops_lan: the per-request path (§2.2 session reuse, the httpd
// reactor, the object store), with writes beside reads. A closed loop of
// clients, each in its own directory, on the LAN profile; every op is one
// of PUT (1-64 KiB), whole GET, DavPosix::PRead, Stat, ListDir (PROPFIND)
// or Delete.

#include <algorithm>
#include <optional>
#include <set>

#include "common/clock.h"
#include "common/rng.h"
#include "core/dav_file.h"
#include "core/dav_posix.h"
#include "perfbench/harness.h"

namespace perfbench {
namespace {

using davix::Rng;
using davix::Stopwatch;

constexpr int kNames = 16;
constexpr size_t kMinLive = 4;
constexpr uint64_t kMaxObjectBytes = 64 * 1024;
constexpr uint64_t kMaxPReadBytes = 16 * 1024;

enum class Kind { kPut, kGet, kPRead, kStat, kList, kDelete };

/// The op mix, in percent: writes beside reads, namespace ops beside
/// data ops.
constexpr std::pair<Kind, int> kMix[] = {
    {Kind::kPut, 25},  {Kind::kGet, 20},  {Kind::kPRead, 20},
    {Kind::kStat, 15}, {Kind::kList, 10}, {Kind::kDelete, 10},
};

struct Client {
  /// The client's collection, named without a trailing slash: PROPFIND on
  /// "<dir>/" lists no children (see NOTES.md, sizing findings).
  std::string dir_url;
  /// The oracle: the bytes each live object was last PUT with.
  std::map<std::string, std::string> live;
  Rng rng{1};
  uint64_t puts = 0;
};

struct Deployment {
  HttpNode node;
  std::unique_ptr<davix::core::Context> context;
  std::unique_ptr<davix::core::DavPosix> posix;
};

Deployment SetUp(int clients) {
  Deployment d;
  d.node = StartHttpNode(davix::netsim::LinkProfile::Lan(),
                         std::make_shared<davix::httpd::ObjectStore>());
  d.context = std::make_unique<davix::core::Context>(
      davix::core::SessionPoolConfig{}, Nproc());
  d.posix = std::make_unique<davix::core::DavPosix>(d.context.get());
  for (int c = 0; c < clients; ++c) {
    davix::Status made =
        d.posix->MkDir(d.node.UrlFor("/c" + std::to_string(c)));
    if (!made.ok()) {
      std::fprintf(stderr, "small_ops_lan: mkdir failed: %s\n",
                   made.ToString().c_str());
      std::exit(1);
    }
  }
  return d;
}

Kind Draw(Client* client) {
  if (client->live.size() < kMinLive) return Kind::kPut;
  int pick = static_cast<int>(client->rng.Below(100));
  for (const auto& [kind, weight] : kMix) {
    if (pick < weight) return kind;
    pick -= weight;
  }
  return Kind::kPut;
}

}  // namespace

Report RunSmallOpsLan(const Options& options) {
  Report report;
  const int clients = static_cast<int>(std::min(4u, Nproc()));
  // PUT bodies are slices of one seeded pool, each stamped with a unique
  // prefix, so no two PUTs carry the same bytes.
  std::string pool = Rng(options.seed).Bytes(1 << 20);

  std::optional<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    Stopwatch setup;
    d.emplace(SetUp(clients));
    report.setup_s.push_back(setup.ElapsedSeconds());
  }

  std::vector<Client> state(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    Client& client = state[static_cast<size_t>(c)];
    client.dir_url = d->node.UrlFor("/c" + std::to_string(c));
    client.rng = Rng(options.seed * 7919 + static_cast<uint64_t>(c));
  }
  std::vector<std::map<std::string, uint64_t>> check_failures(
      static_cast<size_t>(clients));

  auto op = [&](int c) -> OpOutcome {
    Client& client = state[static_cast<size_t>(c)];
    std::map<std::string, uint64_t>& failures =
        check_failures[static_cast<size_t>(c)];
    OpOutcome outcome;
    auto check = [&](bool ok, const char* what) {
      if (!ok) {
        outcome.ok = false;
        ++failures[what];
      }
    };
    Kind kind = Draw(&client);
    std::string name;
    if (kind == Kind::kPut) {
      name = "obj" + std::to_string(client.rng.Below(kNames));
    } else {
      auto it = client.live.begin();
      std::advance(it, client.rng.Below(client.live.size()));
      name = it->first;
    }
    const std::string url = client.dir_url + "/" + name;
    switch (kind) {
      case Kind::kPut: {
        uint64_t size = 1024 + client.rng.Below(kMaxObjectBytes - 1024 + 1);
        std::string body = std::to_string(c);
        body.append(1, '-').append(std::to_string(client.puts++));
        body.append(1, ':');
        body += pool.substr(client.rng.Below(pool.size() - size), size);
        body.resize(size);
        std::string expected = options.corrupt_oracle
                                   ? std::string(body.size() + 1, '\0')
                                   : body;
        davix::Status put = [&] {
          SpanScope span("core.put");
          auto file = davix::core::DavFile::Make(d->context.get(), url);
          return file.ok() ? file->Put(std::move(body)) : file.status();
        }();
        if (!put.ok()) {
          outcome.ok = false;
          break;
        }
        outcome.payload_bytes = size;
        client.live[name] = std::move(expected);
        break;
      }
      case Kind::kGet: {
        davix::Result<std::string> got = [&]() -> davix::Result<std::string> {
          SpanScope span("core.get");
          DAVIX_ASSIGN_OR_RETURN(
              davix::core::DavFile file,
              davix::core::DavFile::Make(d->context.get(), url));
          return file.Get();
        }();
        if (!got.ok()) {
          outcome.ok = false;
          break;
        }
        outcome.payload_bytes = got->size();
        check(*got == client.live[name], "get_bytes");
        break;
      }
      case Kind::kPRead: {
        const std::string& expected = client.live[name];
        uint64_t offset = client.rng.Below(expected.size());
        uint64_t length = 1 + client.rng.Below(std::min<uint64_t>(
                                  kMaxPReadBytes, expected.size() - offset));
        davix::Result<int> fd = [&] {
          SpanScope span("core.open");
          return d->posix->Open(url);
        }();
        if (!fd.ok()) {
          outcome.ok = false;
          break;
        }
        davix::Result<std::string> got = [&] {
          SpanScope span("core.pread");
          return d->posix->PRead(*fd, offset, length);
        }();
        bool closed = d->posix->Close(*fd).ok();
        if (!got.ok() || !closed) {
          outcome.ok = false;
          break;
        }
        outcome.payload_bytes = got->size();
        check(*got == expected.substr(offset, length), "pread_bytes");
        break;
      }
      case Kind::kStat: {
        davix::Result<davix::core::FileInfo> info = [&] {
          SpanScope span("core.stat");
          return d->posix->Stat(url);
        }();
        if (!info.ok()) {
          outcome.ok = false;
          break;
        }
        check(info->size == client.live[name].size(), "stat_size");
        break;
      }
      case Kind::kList: {
        davix::Result<std::vector<std::string>> names = [&] {
          SpanScope span("core.list");
          return d->posix->ListDir(client.dir_url);
        }();
        if (!names.ok()) {
          outcome.ok = false;
          break;
        }
        std::set<std::string> seen(names->begin(), names->end());
        std::set<std::string> expected;
        for (const auto& entry : client.live) expected.insert(entry.first);
        if (options.corrupt_oracle) expected.insert("phantom");
        check(seen == expected, "list_names");
        break;
      }
      case Kind::kDelete: {
        davix::Status gone = [&] {
          SpanScope span("core.delete");
          return d->posix->Unlink(url);
        }();
        if (!gone.ok()) {
          outcome.ok = false;
          break;
        }
        client.live.erase(name);
        break;
      }
    }
    return outcome;
  };
  std::vector<const HttpNode*> nodes = {&d->node};
  auto connections = [&] { return ActiveConnections(nodes); };

  RunClosedLoop(clients, kWarmupSeconds, false, op, connections);
  for (auto& failures : check_failures) failures.clear();
  d->context->ResetCounters();
  ClientCounters client_before = SnapshotClient(*d->context);
  ServerCounters server_before = SnapshotServers(nodes);

  LoopResult loop =
      RunClosedLoop(clients, options.seconds, options.trace, op, connections);

  ClientCounters client = SnapshotClient(*d->context) - client_before;
  ServerCounters server = SnapshotServers(nodes) - server_before;
  for (const auto& failures : check_failures) {
    for (const auto& [check, n] : failures) report.check_failures[check] += n;
  }
  FillFromLoop(loop, &report);

  AddTransportMetrics(client, server, report.ops_completed,
                      loop.payload_bytes, &report);
  if (options.trace) {
    SpanIndex spans(Tracer::Get().Spans());
    for (const char* call : {"put", "get", "pread", "stat", "list", "delete"}) {
      std::vector<double> ms = spans.Durations(std::string("core.") + call);
      for (double& v : ms) v *= 1e3;
      report.layer[std::string("core.") + call + "_ms_p50"] = Median(ms);
      report.layer[std::string("core.") + call + "_ms_p99"] = TailQuantile(ms);
    }
    report.layer["core.open_ms_p50"] =
        Median(spans.Durations("core.open")) * 1e3;
  }
  report.notes.push_back(std::to_string(clients) +
                         " clients, peak server connections " +
                         std::to_string(loop.peak_connections));
  return report;
}

}  // namespace perfbench
