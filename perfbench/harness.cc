#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/clock.h"

namespace perfbench {

using davix::MonotonicMicros;

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%lld,\"end_us\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"thread\":%u,"
                 "\"blocking\":%s}\n",
                 s.name, static_cast<long long>(s.start_us),
                 static_cast<long long>(s.end_us),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.thread,
                 s.blocking ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

namespace {

/// The calling thread's tracing state: the op it is running (0 = not
/// traced) and its innermost open span.
struct ThreadTrace {
  uint64_t op = 0;
  uint64_t current = 0;
  uint32_t thread = 0;
};

ThreadTrace& CurrentThreadTrace() {
  static std::atomic<uint32_t> next_thread{0};
  thread_local ThreadTrace trace{0, 0, next_thread.fetch_add(1)};
  return trace;
}

}  // namespace

SpanScope::SpanScope(const char* name) {
  ThreadTrace& tt = CurrentThreadTrace();
  if (tt.op == 0) return;
  span_.name = name;
  span_.id = Tracer::Get().NextId();
  span_.parent = tt.current;
  span_.op = tt.op;
  span_.thread = tt.thread;
  tt.current = span_.id;
  span_.start_us = MonotonicMicros();
}

SpanScope::~SpanScope() {
  if (span_.id == 0) return;
  span_.end_us = MonotonicMicros();
  CurrentThreadTrace().current = span_.parent;
  Tracer::Get().Record(span_);
}

Span BeginDetachedSpan(const char* name) {
  Span span;
  ThreadTrace& tt = CurrentThreadTrace();
  if (tt.op == 0) return span;
  span.name = name;
  span.id = Tracer::Get().NextId();
  span.parent = tt.current;
  span.op = tt.op;
  span.thread = tt.thread;
  span.blocking = false;
  span.start_us = MonotonicMicros();
  return span;
}

void EndDetachedSpan(Span* span) {
  if (span->id == 0) return;
  span->end_us = MonotonicMicros();
  Tracer::Get().Record(*span);
}

OpScope::OpScope(bool traced, const char* name) {
  if (!traced) return;
  ThreadTrace& tt = CurrentThreadTrace();
  tt.op = Tracer::Get().NextId();
  tt.current = 0;
  root_.emplace(name);
}

OpScope::~OpScope() {
  if (!root_) return;
  root_.reset();
  CurrentThreadTrace().op = 0;
}

SpanIndex::SpanIndex(std::vector<Span> spans) : spans_(std::move(spans)) {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent == 0) {
      op_names_[s.op] = s.name;
    } else {
      children_[s.parent].push_back(i);
    }
  }
}

std::vector<double> SpanIndex::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back((s.end_us - s.start_us) / 1e6);
  }
  return out;
}

double SpanIndex::SelfSeconds(const Span& span) const {
  std::vector<std::pair<int64_t, int64_t>> covered;
  auto it = children_.find(span.id);
  if (it != children_.end()) {
    for (size_t i : it->second) {
      const Span& c = spans_[i];
      if (c.thread != span.thread || !c.blocking) continue;
      int64_t begin = std::max(c.start_us, span.start_us);
      int64_t end = std::min(c.end_us, span.end_us);
      if (end > begin) covered.emplace_back(begin, end);
    }
  }
  std::sort(covered.begin(), covered.end());
  int64_t busy = 0;
  int64_t reach = span.start_us;
  for (const auto& [begin, end] : covered) {
    int64_t from = std::max(begin, reach);
    if (end > from) busy += end - from;
    reach = std::max(reach, end);
  }
  return (span.end_us - span.start_us - busy) / 1e6;
}

std::vector<double> SpanIndex::PerOpSum(const std::string& name,
                                        const std::string& op_name) const {
  std::map<uint64_t, double> per_op;
  for (const auto& [op, root_name] : op_names_) {
    if (root_name == op_name) per_op[op] = 0;
  }
  for (const Span& s : spans_) {
    auto it = per_op.find(s.op);
    if (it != per_op.end() && name == s.name) {
      it->second += (s.end_us - s.start_us) / 1e6;
    }
  }
  std::vector<double> out;
  for (const auto& entry : per_op) out.push_back(entry.second);
  return out;
}

std::vector<double> SpanIndex::PerOpSelf(const std::string& name,
                                         const std::string& op_name) const {
  std::map<uint64_t, double> per_op;
  for (const auto& [op, root_name] : op_names_) {
    if (root_name == op_name) per_op[op] = 0;
  }
  for (const Span& s : spans_) {
    auto it = per_op.find(s.op);
    if (it != per_op.end() && name == s.name) it->second += SelfSeconds(s);
  }
  std::vector<double> out;
  for (const auto& entry : per_op) out.push_back(entry.second);
  return out;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double TailQuantile(const std::vector<double>& values) {
  size_t n = values.size();
  if (n >= 1000) return Quantile(values, 0.99);
  if (n >= 11) return Quantile(values, 1.0 - 10.0 / static_cast<double>(n));
  return Quantile(values, 1.0);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Load budget
// ---------------------------------------------------------------------------

unsigned Nproc() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void CheckLoadBudget(const char* what, size_t value) {
  if (value <= Nproc()) return;
  std::fprintf(stderr, "load budget exceeded: %zu %s > nproc %u\n", value,
               what, Nproc());
  std::exit(3);
}

// ---------------------------------------------------------------------------
// Deployment and counters
// ---------------------------------------------------------------------------

ServerCounters ServerCounters::operator-(const ServerCounters& base) const {
  ServerCounters d;
  d.connections_accepted = connections_accepted - base.connections_accepted;
  d.requests_handled = requests_handled - base.requests_handled;
  d.keepalive_reuses = keepalive_reuses - base.keepalive_reuses;
  d.bytes_sent = bytes_sent - base.bytes_sent;
  d.bytes_received = bytes_received - base.bytes_received;
  d.requests_shed = requests_shed - base.requests_shed;
  d.multirange_requests = multirange_requests - base.multirange_requests;
  d.ranges_served = ranges_served - base.ranges_served;
  return d;
}

ServerCounters SnapshotServers(const std::vector<const HttpNode*>& nodes) {
  ServerCounters c;
  for (const HttpNode* node : nodes) {
    davix::httpd::ServerStats& s = node->server->stats();
    c.connections_accepted += s.connections_accepted.load();
    c.requests_handled += s.requests_handled.load();
    c.keepalive_reuses += s.keepalive_reuses.load();
    c.bytes_sent += s.bytes_sent.load();
    c.bytes_received += s.bytes_received.load();
    c.requests_shed += s.requests_shed.load();
    if (node->handler != nullptr) {
      davix::httpd::DavHandlerStats& h = node->handler->stats();
      c.multirange_requests += h.multirange_requests.load();
      c.ranges_served += h.ranges_served.load();
    }
  }
  return c;
}

uint64_t ActiveConnections(const std::vector<const HttpNode*>& nodes) {
  uint64_t active = 0;
  for (const HttpNode* node : nodes) {
    active += node->server->stats().connections_active.load();
  }
  return active;
}

namespace {

// The IoCounters fields the per-layer metrics read.
template <typename Fn>
void ForEachIoField(davix::IoCounters& a, const davix::IoCounters& b, Fn fn) {
  fn(a.requests, b.requests);
  fn(a.network_round_trips, b.network_round_trips);
  fn(a.bytes_read, b.bytes_read);
  fn(a.connections_opened, b.connections_opened);
  fn(a.connections_reused, b.connections_reused);
  fn(a.retries, b.retries);
  fn(a.replica_failovers, b.replica_failovers);
  fn(a.replica_quarantines, b.replica_quarantines);
  fn(a.multisource_chunks, b.multisource_chunks);
  fn(a.vector_queries, b.vector_queries);
  fn(a.ranges_requested, b.ranges_requested);
  fn(a.cache_hits, b.cache_hits);
  fn(a.cache_misses, b.cache_misses);
  fn(a.cache_evictions, b.cache_evictions);
}

}  // namespace

ClientCounters& ClientCounters::operator+=(const ClientCounters& other) {
  ForEachIoField(io, other.io, [](uint64_t& a, uint64_t b) { a += b; });
  acquire_hits += other.acquire_hits;
  acquire_misses += other.acquire_misses;
  return *this;
}

ClientCounters ClientCounters::operator-(const ClientCounters& base) const {
  ClientCounters d = *this;
  ForEachIoField(d.io, base.io, [](uint64_t& a, uint64_t b) { a -= b; });
  d.acquire_hits -= base.acquire_hits;
  d.acquire_misses -= base.acquire_misses;
  return d;
}

ClientCounters SnapshotClient(davix::core::Context& context) {
  ClientCounters c;
  c.io = context.SnapshotCounters();
  c.acquire_hits = context.pool().stats().acquire_hits.load();
  c.acquire_misses = context.pool().stats().acquire_misses.load();
  return c;
}

// ---------------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------------

LoopResult RunClosedLoop(int clients, double seconds, bool trace,
                         const std::function<OpOutcome(int)>& op,
                         const std::function<uint64_t()>& connections) {
  CheckLoadBudget("client threads", static_cast<size_t>(clients));
  constexpr int64_t kTracePhaseMicros = 500'000;
  constexpr int64_t kTailWindowMicros = 2'000'000;
  const int64_t window_us = static_cast<int64_t>(seconds * 1e6);
  std::vector<LoopResult> per_client(static_cast<size_t>(clients));
  // Tail window of each untraced sample, parallel to untraced_ms.
  std::vector<std::vector<int64_t>> windows(static_cast<size_t>(clients));
  std::atomic<uint64_t> peak{0};
  double cpu_start = ProcessCpuSeconds();
  const int64_t start = MonotonicMicros();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& mine = per_client[static_cast<size_t>(c)];
      while (true) {
        int64_t t0 = MonotonicMicros();
        if (t0 - start >= window_us) break;
        bool traced = trace && ((t0 - start) / kTracePhaseMicros) % 2 == 1;
        OpOutcome outcome;
        {
          OpScope scope(traced, "op");
          outcome = op(c);
        }
        double ms = (MonotonicMicros() - t0) / 1e3;
        ++mine.attempted;
        if (!outcome.ok) {
          ++mine.failed;
        } else {
          mine.payload_bytes += outcome.payload_bytes;
          if (traced) {
            mine.traced_ms.push_back(ms);
          } else {
            mine.untraced_ms.push_back(ms);
            windows[static_cast<size_t>(c)].push_back((t0 - start) /
                                                      kTailWindowMicros);
          }
        }
        uint64_t now = connections();
        uint64_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult total;
  total.window_s = (MonotonicMicros() - start) / 1e6;
  total.cpu_s = ProcessCpuSeconds() - cpu_start;
  total.peak_connections = peak.load();
  std::map<int64_t, std::vector<double>> by_window;
  for (size_t c = 0; c < per_client.size(); ++c) {
    for (size_t i = 0; i < windows[c].size(); ++i) {
      by_window[windows[c][i]].push_back(per_client[c].untraced_ms[i]);
    }
  }
  for (const auto& entry : by_window) {
    total.untraced_p90_ms_by_window.push_back(Quantile(entry.second, 0.9));
  }
  for (LoopResult& r : per_client) {
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.payload_bytes += r.payload_bytes;
    total.untraced_ms.insert(total.untraced_ms.end(), r.untraced_ms.begin(),
                             r.untraced_ms.end());
    total.traced_ms.insert(total.traced_ms.end(), r.traced_ms.begin(),
                           r.traced_ms.end());
  }
  return total;
}

void AddTransportMetrics(const ClientCounters& client,
                         const ServerCounters& server, uint64_t ops,
                         uint64_t payload_bytes, Report* report) {
  const davix::IoCounters& io = client.io;
  auto count = [](uint64_t n) { return static_cast<double>(n); };
  std::map<std::string, double>& m = report->layer;
  m["core.cache_hits"] = count(io.cache_hits);
  m["core.cache_misses"] = count(io.cache_misses);
  m["core.cache_evictions"] = count(io.cache_evictions);
  m["core.cache_hit_ratio"] =
      Ratio(count(io.cache_hits), count(io.cache_hits + io.cache_misses));
  m["core.ranges_per_query"] =
      Ratio(count(io.ranges_requested), count(io.vector_queries));
  m["core.requests_per_op"] = Ratio(count(io.requests), count(ops));
  m["core.wire_bytes_per_payload_byte"] =
      Ratio(count(server.bytes_sent + server.bytes_received),
            count(payload_bytes));
  m["core.connections_opened"] = count(io.connections_opened);
  m["core.session_reuse_ratio"] =
      Ratio(count(io.connections_reused),
            count(io.connections_reused + io.connections_opened));
  m["core.pool_acquire_miss_ratio"] =
      Ratio(count(client.acquire_misses),
            count(client.acquire_hits + client.acquire_misses));
  m["core.retries"] = count(io.retries);
  m["core.replica_failovers"] = count(io.replica_failovers);
  m["core.replica_quarantines"] = count(io.replica_quarantines);
  m["core.multisource_chunks"] = count(io.multisource_chunks);
  m["httpd.requests_handled"] = count(server.requests_handled);
  m["httpd.keepalive_reuse_ratio"] =
      Ratio(count(server.keepalive_reuses), count(server.requests_handled));
  m["httpd.bytes_sent"] = count(server.bytes_sent);
  m["httpd.multirange_requests"] = count(server.multirange_requests);
  m["httpd.ranges_served"] = count(server.ranges_served);
  m["httpd.connections_accepted"] = count(server.connections_accepted);
  m["httpd.requests_shed"] = count(server.requests_shed);
}

void AddTraceMetrics(const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms,
                     uint64_t peak_connections, Report* report) {
  double traced = Median(traced_ms);
  double untraced = Median(untraced_ms);
  report->layer["trace.op_p50_ms"] = traced;
  report->layer["trace.untraced_op_p50_ms"] = untraced;
  report->layer["trace.overhead_ratio"] = Ratio(traced, untraced);
  report->layer["load.peak_connections"] =
      static_cast<double>(peak_connections);
}

void FillFromLoop(const LoopResult& loop, Report* report) {
  report->op_ms = loop.untraced_ms;
  report->op_p90_ms_by_window = loop.untraced_p90_ms_by_window;
  report->ops_completed = loop.attempted - loop.failed;
  report->window_s = loop.window_s;
  report->payload_bytes = loop.payload_bytes;
  report->cpu_s = loop.cpu_s;
  report->attempted = loop.attempted;
  report->failed = loop.failed;
  AddTraceMetrics(loop.traced_ms, loop.untraced_ms, loop.peak_connections,
                  report);
}

}  // namespace perfbench
