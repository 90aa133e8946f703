// Shared pieces of the repository benchmark: command-line options, the
// in-memory span tracer, the closed-loop load generator, the load-budget
// guard, counter snapshots of the layers, and the report every workload
// fills. See NOTES.md for what each workload and metric means.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stats.h"
#include "core/context.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
  /// Self-test: corrupt the benchmark's own copy of the expected outputs
  /// after set-up, so every output check must fire.
  bool corrupt_oracle = false;
};

// ---------------------------------------------------------------------------
// Tracing. Spans are recorded only from the benchmark's own code, around
// calls into a layer, and only for ops started with OpScope(traced=true).
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  int64_t start_us = 0;
  int64_t end_us = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root of its op
  uint64_t op = 0;      ///< shared by every span of one op
  uint32_t thread = 0;  ///< recording thread, for self time
  /// False for a span that outlives the call that started it (an
  /// asynchronous read): its thread was not blocked for its duration.
  bool blocking = true;
};

/// Process-wide span store; spans stay in memory until the run ends.
class Tracer {
 public:
  static Tracer& Get();
  void Record(const Span& span);
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  /// All spans recorded so far.
  std::vector<Span> Spans() const;
  /// Writes the spans as JSON lines; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_id_{0};
};

/// Opens a span on the calling thread; a no-op outside a traced op.
class SpanScope {
 public:
  explicit SpanScope(const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Span span_;
};

/// Starts a non-blocking span on the calling thread (returned with id 0
/// outside a traced op); the caller ends it with EndDetachedSpan.
Span BeginDetachedSpan(const char* name);
void EndDetachedSpan(Span* span);

/// Marks one op of the load: a traced op gets a fresh op id and a root
/// span named `name`; an untraced op records nothing.
class OpScope {
 public:
  OpScope(bool traced, const char* name);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  std::optional<SpanScope> root_;
};

/// Queries over a finished set of spans.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<Span> spans);
  /// Durations in seconds of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Per-op sums of the durations of spans called `name`, in seconds,
  /// over the ops whose root span is called `op_name`.
  std::vector<double> PerOpSum(const std::string& name,
                               const std::string& op_name) const;
  /// Like PerOpSum, but each span counts only its self time: its
  /// duration minus the part covered by blocking child spans recorded on
  /// the same thread (other children overlap it and block nothing).
  std::vector<double> PerOpSelf(const std::string& name,
                                const std::string& op_name) const;

 private:
  double SelfSeconds(const Span& span) const;
  std::vector<Span> spans_;
  std::map<uint64_t, std::vector<size_t>> children_;
  std::map<uint64_t, std::string> op_names_;
};

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
/// The highest percentile with at least ten samples beyond it: p99 from
/// 1000 samples up, 1 - 10/n below that, and the maximum under 11.
double TailQuantile(const std::vector<double>& values);
double Ratio(double num, double den);

/// Process CPU seconds (all threads: clients, dispatchers and servers).
double ProcessCpuSeconds();
/// Peak resident set size of the process, MiB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Load budget: the run fails when any concurrency knob exceeds nproc.
// ---------------------------------------------------------------------------

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Closed loops run this long before the measured window.
constexpr double kWarmupSeconds = 0.5;

unsigned Nproc();
/// Exits the process (code 3, no result) if `value` exceeds Nproc().
void CheckLoadBudget(const char* what, size_t value);

// ---------------------------------------------------------------------------
// Deployment: in-process storage nodes on netsim-shaped links, started with
// the scenario benches' StartHttpNode.
// ---------------------------------------------------------------------------

using davix::bench::HttpNode;
using davix::bench::StartHttpNode;

/// Server-side counters summed over a set of nodes.
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t requests_handled = 0;
  uint64_t keepalive_reuses = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t requests_shed = 0;
  uint64_t multirange_requests = 0;
  uint64_t ranges_served = 0;

  ServerCounters operator-(const ServerCounters& base) const;
};
ServerCounters SnapshotServers(const std::vector<const HttpNode*>& nodes);
/// Connections the nodes hold open right now.
uint64_t ActiveConnections(const std::vector<const HttpNode*>& nodes);

/// Client-side counters of one Context (IoCounters plus the pool's
/// acquire hit/miss view, which ResetCounters does not clear).
struct ClientCounters {
  davix::IoCounters io;
  uint64_t acquire_hits = 0;
  uint64_t acquire_misses = 0;

  ClientCounters& operator+=(const ClientCounters& other);
  ClientCounters operator-(const ClientCounters& base) const;
};
ClientCounters SnapshotClient(davix::core::Context& context);

// ---------------------------------------------------------------------------
// Closed-loop load: `clients` threads, each sending its next op only after
// the previous one completed.
// ---------------------------------------------------------------------------

struct OpOutcome {
  bool ok = true;
  uint64_t payload_bytes = 0;
};

struct LoopResult {
  std::vector<double> untraced_ms;
  /// p90 latency of the untraced ops started in each two-second window.
  std::vector<double> untraced_p90_ms_by_window;
  std::vector<double> traced_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t payload_bytes = 0;
  double window_s = 0;
  double cpu_s = 0;
  uint64_t peak_connections = 0;
};

/// Runs `op(client)` on every client until `seconds` have passed. With
/// `trace` set, alternating half-second phases run traced and untraced
/// ops, so one run measures both sides of the tracing overhead.
/// `connections` is sampled after every op for the load record.
LoopResult RunClosedLoop(int clients, double seconds, bool trace,
                         const std::function<OpOutcome(int)>& op,
                         const std::function<uint64_t()>& connections);

// ---------------------------------------------------------------------------
// Report of one workload run.
// ---------------------------------------------------------------------------

struct Report {
  std::vector<double> setup_s;   ///< one entry per set-up
  std::vector<double> op_ms;     ///< untraced op latencies
  /// Closed loops: the p90 latency of each two-second window. Their
  /// median is op_p90_ms, so a host stall in one window cannot set it.
  std::vector<double> op_p90_ms_by_window;
  uint64_t ops_completed = 0;    ///< ops inside the measured window
  double window_s = 0;
  uint64_t payload_bytes = 0;
  double cpu_s = 0;  ///< process CPU over the window
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failures per output check, for the self-test.
  std::map<std::string, uint64_t> check_failures;
  /// False when a check outside the ops failed (e.g. trace agreement).
  bool correct = true;
  std::map<std::string, double> layer;  ///< per-layer metrics
  std::vector<std::string> notes;       ///< human-readable lines

  void CheckFailed(const std::string& check) { ++check_failures[check]; }
};

/// Fills the core.* and httpd.* per-layer metrics that come from client
/// and server counters over `ops` completed ops moving `payload_bytes`.
void AddTransportMetrics(const ClientCounters& client,
                         const ServerCounters& server, uint64_t ops,
                         uint64_t payload_bytes, Report* report);

/// Fills the tracing-overhead and load per-layer metrics: the medians of
/// the traced and untraced op latencies of one run, and the most server
/// connections seen.
void AddTraceMetrics(const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms,
                     uint64_t peak_connections, Report* report);

/// Copies a closed loop's results into the report.
void FillFromLoop(const LoopResult& loop, Report* report);

using WorkloadFn = Report (*)(const Options&);
Report RunAnalysisWan(const Options& options);
Report RunReadvLan(const Options& options);
Report RunSmallOpsLan(const Options& options);
Report RunBulkWan(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
