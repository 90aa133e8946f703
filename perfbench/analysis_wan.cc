// analysis_wan: the Figure 4 job at the WAN profile — the paper's
// headline. The 12000-event, 8-branch DLZ tree is read with 4-row
// clusters through davix:// with the async pipelined TreeCache and
// 256 KiB vector_parallel_chunk_bytes, with a fresh Context per job. I/O
// and compute overlap, so a gain in either shows; the block cache and
// the replica layers are bypassed.
//
// Untraced jobs run the library's own root::RunAnalysisOnUrl. Traced jobs
// rebuild its event loop from the public TreeReader / TreeCache calls and
// read through a RandomAccessFile decorator registered as the "traced"
// storage scheme, so each call into the root layer and each vectored read
// at the core boundary gets a span.

#include <cmath>
#include <cstring>
#include <optional>

#include "common/clock.h"
#include "root/analysis_job.h"
#include "root/storage_adapter.h"
#include "root/tree_cache.h"
#include "root/tree_format.h"
#include "root/tree_reader.h"
#include "perfbench/harness.h"

namespace perfbench {
namespace {

using davix::Result;
using davix::Stopwatch;
using davix::http::ByteRange;
namespace root = davix::root;
namespace core = davix::core;

constexpr char kTreePath[] = "/atlas/events.rnt";
/// Per-event compute of bench_fig4_analysis's full-size run.
constexpr uint32_t kComputeIterations = 80'000;
constexpr uint32_t kClusterRows = 4;
constexpr uint32_t kPipelineClusters = 4;
constexpr int64_t kLatencyThresholdMicros = 200'000;
constexpr uint64_t kChunkBytes = 256 * 1024;
/// BurnCompute's result depends only on event % 97.
constexpr uint64_t kBurnPeriod = 97;

root::TreeSpec Spec() {
  root::TreeSpec spec;
  spec.n_events = 12000;
  spec.events_per_basket = 125;
  spec.codec = davix::compress::CodecType::kDlz;
  spec.branches = {
      {"event_id", 8}, {"pt", 4},        {"eta", 4},
      {"phi", 4},      {"energy", 4},    {"charge", 1},
      {"n_tracks", 2}, {"cells", 4096},
  };
  return spec;
}

/// The per-event physics compute of root::RunAnalysis, kept bit-identical
/// so the rebuilt event loop reproduces its physics_sum exactly.
double BurnCompute(uint32_t iterations, double seed) {
  double x = seed + 1.000000001;
  for (uint32_t i = 0; i < iterations; ++i) {
    x = x * 1.0000001 + 0.1;
    if (x > 1e12) x *= 1e-12;
  }
  return x;
}

// ---------------------------------------------------------------------------
// The tracing decorator at the core transport boundary.
// ---------------------------------------------------------------------------

class TracedPendingVecRead : public root::PendingVecRead {
 public:
  TracedPendingVecRead(std::unique_ptr<root::PendingVecRead> inner,
                       Span issued)
      : inner_(std::move(inner)), issued_(issued) {}

  Result<std::vector<std::string>> Wait() override {
    Result<std::vector<std::string>> result = [&] {
      SpanScope wait("core.vec_wait");
      return inner_->Wait();
    }();
    EndDetachedSpan(&issued_);
    return result;
  }

 private:
  std::unique_ptr<root::PendingVecRead> inner_;
  Span issued_;
};

/// Forwards every call, including the asynchronous vectored path: without
/// SupportsAsyncVec/PReadVecAsync the TreeCache would silently fall back
/// to synchronous reads and the trace would measure another program.
class TracedFile : public root::RandomAccessFile {
 public:
  explicit TracedFile(std::unique_ptr<root::RandomAccessFile> inner)
      : inner_(std::move(inner)) {}

  uint64_t Size() const override { return inner_->Size(); }

  Result<std::string> PRead(uint64_t offset, uint64_t length) override {
    SpanScope span("core.pread");
    return inner_->PRead(offset, length);
  }

  Result<std::vector<std::string>> PReadVec(
      const std::vector<ByteRange>& ranges) override {
    SpanScope read("core.vec_read");
    SpanScope wait("core.vec_wait");
    return inner_->PReadVec(ranges);
  }

  bool SupportsAsyncVec() const override { return inner_->SupportsAsyncVec(); }

  std::unique_ptr<root::PendingVecRead> PReadVecAsync(
      const std::vector<ByteRange>& ranges) override {
    Span issued = BeginDetachedSpan("core.vec_read");
    return std::make_unique<TracedPendingVecRead>(
        inner_->PReadVecAsync(ranges), issued);
  }

 private:
  std::unique_ptr<root::RandomAccessFile> inner_;
};

void RegisterTracedScheme() {
  root::StorageAdapterRegistry::Default().Register(
      "traced",
      [](const std::string& rest, const root::StorageOpenParams& params)
          -> Result<std::unique_ptr<root::RandomAccessFile>> {
        DAVIX_ASSIGN_OR_RETURN(std::unique_ptr<root::RandomAccessFile> inner,
                               root::OpenStorage("davix://" + rest, params));
        return std::unique_ptr<root::RandomAccessFile>(
            new TracedFile(std::move(inner)));
      });
}

// ---------------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------------

struct LoopOutcome {
  double physics_sum = 0;
  uint64_t events = 0;
  root::TreeCacheStats io;
};

/// root::RunAnalysis's event loop over all branches, from its public
/// calls. `burn` is the per-event compute: the real BurnCompute in a
/// job, a table of its results for the oracle.
Result<LoopOutcome> EventLoop(root::RandomAccessFile* file,
                              const root::AnalysisConfig& config,
                              const std::function<double(uint64_t)>& burn) {
  std::optional<root::TreeReader> reader;
  {
    SpanScope span("root.open");
    DAVIX_ASSIGN_OR_RETURN(root::TreeReader opened,
                           root::TreeReader::Open(file));
    reader.emplace(std::move(opened));
  }
  const root::TreeSpec& spec = reader->spec();
  std::vector<size_t> active(spec.branches.size());
  for (size_t i = 0; i < active.size(); ++i) active[i] = i;
  root::TreeCache cache(&*reader, active, config.cache);

  LoopOutcome outcome;
  double aggregate = 0;
  std::vector<std::shared_ptr<const std::string>> baskets(active.size());
  for (uint64_t event = 0; event < spec.n_events; ++event) {
    uint64_t row = event / spec.events_per_basket;
    uint64_t in_basket = event % spec.events_per_basket;
    for (size_t branch : active) {
      SpanScope span("root.basket");
      DAVIX_ASSIGN_OR_RETURN(baskets[branch], cache.GetBasket(branch, row));
    }
    SpanScope span("app.compute");
    for (size_t branch : active) {
      const std::string& basket = *baskets[branch];
      uint32_t width = spec.branches[branch].bytes_per_event;
      size_t begin = static_cast<size_t>(in_basket) * width;
      if (begin + width > basket.size()) {
        return davix::Status::Corruption("basket shorter than event layout");
      }
      uint64_t fold = 0;
      for (uint32_t i = 0; i < width; ++i) {
        fold = fold * 131 + static_cast<unsigned char>(basket[begin + i]);
      }
      aggregate += static_cast<double>(fold % 1000003);
    }
    aggregate += burn(event) * 1e-9;
    ++outcome.events;
  }
  outcome.physics_sum = aggregate;
  outcome.io = cache.stats();
  return outcome;
}

root::AnalysisConfig JobConfig(uint64_t window_bytes) {
  root::AnalysisConfig config;
  config.compute_iterations_per_event = kComputeIterations;
  config.cache.cluster_rows = kClusterRows;
  config.cache.async_prefetch = true;
  config.cache.prefetch_window_bytes = window_bytes;
  config.cache.prefetch_pipeline_clusters = kPipelineClusters;
  config.cache.prefetch_latency_threshold_micros = kLatencyThresholdMicros;
  return config;
}

root::StorageOpenParams StorageParams(core::Context* context) {
  root::StorageOpenParams storage;
  storage.context = context;
  storage.request.metalink_mode = core::MetalinkMode::kDisabled;
  storage.request.vector_parallel_chunk_bytes = kChunkBytes;
  storage.request.max_parallel_range_requests = Nproc();
  CheckLoadBudget("parallel range requests",
                  storage.request.max_parallel_range_requests);
  return storage;
}

bool SameCounts(const root::TreeCacheStats& a, const root::TreeCacheStats& b) {
  return a.vector_reads == b.vector_reads &&
         a.ranges_requested == b.ranges_requested &&
         a.bytes_fetched == b.bytes_fetched &&
         a.clusters_fetched == b.clusters_fetched &&
         a.async_prefetches == b.async_prefetches &&
         a.single_reads == b.single_reads &&
         a.bytes_prefetched_early == b.bytes_prefetched_early &&
         a.prefetch_discards == b.prefetch_discards;
}

struct Job {
  bool traced = false;
  double seconds = 0;
  Result<LoopOutcome> outcome = davix::Status::Internal("not run");
};

}  // namespace

Report RunAnalysisWan(const Options& options) {
  Report report;
  RegisterTracedScheme();
  root::TreeSpec spec = Spec();
  std::string tree = root::BuildTreeFile(spec, options.seed);
  // Five clusters of stored bytes over a four-deep pipeline, as in
  // bench_fig4_analysis: full clusters stay in flight.
  uint64_t window_bytes =
      tree.size() / spec.BasketCountPerBranch() * kClusterRows * 5;
  root::AnalysisConfig config = JobConfig(window_bytes);

  std::vector<double> burn_table(kBurnPeriod);
  for (uint64_t i = 0; i < kBurnPeriod; ++i) {
    burn_table[i] = BurnCompute(kComputeIterations, static_cast<double>(i));
  }
  auto burn_from_table = [&](uint64_t event) {
    return burn_table[event % kBurnPeriod];
  };

  // The oracle: the same loop over the benchmark's own copy of the tree.
  std::string oracle = tree;
  if (options.corrupt_oracle) {
    for (size_t i = tree.size() / 2; i < tree.size(); i += 4096) {
      oracle[i] ^= 0x5a;
    }
  }
  double truth = std::nan("");
  {
    root::MemoryFile local(oracle);
    Result<LoopOutcome> expected = EventLoop(&local, config, burn_from_table);
    if (expected.ok()) truth = expected->physics_sum;
  }

  std::optional<HttpNode> node;
  for (int i = 0; i < kSetups; ++i) {
    node.reset();
    Stopwatch setup;
    auto store = std::make_shared<davix::httpd::ObjectStore>();
    store->Put(kTreePath, tree);
    node.emplace(StartHttpNode(davix::netsim::LinkProfile::Wan(), store));
    core::Context context(core::SessionPoolConfig{}, Nproc());
    if (!root::OpenTreeUrl("davix://127.0.0.1:" +
                               std::to_string(node->server->port()) +
                               kTreePath,
                           StorageParams(&context))
             .ok()) {
      std::fprintf(stderr, "analysis_wan: cannot open the tree\n");
      std::exit(1);
    }
    report.setup_s.push_back(setup.ElapsedSeconds());
  }
  const std::string where =
      "127.0.0.1:" + std::to_string(node->server->port()) + kTreePath;
  CheckLoadBudget("dispatcher threads", Nproc());

  std::vector<const HttpNode*> nodes = {&*node};
  ServerCounters server_before = SnapshotServers(nodes);
  ClientCounters client;
  std::vector<Job> jobs;
  uint64_t peak_connections = 0;
  const int64_t window_us = static_cast<int64_t>(options.seconds * 1e6);
  double cpu_start = ProcessCpuSeconds();
  Stopwatch window;
  // The traced run alternates untraced and traced jobs, so one run gives
  // both sides of the tracing overhead and of the agreement check.
  while (window.ElapsedMicros() < window_us ||
         (options.trace && jobs.size() < 2)) {
    Job job;
    job.traced = options.trace && jobs.size() % 2 == 1;
    Stopwatch stopwatch;
    {
      OpScope scope(job.traced, "job");
      core::Context context(core::SessionPoolConfig{}, Nproc());
      root::StorageOpenParams storage = StorageParams(&context);
      if (job.traced) {
        Result<std::unique_ptr<root::RandomAccessFile>> file = [&] {
          SpanScope span("root.open");
          return root::OpenStorage("traced://" + where, storage);
        }();
        if (file.ok()) {
          job.outcome = EventLoop(file->get(), config, [](uint64_t event) {
            return BurnCompute(kComputeIterations,
                               static_cast<double>(event % kBurnPeriod));
          });
        } else {
          job.outcome = file.status();
        }
      } else {
        Result<root::AnalysisReport> run =
            root::RunAnalysisOnUrl("davix://" + where, config, storage);
        if (run.ok()) {
          job.outcome = LoopOutcome{run->physics_sum, run->events_processed,
                                    run->io};
        } else {
          job.outcome = run.status();
        }
      }
      peak_connections = std::max(peak_connections, ActiveConnections(nodes));
      client += SnapshotClient(context);
    }
    job.seconds = stopwatch.ElapsedSeconds();
    jobs.push_back(std::move(job));
  }
  report.window_s = window.ElapsedSeconds();
  report.cpu_s = ProcessCpuSeconds() - cpu_start;
  ServerCounters server = SnapshotServers(nodes) - server_before;

  const root::TreeCacheStats* reference = nullptr;
  std::vector<double> traced_ms;
  std::vector<root::TreeCacheStats> traced_io;
  for (const Job& job : jobs) {
    ++report.attempted;
    if (!job.outcome.ok()) {
      ++report.failed;
      report.notes.push_back("job failed: " +
                             job.outcome.status().ToString());
      continue;
    }
    if (job.outcome->physics_sum != truth ||
        job.outcome->events != spec.n_events) {
      ++report.failed;
      report.CheckFailed("physics_sum");
      continue;
    }
    ++report.ops_completed;
    report.payload_bytes += job.outcome->io.bytes_fetched;
    if (job.traced) {
      traced_ms.push_back(job.seconds * 1e3);
      traced_io.push_back(job.outcome->io);
    } else {
      report.op_ms.push_back(job.seconds * 1e3);
      if (reference == nullptr) reference = &job.outcome->io;
    }
  }
  for (const root::TreeCacheStats& io : traced_io) {
    if (reference == nullptr || !SameCounts(io, *reference)) {
      report.correct = false;
      report.CheckFailed("trace_agreement");
    }
  }

  AddTransportMetrics(client, server, report.ops_completed,
                      report.payload_bytes, &report);
  AddTraceMetrics(traced_ms, report.op_ms, peak_connections, &report);
  if (options.trace) {
    SpanIndex spans(Tracer::Get().Spans());
    std::vector<double> job_s = spans.PerOpSum("job", "job");
    std::vector<double> open_s = spans.PerOpSum("root.open", "job");
    std::vector<double> basket_s = spans.PerOpSum("root.basket", "job");
    std::vector<double> compute_s = spans.PerOpSum("app.compute", "job");
    std::vector<double> coverage;
    for (size_t i = 0; i < job_s.size(); ++i) {
      coverage.push_back(
          Ratio(open_s[i] + basket_s[i] + compute_s[i], job_s[i]));
    }
    std::vector<double> vec_read_ms = spans.Durations("core.vec_read");
    for (double& v : vec_read_ms) v *= 1e3;
    std::map<std::string, double>& m = report.layer;
    m["root.open_s"] = Median(open_s);
    m["root.basket_s"] = Median(basket_s);
    m["root.basket_self_s"] = Median(spans.PerOpSelf("root.basket", "job"));
    m["app.compute_s"] = Median(compute_s);
    m["core.vec_wait_s"] = Median(spans.PerOpSum("core.vec_wait", "job"));
    m["core.vec_read_ms_p50"] = Median(vec_read_ms);
    m["core.vec_read_ms_max"] = Quantile(vec_read_ms, 1.0);
    m["trace.job_coverage"] = Median(coverage);
    auto per_job = [&](auto field) {
      std::vector<double> values;
      for (const root::TreeCacheStats& io : traced_io) {
        values.push_back(field(io));
      }
      return Median(values);
    };
    using Stats = root::TreeCacheStats;
    m["root.prefetch_wait_s"] = per_job([](const Stats& io) {
      return static_cast<double>(io.prefetch_wait_micros) / 1e6;
    });
    m["root.early_bytes_ratio"] = per_job([](const Stats& io) {
      return Ratio(static_cast<double>(io.bytes_prefetched_early),
                   static_cast<double>(io.bytes_fetched));
    });
    m["root.vector_reads"] = per_job(
        [](const Stats& io) { return static_cast<double>(io.vector_reads); });
    m["root.async_prefetches"] = per_job([](const Stats& io) {
      return static_cast<double>(io.async_prefetches);
    });
    m["root.prefetch_discards"] = per_job([](const Stats& io) {
      return static_cast<double>(io.prefetch_discards);
    });
  }
  report.notes.push_back(
      "tree " + std::to_string(tree.size()) + " B, window " +
      std::to_string(window_bytes) + " B, jobs " +
      std::to_string(jobs.size()) + ", peak server connections " +
      std::to_string(peak_connections));
  return report;
}

}  // namespace perfbench
