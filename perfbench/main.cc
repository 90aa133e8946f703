// The repository benchmark. One process runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--corrupt-oracle]
//
// and prints, as its last line, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, derived from spans recorded around the calls
// into each layer. Lines before it are human-readable.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "perfbench/harness.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, reported by every workload; a layer that does
/// no such work on a workload reports 0. Counts are totals over the
/// measured window, except the root.* TreeCache counts, which are per job.
constexpr MetricSpec kLayerMetrics[] = {
    {"root.open_s", "s"},
    {"root.basket_s", "s"},
    {"root.basket_self_s", "s"},
    {"root.prefetch_wait_s", "s"},
    {"root.early_bytes_ratio", "ratio"},
    {"root.vector_reads", "count"},
    {"root.async_prefetches", "count"},
    {"root.prefetch_discards", "count"},
    {"app.compute_s", "s"},
    {"core.vec_read_ms_p50", "ms"},
    {"core.vec_read_ms_max", "ms"},
    {"core.vec_wait_s", "s"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.cache_hits", "count"},
    {"core.cache_misses", "count"},
    {"core.cache_evictions", "count"},
    {"core.ranges_per_query", "ratio"},
    {"core.requests_per_op", "ratio"},
    {"core.wire_bytes_per_payload_byte", "ratio"},
    {"core.connections_opened", "count"},
    {"core.session_reuse_ratio", "ratio"},
    {"core.pool_acquire_miss_ratio", "ratio"},
    {"core.put_ms_p50", "ms"},
    {"core.put_ms_p99", "ms"},
    {"core.get_ms_p50", "ms"},
    {"core.get_ms_p99", "ms"},
    {"core.pread_ms_p50", "ms"},
    {"core.pread_ms_p99", "ms"},
    {"core.stat_ms_p50", "ms"},
    {"core.stat_ms_p99", "ms"},
    {"core.list_ms_p50", "ms"},
    {"core.list_ms_p99", "ms"},
    {"core.delete_ms_p50", "ms"},
    {"core.delete_ms_p99", "ms"},
    {"core.open_ms_p50", "ms"},
    {"core.multistream_s", "s"},
    {"core.scan_s", "s"},
    {"core.read_block_s", "s"},
    {"core.replica_failovers", "count"},
    {"core.replica_quarantines", "count"},
    {"core.multisource_chunks", "count"},
    {"core.retries", "count"},
    {"fed.redirector_requests", "count"},
    {"httpd.requests_handled", "count"},
    {"httpd.keepalive_reuse_ratio", "ratio"},
    {"httpd.bytes_sent", "bytes"},
    {"httpd.multirange_requests", "count"},
    {"httpd.ranges_served", "count"},
    {"httpd.connections_accepted", "count"},
    {"httpd.requests_shed", "count"},
    {"trace.op_p50_ms", "ms"},
    {"trace.untraced_op_p50_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.job_coverage", "ratio"},
    {"trace.spans", "count"},
    {"load.peak_connections", "count"},
    {"process.cpu_ms_per_op", "ms"},
};

const std::pair<const char*, WorkloadFn> kWorkloads[] = {
    {"analysis_wan", RunAnalysisWan},
    {"readv_lan", RunReadvLan},
    {"small_ops_lan", RunSmallOpsLan},
    {"bulk_wan", RunBulkWan},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--corrupt-oracle]\n",
               why);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      options.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0 || options.seconds > 60) {
    Usage("--seconds must be in (0, 60]");
  }
  return options;
}

void AppendMetric(std::string* json, const std::string& name, double value,
                  const char* unit) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{\"value\": %.17g, \"unit\": \"%s\"}",
                value, unit);
  if (json->back() != '{') *json += ", ";
  *json += "\"" + name + "\": " + buf;
}

int Main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  WorkloadFn run = nullptr;
  for (const auto& [name, fn] : kWorkloads) {
    if (options.workload == name) run = fn;
  }
  if (run == nullptr) Usage(("unknown workload " + options.workload).c_str());
  // Expected failures (the dead replica of bulk_wan) are not news.
  davix::SetLogLevel(davix::LogLevel::kError);

  Report report = run(options);

  std::string metrics = "{";
  if (options.trace) {
    report.layer["process.cpu_ms_per_op"] =
        Ratio(report.cpu_s * 1e3, static_cast<double>(report.ops_completed));
    report.layer["trace.spans"] =
        static_cast<double>(Tracer::Get().Spans().size());
    for (const MetricSpec& spec : kLayerMetrics) {
      auto it = report.layer.find(spec.name);
      double value = it == report.layer.end() ? 0 : it->second;
      AppendMetric(&metrics, spec.name, value, spec.unit);
    }
    for (const auto& entry : report.layer) {
      bool known = false;
      for (const MetricSpec& spec : kLayerMetrics) {
        known = known || entry.first == spec.name;
      }
      if (!known) {
        std::fprintf(stderr, "unlisted per-layer metric %s\n",
                     entry.first.c_str());
        return 1;
      }
    }
    if (!options.trace_out.empty() &&
        !Tracer::Get().WriteJsonLines(options.trace_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   options.trace_out.c_str());
      return 1;
    }
  } else {
    double ops = static_cast<double>(report.ops_completed);
    AppendMetric(&metrics, "setup_s", Median(report.setup_s), "s");
    AppendMetric(&metrics, "op_p50_ms", Median(report.op_ms), "ms");
    double p90_ms = report.op_p90_ms_by_window.empty()
                        ? Quantile(report.op_ms, 0.9)
                        : Median(report.op_p90_ms_by_window);
    AppendMetric(&metrics, "op_p90_ms", p90_ms, "ms");
    AppendMetric(&metrics, "ops_per_s", Ratio(ops, report.window_s), "1/s");
    AppendMetric(&metrics, "mb_per_s",
                 Ratio(static_cast<double>(report.payload_bytes) / 1e6,
                       report.window_s),
                 "MB/s");
    AppendMetric(&metrics, "peak_rss_mb", PeakRssMb(), "MiB");
  }
  metrics += "}";

  for (const std::string& note : report.notes) {
    std::printf("%s: %s\n", options.workload.c_str(), note.c_str());
  }
  std::printf("%s: %zu untraced op samples, %zu set-ups\n",
              options.workload.c_str(), report.op_ms.size(),
              report.setup_s.size());
  std::string checks = "{";
  for (const auto& [check, n] : report.check_failures) {
    if (checks.size() > 1) checks += ", ";
    checks += "\"" + check + "\": " + std::to_string(n);
  }
  std::printf("check failures: %s}\n", checks.c_str());
  bool correct = report.correct && report.failed == 0 &&
                 report.check_failures.empty() && report.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
