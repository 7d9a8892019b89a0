// perfbench: end-to-end and per-layer benchmark of agedtr.
//
//   perfbench --workload plan|simulate --seed N --seconds S --trace 0|1
//             --out DIR [--git-sha SHA] [--setup-samples S1,S2,...]
//   perfbench --workload plan|simulate --seed N --setup-only 1 --out DIR
//
// Each workload runs in its own process (so set-up time and peak memory
// are per workload). With --trace 0 the metrics are measured with the
// metrics layer off and the last stdout line carries the end-to-end
// metrics; with --trace 1 the same workload runs with metrics::enabled(),
// the benchmark's own spans wrap its calls into each module, and the last
// line carries the per-layer metrics. Every run checks the program's
// outputs and exits 1 when a check fails.
//
// Set-up is timed from main() to the first timed operation. A set-up-only
// run stops there and prints {"setup_s": ...}; run.py starts a few of them
// before an untraced run and hands their times over in --setup-samples, so
// `setup_s` is a median of whole-process set-ups.
//
// The end-to-end metrics share one set of names across workloads; what
// each name measures in each workload is listed in perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "agedtr/util/metrics.hpp"
#include "common.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer) ||                       \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Outcome;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},   {"peak_rss_mb", "MB"}, {"warm_ms", "ms"},
    {"cold_ms", "ms"},  {"tail_ms", "ms"},     {"batch_ms", "ms"},
    {"rate_per_s", "1/s"}, {"ok_frac", "1"},
};

// Must match "per_layer" in BENCHMARK.json. A workload that does not
// exercise a layer reports 0 for it (nothing of that kind ran).
constexpr MetricSpec kPerLayer[] = {
    {"service.submit_us", "us"},
    {"service.capacity_per_s", "1/s"},
    {"service.frame_us", "us"},
    {"service.wait_ms_p50", "ms"},
    {"service.wait_ms_p99", "ms"},
    {"service.queue_depth_p99", "count"},
    {"service.cache_hit_ratio", "1"},
    {"service.shed", "count"},
    {"service.deadline_exceeded", "count"},
    {"service.degraded", "count"},
    {"service.failed", "count"},
    {"service.invalid", "count"},
    {"service.gen_lag_ms", "ms"},
    {"service.queue_start", "count"},
    {"service.queue_end", "count"},
    {"service.share_pool", "1"},
    {"service.share_cold", "1"},
    {"service.share_search", "1"},
    {"policy.evaluate_warm_ms", "ms"},
    {"policy.evaluate_first_ms", "ms"},
    {"policy.search_ms", "ms"},
    {"policy.evaluations", "count"},
    {"policy.batch_ms", "ms"},
    {"policy.decisions", "count"},
    {"core.solver_call_ms", "ms"},
    {"core.workspace_misses", "count"},
    {"core.workspace_hit_ratio", "1"},
    {"core.workspace_mb", "MB"},
    {"core.base_ms", "ms"},
    {"core.sum_ms", "ms"},
    {"numerics.convolve_us", "us"},
    {"numerics.fft_plan_misses", "count"},
    {"numerics.arena_mb", "MB"},
    {"dist.sample_ns", "ns"},
    {"sim.rep_us", "us"},
    {"sim.events_per_rep", "count"},
    {"util.pool_busy_frac", "1"},
    {"util.supervisor_retries", "count"},
    {"util.watchdog_cancellations", "count"},
    {"util.trace_overhead_frac", "1"},
    {"util.self_ms", "ms"},
    {"numerics.self_ms", "ms"},
    {"dist.self_ms", "ms"},
    {"core.self_ms", "ms"},
    {"sim.self_ms", "ms"},
    {"policy.self_ms", "ms"},
    {"service.self_ms", "ms"},
};

std::string json_escape(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Why this build must not report numbers, or "" when it may.
std::string build_refusal() {
#ifndef NDEBUG
  return "built without NDEBUG (assertions on)";
#endif
#ifdef PERFBENCH_SANITIZED
  return "built with a sanitizer";
#endif
#ifdef AGEDTR_LOCK_ORDER_CHECK
  return "built with AGEDTR_LOCK_ORDER_CHECK";
#endif
  return "";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload plan|simulate --seed N "
               "--seconds S --trace 0|1 --out DIR [--git-sha SHA] "
               "[--setup-samples S1,S2,...] [--setup-only 0|1]\n";
  std::exit(2);
}

std::vector<double> parse_samples(const std::string& list) {
  std::vector<double> samples;
  std::istringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) samples.push_back(std::stod(item));
  return samples;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.process_start = perfbench::Clock::now();
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      } else if (flag == "--out") {
        args.out_dir = value;
      } else if (flag == "--git-sha") {
        git_sha = value;
      } else if (flag == "--setup-only") {
        if (value != "0" && value != "1") usage("--setup-only takes 0 or 1");
        args.setup_only = value == "1";
      } else if (flag == "--setup-samples") {
        args.setup_samples = parse_samples(value);
      } else {
        usage("unknown option " + flag);
      }
    } catch (const std::exception&) {
      usage("malformed value for " + flag);
    }
  }
  if (args.out_dir.empty()) usage("--out is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");

  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::cerr << "perfbench: refusing to report numbers: " << refusal << "\n";
    return 2;
  }

  if (args.workload != "plan" && args.workload != "simulate") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!args.setup_only) {
    std::cout << "perfbench workload=" << args.workload
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << args.trace << "\n"
              << "host: nproc=" << std::thread::hardware_concurrency()
              << " cpu=\"" << cpu_model() << "\"\n"
              << "build: " << compiler() << ", " << PERFBENCH_BUILD_TYPE
              << ", git " << git_sha << "\n";
  }

  agedtr::metrics::set_enabled(args.trace && !args.setup_only);
  Outcome outcome;
  try {
    if (args.workload == "plan") {
      perfbench::run_plan(args, outcome);
    } else {
      perfbench::run_simulate(args, outcome);
    }
  } catch (const std::exception& e) {
    outcome.fail(std::string("uncaught exception: ") + e.what());
  }
  agedtr::metrics::set_enabled(false);

  if (args.setup_only) {
    for (const std::string& error : outcome.errors) {
      std::cerr << "perfbench: set-up failed: " << error << "\n";
    }
    if (!outcome.correct || outcome.metrics.size() != 1) return 1;
    std::cout << "{\"setup_s\": " << number(outcome.metrics.front().value)
              << "}" << std::endl;
    return 0;
  }

  // Lay the metrics out in the declared order: every declared metric once,
  // nothing undeclared.
  std::map<std::string, Metric> measured;
  for (const Metric& m : outcome.metrics) measured[m.name] = m;
  std::vector<Metric> reported;
  std::set<std::string> declared;
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      declared.insert(spec.name);
      const auto it = measured.find(spec.name);
      reported.push_back({spec.name, it == measured.end() ? 0.0 : it->second.value,
                          spec.unit});
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      declared.insert(spec.name);
      const auto it = measured.find(spec.name);
      if (it == measured.end()) {
        outcome.fail(std::string("end-to-end metric not measured: ") +
                     spec.name);
        continue;
      }
      reported.push_back({spec.name, it->second.value, spec.unit});
    }
  }
  for (const auto& [name, metric] : measured) {
    if (declared.count(name) == 0) {
      outcome.fail("undeclared metric reported: " + name);
    }
  }
  if (outcome.attempted == 0) outcome.fail("no operation was attempted");

  for (const std::string& line : outcome.notes) std::cout << line << "\n";
  for (const Metric& m : reported) {
    std::cout << "metric " << m.name << " = " << number(m.value) << " "
              << m.unit << "\n";
  }
  for (const std::string& error : outcome.errors) {
    std::cout << "CHECK FAILED: " << error << "\n";
  }

  std::ostringstream record;
  record << "{\"correct\": " << (outcome.correct ? "true" : "false")
         << ", \"attempted\": " << outcome.attempted
         << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t k = 0; k < reported.size(); ++k) {
    if (k > 0) record << ", ";
    record << "\"" << json_escape(reported[k].name) << "\": {\"value\": "
           << number(reported[k].value) << ", \"unit\": \""
           << json_escape(reported[k].unit) << "\"}";
  }
  record << "}}";

  // The stamped record beside the trace artifacts.
  {
    std::filesystem::create_directories(args.out_dir);
    std::ofstream stamped(args.out_dir + "/record.json");
    stamped << "{\"workload\": \"" << json_escape(args.workload)
            << "\", \"seed\": " << args.seed << ", \"seconds\": "
            << number(args.seconds) << ", \"trace\": " << args.trace
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": \"" << json_escape(cpu_model())
            << "\", \"compiler\": \"" << json_escape(compiler())
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"git_sha\": \"" << json_escape(git_sha)
            << "\", \"result\": " << record.str() << "}\n";
  }
  std::cout << record.str() << std::endl;
  return outcome.correct ? 0 : 1;
}
