#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "agedtr/util/metrics.hpp"
#include "agedtr/util/thread_pool.hpp"

namespace perfbench {

namespace metrics = agedtr::metrics;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double slow_half_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return mean(std::vector<double>(
      values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2),
      values.end()));
}

double setup_median(const Args& args, double own_seconds) {
  std::vector<double> samples = args.setup_samples;
  samples.push_back(own_seconds);
  return median(std::move(samples));
}

int passes_for(double seconds, double nominal_pass_seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / nominal_pass_seconds)));
}

bool same_policy(const agedtr::core::DtrPolicy& a,
                 const agedtr::core::DtrPolicy& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      if (i != j && a(i, j) != b(i, j)) return false;
    }
  }
  return true;
}

std::string policy_string(const agedtr::core::DtrPolicy& p) {
  std::string out;
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (std::size_t j = 0; j < p.size(); ++j) {
      if (i != j && p(i, j) > 0) {
        if (!out.empty()) out += " ";
        out += std::to_string(i + 1) + ">" + std::to_string(j + 1) + ":" +
               std::to_string(p(i, j));
      }
    }
  }
  return out.empty() ? "(none)" : out;
}

namespace {

double counter_value(const char* name) {
  const metrics::Counter* c =
      metrics::MetricsRegistry::global().find_counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

metrics::HistogramSnapshot histogram_value(const char* name) {
  const metrics::Histogram* h =
      metrics::MetricsRegistry::global().find_histogram(name);
  return h == nullptr ? metrics::HistogramSnapshot{} : h->snapshot();
}

/// The seven modules of docs/layering.toml that the benchmark breaks
/// wall time down by, bottom to top.
const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "util", "numerics", "dist", "core", "sim", "policy", "service"};
  return names;
}

/// Module of one span: the benchmark's spans name it as their category;
/// the program's own spans use their subsystem's category.
std::string layer_of(const metrics::TraceEvent& event) {
  const std::string category = event.category;
  for (const std::string& layer : layer_names()) {
    if (category == layer) return layer;
  }
  if (category == "engine") return "policy";
  if (category == "solver") return "core";
  if (category == "io") return "util";
  return "util";
}

}  // namespace

CounterSnapshot read_counters() {
  CounterSnapshot s;
  s.evaluations = counter_value("engine.evaluations_total");
  const metrics::HistogramSnapshot batch =
      histogram_value("engine.batch_seconds");
  s.batch_count = static_cast<double>(batch.count);
  s.batch_sum = batch.sum;
  const metrics::HistogramSnapshot solver =
      histogram_value("convolution.call_seconds");
  s.solver_count = static_cast<double>(solver.count);
  s.solver_sum = solver.sum;
  s.workspace_hits = counter_value("workspace.hits_total");
  s.workspace_misses = counter_value("workspace.misses_total");
  s.plan_misses = counter_value("fft.plan_miss");
  const metrics::Gauge* arena =
      metrics::MetricsRegistry::global().find_gauge("workspace.arena_bytes");
  s.arena_bytes = arena == nullptr ? 0.0 : arena->value();
  s.pool_task_sum = histogram_value("threadpool.task_seconds").sum;
  s.retries = counter_value("supervisor.retries_total");
  s.cancellations = counter_value("supervisor.watchdog_cancellations_total");
  return s;
}

void add_counter_metrics(const CounterSnapshot& before,
                         const CounterSnapshot& after, double wall_seconds,
                         Outcome& out) {
  const auto mean_ms = [](double sum, double count) {
    return sum / std::max(count, 1.0) * 1e3;
  };
  out.add("policy.evaluations", after.evaluations - before.evaluations,
          "count");
  out.add("policy.batch_ms",
          mean_ms(after.batch_sum - before.batch_sum,
                  after.batch_count - before.batch_count),
          "ms");
  out.add("core.solver_call_ms",
          mean_ms(after.solver_sum - before.solver_sum,
                  after.solver_count - before.solver_count),
          "ms");
  out.add("numerics.fft_plan_misses", after.plan_misses - before.plan_misses,
          "count");
  out.add("numerics.arena_mb", after.arena_bytes / 1048576.0, "MB");
  out.add("util.pool_busy_frac",
          (after.pool_task_sum - before.pool_task_sum) /
              (wall_seconds *
               static_cast<double>(agedtr::ThreadPool::global().size())),
          "1");
  out.add("util.supervisor_retries", after.retries - before.retries, "count");
  out.add("util.watchdog_cancellations",
          after.cancellations - before.cancellations, "count");
}

TraceSummary analyze_trace() {
  TraceSummary summary;
  metrics::TraceRing& ring = metrics::MetricsRegistry::global().trace();
  summary.recorded = ring.recorded();
  summary.capacity = ring.capacity();
  std::vector<metrics::TraceEvent> events = ring.drain();

  std::map<std::string, LayerRow> rows;
  for (const std::string& layer : layer_names()) rows[layer].layer = layer;

  // Group by thread; within a thread spans nest properly (RAII scopes), so
  // a stack of open spans finds each span's direct parent. A span's start
  // and duration are rounded down to whole microseconds separately, so a
  // span may seem to end up to 1 us after the next one on its thread
  // starts; a span that starts in the last microsecond of the open one is
  // taken as its successor, not its child.
  constexpr std::uint64_t kRoundingUs = 1;
  const auto end_of = [](const metrics::TraceEvent& e) {
    return e.start_us + e.duration_us;
  };
  std::map<std::uint32_t, std::vector<const metrics::TraceEvent*>> by_thread;
  for (const metrics::TraceEvent& e : events) by_thread[e.thread].push_back(&e);
  summary.threads = by_thread.size();

  for (auto& [thread, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(),
              [](const metrics::TraceEvent* a, const metrics::TraceEvent* b) {
                if (a->start_us != b->start_us) return a->start_us < b->start_us;
                return a->duration_us > b->duration_us;
              });
    std::vector<std::uint64_t> covered(spans.size(), 0);
    std::vector<std::size_t> open;
    std::uint64_t inside_us = 0;  // union of the thread's spans
    std::uint64_t reach = 0;      // end of that union so far
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const metrics::TraceEvent& e = *spans[k];
      if (end_of(e) > reach) {
        inside_us += end_of(e) - std::max(e.start_us, reach);
        reach = end_of(e);
      }
      while (!open.empty() &&
             end_of(*spans[open.back()]) <= e.start_us + kRoundingUs) {
        open.pop_back();
      }
      if (!open.empty()) {
        const std::uint64_t end =
            std::min(end_of(e), end_of(*spans[open.back()]));
        covered[open.back()] += end - e.start_us;
      }
      open.push_back(k);
    }
    double thread_self_us = 0.0;
    for (std::size_t k = 0; k < spans.size(); ++k) {
      LayerRow& row = rows[layer_of(*spans[k])];
      const std::uint64_t duration = spans[k]->duration_us;
      const auto self_us =
          static_cast<double>(duration - std::min(duration, covered[k]));
      ++row.spans;
      row.total_ms += static_cast<double>(duration) / 1e3;
      row.self_ms += self_us / 1e3;
      thread_self_us += self_us;
    }
    // Self times partition the time the thread spent inside spans; a gap
    // beyond the rounding allowance means some time was counted twice or
    // not at all.
    const double gap_us =
        std::abs(thread_self_us - static_cast<double>(inside_us));
    if (gap_us > static_cast<double>(kRoundingUs * spans.size())) {
      ++summary.misattributed_threads;
      summary.worst_gap_ms = std::max(summary.worst_gap_ms, gap_us / 1e3);
    }
  }
  for (const std::string& layer : layer_names()) {
    summary.layers.push_back(rows[layer]);
    summary.self_ms_total += rows[layer].self_ms;
  }
  return summary;
}

void finish_trace(const TraceSummary& summary, double wall_seconds,
                  std::size_t max_threads, const std::string& dir,
                  Outcome& out) {
  std::filesystem::create_directories(dir);
  {
    std::ofstream trace(dir + "/trace.json");
    trace << metrics::MetricsRegistry::global().chrome_trace_json();
  }
  {
    std::ofstream table(dir + "/layers.tsv");
    table << "layer\tspans\ttotal_ms\tself_ms\n";
    for (const LayerRow& row : summary.layers) {
      table << row.layer << "\t" << row.spans << "\t" << row.total_ms << "\t"
            << row.self_ms << "\n";
    }
  }
  std::ostringstream head;
  head << "per-layer self time (" << summary.recorded << " spans, "
       << summary.threads << " threads, wall " << wall_seconds << " s):";
  out.note(head.str());
  for (const LayerRow& row : summary.layers) {
    std::ostringstream line;
    line << "  " << row.layer << ": " << row.spans << " spans, self "
         << row.self_ms << " ms of " << row.total_ms << " ms";
    out.note(line.str());
    out.add(row.layer + ".self_ms", row.self_ms, "ms");
  }
  out.check(summary.recorded <= summary.capacity,
            "trace ring wrapped: " + std::to_string(summary.recorded) +
                " spans recorded, capacity " +
                std::to_string(summary.capacity));
  out.check(summary.misattributed_threads == 0,
            std::to_string(summary.misattributed_threads) +
                " threads' self times differ from their time inside spans "
                "by up to " +
                std::to_string(summary.worst_gap_ms) + " ms");
  const double budget_ms =
      wall_seconds * 1e3 * static_cast<double>(max_threads);
  out.check(summary.self_ms_total <= budget_ms,
            "layer self times (" + std::to_string(summary.self_ms_total) +
                " ms) exceed wall x " + std::to_string(max_threads) +
                " threads (" + std::to_string(budget_ms) + " ms)");
}

}  // namespace perfbench
