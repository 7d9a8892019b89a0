// Shared plumbing of the perfbench workloads: the run's arguments, the
// outcome every workload fills in, seeded input helpers, latency
// statistics, process memory, and the per-layer trace analysis.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "agedtr/core/scenario.hpp"
#include "agedtr/random/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop after the set-up and report only its duration.
  bool setup_only = false;
  /// Set-up durations (s) of earlier set-up-only processes of this workload.
  std::vector<double> setup_samples;
  /// Directory for the record, the chrome trace and the per-layer table.
  std::string out_dir;
  /// Time main() was entered: the origin of the set-up.
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics
/// of an untraced run or the per-layer metrics of a traced one; `notes`
/// are extra human-readable lines (per-phase figures, step checks).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Fails the run when `ok` is false; returns `ok`.
  bool check(bool ok, const std::string& what) {
    if (!ok) fail(what);
    return ok;
  }
};

// ---- seeded inputs --------------------------------------------------------

/// Deterministic input stream: the same seed gives the same inputs on every
/// platform (no std distributions, whose algorithms are unspecified).
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : rng_(seed) {}
  [[nodiscard]] double uniform() { return rng_.next_double(); }
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }
  /// Integer in [lo, hi].
  [[nodiscard]] int integer(int lo, int hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<int>(rng_() % span);
  }

 private:
  agedtr::random::Rng rng_;
};

// ---- statistics -----------------------------------------------------------

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);
[[nodiscard]] double max_of(const std::vector<double>& values);
/// Mean of the slower half of one pass's timings (the middle one counts
/// when their number is odd).
[[nodiscard]] double slow_half_mean(std::vector<double> values);

/// The `setup_s` a workload reports: the median of this process's set-up
/// (process start to the first timed operation) and `args.setup_samples`.
[[nodiscard]] double setup_median(const Args& args, double own_seconds);

/// Number of measured passes for a run of `seconds`: a pass is sized to take
/// about `nominal_pass_seconds` on the reference host. It depends only on
/// the arguments, so the amount of work, and every statistic over it, stays
/// the same when the code under test gets faster or slower.
[[nodiscard]] int passes_for(double seconds, double nominal_pass_seconds);

/// Process high-water resident memory (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

// ---- shared scenario helpers ----------------------------------------------

[[nodiscard]] bool same_policy(const agedtr::core::DtrPolicy& a,
                               const agedtr::core::DtrPolicy& b);
[[nodiscard]] std::string policy_string(const agedtr::core::DtrPolicy& p);

// ---- tracing --------------------------------------------------------------

/// The program's metric counters a traced run reads before and after its
/// measured work.
struct CounterSnapshot {
  double evaluations = 0;         // engine.evaluations_total
  double batch_count = 0;         // engine.batch_seconds count
  double batch_sum = 0;           // engine.batch_seconds sum
  double solver_count = 0;        // convolution.call_seconds count
  double solver_sum = 0;          // convolution.call_seconds sum
  double workspace_hits = 0;      // workspace.hits_total
  double workspace_misses = 0;    // workspace.misses_total
  double plan_misses = 0;         // fft.plan_miss
  double arena_bytes = 0;         // workspace.arena_bytes
  double pool_task_sum = 0;       // threadpool.task_seconds sum
  double retries = 0;             // supervisor.retries_total
  double cancellations = 0;       // supervisor.watchdog_cancellations_total
};

[[nodiscard]] CounterSnapshot read_counters();

/// Adds the per-layer metrics every workload derives from the counters the
/// same way: engine evaluations and batch time, solver call time, FFT plan
/// misses, scratch arena, pool busy share over `wall_seconds`, supervisor
/// retries and watchdog cancellations.
void add_counter_metrics(const CounterSnapshot& before,
                         const CounterSnapshot& after, double wall_seconds,
                         Outcome& out);

/// Per-layer self time of the trace ring, as computed by analyze_trace().
struct LayerRow {
  std::string layer;
  std::uint64_t spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

struct TraceSummary {
  std::vector<LayerRow> layers;  // the seven modules, in layering order
  std::uint64_t recorded = 0;
  std::uint64_t capacity = 0;
  std::size_t threads = 0;
  double self_ms_total = 0.0;
  /// Threads whose self times do not add up to the union of their spans
  /// (within 1 us per span of timestamp rounding), with the worst gap.
  std::size_t misattributed_threads = 0;
  double worst_gap_ms = 0.0;
};

/// Drains the global trace ring and attributes every span to a module: the
/// benchmark's own spans carry the module as their category, the program's
/// spans are mapped by category (engine -> policy, solver -> core, sim ->
/// sim, io -> util). Self time is a span's duration minus the part of it
/// covered by its direct children on the same thread.
[[nodiscard]] TraceSummary analyze_trace();

/// Writes the chrome trace and the per-layer table into `dir`, checks the
/// trace invariants (the ring did not wrap; each thread's self times add up
/// to the time it spent inside spans; all self times fit in wall x
/// `max_threads`, the threads the run may have inside spans at once) and
/// adds `<layer>.self_ms` metrics to `out`.
void finish_trace(const TraceSummary& summary, double wall_seconds,
                  std::size_t max_threads, const std::string& dir,
                  Outcome& out);

// ---- workloads ------------------------------------------------------------

void run_plan(const Args& args, Outcome& out);
void run_simulate(const Args& args, Outcome& out);
/// Threads besides the global pool that the service probe may have inside
/// spans at once: the caller, the generator and the daemon's dispatcher.
inline constexpr std::size_t kProbeThreads = 3;
/// The service layer's per-layer numbers, measured inside a traced run:
/// agedtrd in process, warmed up, then a short seeded open loop with its
/// output checks.
void probe_service(const Args& args, Outcome& out);

}  // namespace perfbench
