// The `simulate` workload: Monte-Carlo studies of the Table II five-server
// system, failures off and on, for every model family, on the global pool,
// each under the policy Table II reports for it. Only the study seed comes
// from the run seed, so every seed simulates the same policies. No lattice
// is built: the simulator event loop, law sampling and the RNG do the work,
// so a lattice, engine or service change should leave this workload's
// numbers unchanged.
//
// Check: every cell's estimates are bit-identical on the global pool and on
// a pool of another size.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "agedtr/dist/builders.hpp"
#include "agedtr/sim/monte_carlo.hpp"
#include "agedtr/sim/simulator.hpp"
#include "agedtr/util/metrics.hpp"
#include "agedtr/util/thread_pool.hpp"
#include "common.hpp"
#include "paper_setup.hpp"

namespace perfbench {

namespace {

using agedtr::ThreadPool;
using agedtr::dist::ModelFamily;
namespace metrics = agedtr::metrics;
namespace sim = agedtr::sim;

constexpr std::size_t kReplications = 20000;  // per cell
constexpr std::size_t kCheckReplications = 2000;
/// Seconds a pass (the cold cell plus the ten cells) takes on a 4-vCPU
/// Xeon; sets the number of passes of a run.
constexpr double kPassSeconds = 2.0;

/// The Table II policies: Algorithm 1 (32768 cells, four iterations) on the
/// five-server system, devised for the mean execution time on reliable
/// servers and for the service reliability with failures, written as
/// bench/table2_multiserver prints them ("i>j:L" sends L tasks from server
/// i to server j).
struct TableIIPolicy {
  ModelFamily family;
  bool failures;
  const char* moves;
};

constexpr TableIIPolicy kTableII[] = {
    {ModelFamily::kExponential, false, "1>4:4 1>5:4 2>4:3 2>5:3 3>5:2"},
    {ModelFamily::kExponential, true, ""},
    {ModelFamily::kPareto1, false, "1>4:4 1>5:5 2>4:4 2>5:4 3>5:3"},
    {ModelFamily::kPareto1, true, ""},
    {ModelFamily::kPareto2, false, "1>4:2 1>5:2 2>5:1"},
    {ModelFamily::kPareto2, true, ""},
    {ModelFamily::kShiftedExponential, false, "1>4:5 1>5:5 2>4:4 2>5:4 3>5:3"},
    {ModelFamily::kShiftedExponential, true, ""},
    {ModelFamily::kUniform, false, "1>4:4 1>5:5 2>4:4 2>5:4 3>5:3"},
    {ModelFamily::kUniform, true, "1>5:1 2>5:1 3>5:1"},
};

agedtr::core::DtrPolicy parse_policy(const char* moves) {
  agedtr::core::DtrPolicy policy(5);
  std::istringstream in(moves);
  std::string move;
  while (in >> move) {
    int from = 0;
    int to = 0;
    int tasks = 0;
    if (std::sscanf(move.c_str(), "%d>%d:%d", &from, &to, &tasks) != 3) {
      throw std::logic_error("malformed Table II move " + move);
    }
    policy.set(static_cast<std::size_t>(from - 1),
               static_cast<std::size_t>(to - 1), tasks);
  }
  return policy;
}

struct Cell {
  std::string name;
  agedtr::core::DcsScenario scenario;
  agedtr::core::DtrPolicy policy{5};
};

std::vector<Cell> make_cells() {
  std::vector<Cell> cells;
  for (const TableIIPolicy& entry : kTableII) {
    Cell cell;
    cell.name = agedtr::dist::model_family_name(entry.family) +
                (entry.failures ? " failures" : " reliable");
    cell.scenario =
        agedtr::bench::five_server_scenario(entry.family, entry.failures);
    cell.policy = parse_policy(entry.moves);
    cells.push_back(std::move(cell));
  }
  return cells;
}

sim::MonteCarloOptions study_options(std::uint64_t seed, std::size_t reps,
                                     ThreadPool& pool) {
  sim::MonteCarloOptions options;
  options.replications = reps;
  options.seed = seed;
  options.pool = &pool;
  return options;
}

sim::MonteCarloMetrics run_cell(const Cell& cell,
                                const sim::MonteCarloOptions& options) {
  metrics::TraceSpan span("sim.run_monte_carlo", "sim");
  return sim::run_monte_carlo(cell.scenario, cell.policy, options);
}

bool same_estimates(const sim::MonteCarloMetrics& a,
                    const sim::MonteCarloMetrics& b) {
  return a.completed == b.completed && a.truncated == b.truncated &&
         a.mean_completion_time.center == b.mean_completion_time.center &&
         a.reliability.center == b.reliability.center &&
         a.mean_busy_time == b.mean_busy_time;
}

/// One-thread probes of the layers under the study: law sampling and one
/// simulator replication.
void probe_layers(const std::vector<Cell>& cells, std::uint64_t seed,
                  Outcome& out) {
  std::vector<double> sample_ns;
  agedtr::random::Rng rng(seed);
  for (const Cell& cell : cells) {
    for (const agedtr::core::ServerSpec& server : cell.scenario.servers) {
      constexpr int kDraws = 20000;
      double sink = 0.0;
      const Clock::time_point t0 = Clock::now();
      {
        metrics::TraceSpan span("dist.sample", "dist");
        for (int d = 0; d < kDraws; ++d) sink += server.service->sample(rng);
      }
      sample_ns.push_back(seconds_since(t0) * 1e9 / kDraws);
      out.check(sink > 0.0, cell.name + ": service law sampled nothing");
    }
  }
  std::vector<double> rep_us;
  std::vector<double> events;
  for (const Cell& cell : cells) {
    const sim::DcsSimulator simulator(cell.scenario);
    constexpr std::uint64_t kReps = 400;
    double event_total = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t r = 0; r < kReps; ++r) {
      agedtr::random::Rng stream = agedtr::random::make_replication_rng(seed, r);
      metrics::TraceSpan span("sim.simulator_run", "sim");
      event_total += static_cast<double>(
          simulator.run(cell.policy, stream).events_processed);
    }
    rep_us.push_back(seconds_since(t0) * 1e6 / kReps);
    events.push_back(event_total / kReps);
  }
  out.add("dist.sample_ns", median(sample_ns), "ns");
  out.add("sim.rep_us", median(rep_us), "us");
  out.add("sim.events_per_rep", mean(events), "count");
}

}  // namespace

void run_simulate(const Args& args, Outcome& out) {
  ThreadPool& pool = ThreadPool::global();
  const std::uint64_t study_seed = args.seed * 0x9e3779b97f4a7c15ULL + 1;

  // ---- set-up: pool spin-up, inputs, one warm-up cell -------------------
  (void)pool.size();
  const std::vector<Cell> cells = make_cells();
  (void)run_cell(cells.front(),
                 study_options(study_seed + 1, kReplications, pool));
  const double setup_s = seconds_since(args.process_start);
  if (args.setup_only) {
    out.add("setup_s", setup_s, "s");
    return;
  }

  // ---- measured passes over every cell, each the same study. Each pass is
  // preceded by the first cell on a freshly started pool (thread start-up
  // and cold thread-local state: the cold path of a study). ---------------
  const CounterSnapshot before = read_counters();
  const Clock::time_point measured = Clock::now();
  std::vector<double> cold_ms;
  std::vector<double> cell_ms;
  std::vector<double> pass_ms;
  std::vector<double> pass_tails;  // slow-half mean of each pass's cells
  std::vector<sim::MonteCarloMetrics> first_pass;
  const int passes = passes_for(args.seconds, kPassSeconds);
  const sim::MonteCarloOptions study =
      study_options(study_seed, kReplications, pool);
  for (int pass = 0; pass < passes; ++pass) {
    {
      const Clock::time_point t0 = Clock::now();
      ThreadPool fresh(pool.size());
      const sim::MonteCarloMetrics m = run_cell(
          cells.front(), study_options(study_seed, kReplications, fresh));
      cold_ms.push_back(seconds_since(t0) * 1e3);
      out.attempted += m.replications;
      out.failed += m.truncated;
    }
    const Clock::time_point pass_start = Clock::now();
    std::vector<double> this_pass;
    for (const Cell& cell : cells) {
      const Clock::time_point t0 = Clock::now();
      const sim::MonteCarloMetrics m = run_cell(cell, study);
      this_pass.push_back(seconds_since(t0) * 1e3);
      out.attempted += m.replications;
      out.failed += m.truncated;
      out.check(m.replications == kReplications,
                cell.name + ": " + std::to_string(m.replications) +
                    " replications run, expected " +
                    std::to_string(kReplications));
      if (pass == 0) first_pass.push_back(m);
    }
    pass_ms.push_back(seconds_since(pass_start) * 1e3);
    pass_tails.push_back(slow_half_mean(this_pass));
    cell_ms.insert(cell_ms.end(), this_pass.begin(), this_pass.end());
  }
  const double reps_per_s =
      static_cast<double>(static_cast<std::size_t>(passes) * cells.size() *
                          kReplications) /
      (mean(pass_ms) * static_cast<double>(passes) / 1e3);
  out.note("simulate.reps_per_s = " + std::to_string(reps_per_s) + " over " +
           std::to_string(passes) + " passes of " +
           std::to_string(cells.size()) + " cells");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    out.note("  " + cells[c].name + ": policy " +
             policy_string(cells[c].policy) + ", mean T " +
             std::to_string(first_pass[c].mean_completion_time.center) +
             ", R " + std::to_string(first_pass[c].reliability.center));
  }

  // ---- check: the estimates do not depend on the pool size --------------
  {
    ThreadPool other(pool.size() == 1 ? 2 : 1);
    for (const Cell& cell : cells) {
      const auto wide =
          run_cell(cell, study_options(study_seed, kCheckReplications, pool));
      const auto narrow =
          run_cell(cell, study_options(study_seed, kCheckReplications, other));
      out.check(same_estimates(wide, narrow),
                cell.name + ": estimates differ between a " +
                    std::to_string(pool.size()) + "-thread and a " +
                    std::to_string(other.size()) + "-thread pool");
    }
  }

  if (!args.trace) {
    out.add("setup_s", setup_median(args, setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("warm_ms", median(cell_ms), "ms");
    out.add("cold_ms", median(cold_ms), "ms");
    out.add("tail_ms", median(pass_tails), "ms");
    out.add("batch_ms", median(pass_ms), "ms");
    out.add("rate_per_s", reps_per_s, "1/s");
    out.add("ok_frac",
            1.0 - static_cast<double>(out.failed) /
                      static_cast<double>(out.attempted),
            "1");
    return;
  }

  probe_layers(cells, args.seed, out);
  const CounterSnapshot after = read_counters();
  const double traced_wall = seconds_since(measured);
  add_counter_metrics(before, after, traced_wall, out);
  // Spans come from the calling thread and at most one pool's workers.
  finish_trace(analyze_trace(), seconds_since(args.process_start),
               pool.size() + 1, args.out_dir, out);

  // Tracing overhead: one pass over the cells with the metrics layer off,
  // then on.
  const auto timed_pass = [&] {
    const Clock::time_point t0 = Clock::now();
    for (const Cell& cell : cells) {
      (void)run_cell(cell, study_options(study_seed, kReplications, pool));
    }
    return seconds_since(t0);
  };
  metrics::set_enabled(false);
  const double untraced = timed_pass();
  metrics::set_enabled(true);
  const double traced = timed_pass();
  out.add("util.trace_overhead_frac", traced / untraced - 1.0, "1");
}

}  // namespace perfbench
