// The `plan` workload: the paper's Table II planning problem.
//
// Algorithm 1 devises a policy for the five-server system (mean objective,
// 32768-cell lattices, the global pool) for every model family, under the
// age-dependent and the Markovian model. Each devise first runs on an empty
// LatticeWorkspace (cold: discretization and k-fold FFT ladders dominate)
// and then again on the workspace it filled (warm: pool-parallel engine
// batches reading cached lattices); only one workspace is alive at a time.
// Then the CRN PolicyComparer demo grid runs, whose rolling Algorithm 1
// re-decides on re-seeded aged laws the workspace sees only once. The
// Table II system and the comparer grid are fixed by the paper and by the
// pinned golden, so this workload's inputs do not depend on the seed (a
// seeded devise order would move the first devise's process-cold cost
// between families); the seed drives only the traced run's service probe.
//
// Checks: cold and warm devises return identical policies, and the comparer
// rankings match tests/golden/comparer_rankings.csv at rtol 1e-9.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "agedtr/core/lattice_workspace.hpp"
#include "agedtr/dist/builders.hpp"
#include "agedtr/numerics/lattice.hpp"
#include "agedtr/policy/algorithm1.hpp"
#include "agedtr/policy/policy_comparer.hpp"
#include "agedtr/util/metrics.hpp"
#include "agedtr/util/strings.hpp"
#include "agedtr/util/thread_pool.hpp"
#include "common.hpp"
#include "paper_setup.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#ifndef PERFBENCH_GOLDEN_CSV
#error "PERFBENCH_GOLDEN_CSV must name tests/golden/comparer_rankings.csv"
#endif

namespace perfbench {

namespace {

using agedtr::ThreadPool;
using agedtr::core::LatticeWorkspace;
using agedtr::dist::ModelFamily;
namespace metrics = agedtr::metrics;
namespace policy = agedtr::policy;

constexpr std::size_t kCells = std::size_t{1} << 15;  // table2_multiserver's
constexpr int kCompareRuns = 3;
/// Seconds a pass (ten cold and ten warm devises, kCompareRuns comparer
/// grids) takes on a 4-vCPU Xeon; sets the number of passes of a run.
constexpr double kPassSeconds = 36.0;

struct DeviseCase {
  ModelFamily family;
  bool markovian;
  agedtr::core::DcsScenario scenario;
};

policy::Algorithm1Options devise_options(
    bool markovian, std::shared_ptr<LatticeWorkspace> workspace) {
  policy::Algorithm1Options options;
  options.objective = policy::Objective::kMeanExecutionTime;
  options.max_iterations = 4;
  options.conv.cells = kCells;
  options.pool = &ThreadPool::global();
  options.markovian = markovian;
  options.workspace = std::move(workspace);
  return options;
}

using CsvRows = std::vector<std::vector<std::string>>;

CsvRows parse_csv(std::istream& in) {
  CsvRows rows;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) rows.push_back(agedtr::split(line, ','));
  }
  return rows;
}

/// Cells that parse as numbers agree at rtol 1e-9 (1e-12 absolute);
/// everything else exactly. Returns the mismatching data rows.
std::vector<std::string> csv_mismatches(const CsvRows& expected,
                                        const CsvRows& actual) {
  std::vector<std::string> bad;
  if (expected.size() != actual.size()) {
    bad.push_back("row count " + std::to_string(actual.size()) +
                  " vs pinned " + std::to_string(expected.size()));
    return bad;
  }
  for (std::size_t r = 0; r < expected.size(); ++r) {
    bool same = expected[r].size() == actual[r].size();
    for (std::size_t c = 0; same && c < expected[r].size(); ++c) {
      const std::string& e = expected[r][c];
      const std::string& a = actual[r][c];
      if (e == a) continue;
      char* e_end = nullptr;
      char* a_end = nullptr;
      const double ev = std::strtod(e.c_str(), &e_end);
      const double av = std::strtod(a.c_str(), &a_end);
      const bool numeric = e_end != e.c_str() && *e_end == '\0' &&
                           a_end != a.c_str() && *a_end == '\0';
      same = numeric && std::abs(ev - av) <=
                            1e-9 * std::max(std::abs(ev), std::abs(av)) + 1e-12;
    }
    if (!same) {
      const std::string cell = actual[r].size() >= 2
                                   ? actual[r][0] + "/" + actual[r][1]
                                   : "row " + std::to_string(r);
      bad.push_back(cell);
    }
  }
  return bad;
}

/// Builds the FFT plans the 32768-cell grids use, so the timed phases start
/// with a warm plan cache (the plans are process-wide and immortal).
void warm_fft_plans() {
  std::vector<double> mass(kCells, 0.0);
  for (std::size_t i = 0; i < kCells; ++i) {
    mass[i] = std::exp(-static_cast<double>(i) / 512.0);
  }
  double total = 0.0;
  for (const double m : mass) total += m;
  for (double& m : mass) m /= total * 1.0000001;
  const agedtr::numerics::LatticeDensity density(0.01, std::move(mass), 0.0);
  (void)density.convolve(density);
}

/// One devise inside a span named `span_name`; appends its wall time (ms).
policy::Algorithm1Result timed_devise(const policy::Algorithm1& algorithm,
                                      const agedtr::core::DcsScenario& scenario,
                                      const char* span_name,
                                      std::vector<double>& ms) {
  const Clock::time_point t0 = Clock::now();
  metrics::TraceSpan span(span_name, "policy");
  policy::Algorithm1Result result = algorithm.devise(scenario);
  ms.push_back(seconds_since(t0) * 1e3);
  return result;
}

struct PlanInputs {
  std::vector<DeviseCase> cases;
  CsvRows golden;
};

PlanInputs make_inputs() {
  PlanInputs inputs;
  for (const ModelFamily family : agedtr::dist::all_model_families()) {
    for (const bool markovian : {false, true}) {
      inputs.cases.push_back(
          {family, markovian,
           agedtr::bench::five_server_scenario(family, /*failures=*/false)});
    }
  }
  std::ifstream golden(PERFBENCH_GOLDEN_CSV);
  inputs.golden = parse_csv(golden);
  return inputs;
}

std::string case_name(const DeviseCase& c) {
  return agedtr::dist::model_family_name(c.family) +
         (c.markovian ? " (Markovian)" : "");
}

/// Probes of the lattice layers on a fresh workspace, for the Table II
/// service laws and per-server task count: base discretization, the
/// 40-fold sum, and one grid-sized FFT convolution.
void probe_lattices(const std::vector<DeviseCase>& cases, Outcome& out) {
  const double dt = 2.0 * 40.0 * 5.0 / static_cast<double>(kCells);
  LatticeWorkspace workspace;
  std::vector<double> base_ms;
  std::vector<double> sum_ms;
  std::vector<double> convolve_us;
  for (const DeviseCase& c : cases) {
    if (c.markovian) continue;
    for (const agedtr::core::ServerSpec& server : c.scenario.servers) {
      Clock::time_point t0 = Clock::now();
      {
        metrics::TraceSpan span("core.workspace_base", "core");
        (void)workspace.base(server.service, dt, kCells);
      }
      base_ms.push_back(seconds_since(t0) * 1e3);
      t0 = Clock::now();
      {
        metrics::TraceSpan span("core.workspace_sum", "core");
        (void)workspace.sum(server.service,
                            static_cast<unsigned>(server.initial_tasks), dt,
                            kCells);
      }
      sum_ms.push_back(seconds_since(t0) * 1e3);
    }
    const agedtr::numerics::LatticeDensity& a =
        workspace.base(c.scenario.servers[0].service, dt, kCells);
    const agedtr::numerics::LatticeDensity& b =
        workspace.base(c.scenario.servers[4].service, dt, kCells);
    const Clock::time_point t0 = Clock::now();
    {
      metrics::TraceSpan span("numerics.convolve", "numerics");
      (void)a.convolve(b);
    }
    convolve_us.push_back(seconds_since(t0) * 1e6);
  }
  out.add("core.base_ms", median(base_ms), "ms");
  out.add("core.sum_ms", median(sum_ms), "ms");
  out.add("numerics.convolve_us", median(convolve_us), "us");
}

}  // namespace

void run_plan(const Args& args, Outcome& out) {
  // ---- set-up: pool spin-up, inputs, the FFT plans ---------------------
  (void)ThreadPool::global().size();
  const PlanInputs inputs = make_inputs();
  warm_fft_plans();
  const double setup_s = seconds_since(args.process_start);
  if (!out.check(inputs.golden.size() > 1,
                 std::string("cannot read the pinned rankings ") +
                     PERFBENCH_GOLDEN_CSV)) {
    return;
  }
  if (args.setup_only) {
    out.add("setup_s", setup_s, "s");
    return;
  }

  // ---- measured passes -------------------------------------------------
  const CounterSnapshot before = read_counters();
  const Clock::time_point measured = Clock::now();
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  std::vector<double> compare_ms;
  std::vector<double> pass_tails;  // slow-half mean of each pass's cold devises
  std::uint64_t workspace_hits = 0;
  std::uint64_t workspace_misses = 0;
  std::vector<double> workspace_mb;
  double decisions = 0.0;
  const int passes = passes_for(args.seconds, kPassSeconds);
  for (int pass = 0; pass < passes; ++pass) {
    for (const DeviseCase& c : inputs.cases) {
      // The previous family's workspace is gone: hand its pages back to the
      // system, so peak memory is one family's workspace rather than what
      // the allocator's per-thread arenas happened to keep from earlier
      // ones, and each cold devise faults its lattices in as a fresh
      // process would.
#if defined(__GLIBC__)
      malloc_trim(0);
#endif
      auto workspace = std::make_shared<LatticeWorkspace>();
      const policy::Algorithm1 algorithm(
          devise_options(c.markovian, workspace));
      const policy::Algorithm1Result cold =
          timed_devise(algorithm, c.scenario, "policy.devise_cold", cold_ms);
      const agedtr::core::WorkspaceStats cold_stats = workspace->stats();
      const policy::Algorithm1Result warm =
          timed_devise(algorithm, c.scenario, "policy.devise_warm", warm_ms);
      const agedtr::core::WorkspaceStats all_stats = workspace->stats();
      workspace_hits += all_stats.hits();
      workspace_misses += all_stats.misses();
      workspace_mb.push_back(static_cast<double>(all_stats.bytes) / 1048576.0);
      out.attempted += 2;
      if (!out.check(same_policy(cold.policy, warm.policy),
                     case_name(c) + ": warm devise " +
                         policy_string(warm.policy) + " differs from cold " +
                         policy_string(cold.policy))) {
        ++out.failed;
      }
      if (pass == 0) {
        out.note("  " + case_name(c) + ": " + policy_string(cold.policy) +
                 "; cold " + std::to_string(cold_ms.back()) + " ms, " +
                 std::to_string(cold_stats.misses()) + " misses; warm " +
                 std::to_string(warm_ms.back()) + " ms, " +
                 std::to_string(all_stats.misses() - cold_stats.misses()) +
                 " misses");
      }
    }
    pass_tails.push_back(slow_half_mean(std::vector<double>(
        cold_ms.end() - static_cast<std::ptrdiff_t>(inputs.cases.size()),
        cold_ms.end())));

    // The comparer grid is short, so it runs kCompareRuns times a pass and
    // reports the median.
    for (int r = 0; r < kCompareRuns; ++r) {
      policy::ComparerDemoGrid grid = policy::make_comparer_demo_grid();
      grid.options.pool = &ThreadPool::global();
      const Clock::time_point t0 = Clock::now();
      std::vector<policy::PolicyAssessment> assessments;
      {
        metrics::TraceSpan span("policy.compare", "policy");
        assessments =
            policy::PolicyComparer(grid.scenarios, grid.policies, grid.options)
                .compare();
      }
      compare_ms.push_back(seconds_since(t0) * 1e3);
      for (const policy::PolicyAssessment& a : assessments) {
        decisions += static_cast<double>(a.epochs_fired);
      }
      std::ostringstream csv;
      policy::PolicyComparer::to_table(assessments).write_csv(csv);
      std::istringstream csv_in(csv.str());
      const std::vector<std::string> bad =
          csv_mismatches(inputs.golden, parse_csv(csv_in));
      out.attempted += assessments.size();
      out.failed += bad.size();
      for (const std::string& cell : bad) {
        out.fail("comparer cell " + cell + " drifted from " +
                 std::string(PERFBENCH_GOLDEN_CSV));
      }
    }
  }
  // Per-phase figures: seconds per Table II pass of ten devises.
  const double per_pass = static_cast<double>(inputs.cases.size()) / 1e3;
  out.note("plan.devise_cold_s = " + std::to_string(mean(cold_ms) * per_pass));
  out.note("plan.devise_warm_s = " + std::to_string(mean(warm_ms) * per_pass));
  out.note("plan.compare_s = " + std::to_string(median(compare_ms) / 1e3));
  const double devises = static_cast<double>(cold_ms.size() + warm_ms.size());
  const double devise_seconds =
      (mean(cold_ms) + mean(warm_ms)) * static_cast<double>(cold_ms.size()) /
      1e3;

  if (!args.trace) {
    out.add("setup_s", setup_median(args, setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("warm_ms", mean(warm_ms), "ms");
    out.add("cold_ms", mean(cold_ms), "ms");
    out.add("tail_ms", median(pass_tails), "ms");
    out.add("batch_ms", median(compare_ms), "ms");
    out.add("rate_per_s", devises / devise_seconds, "1/s");
    out.add("ok_frac",
            1.0 - static_cast<double>(out.failed) /
                      static_cast<double>(std::max<std::uint64_t>(
                          out.attempted, 1)),
            "1");
    return;
  }

  // ---- traced run: layer probes, counters, self times -------------------
  probe_lattices(inputs.cases, out);
  const CounterSnapshot after = read_counters();
  const double traced_wall = seconds_since(measured);
  add_counter_metrics(before, after, traced_wall, out);
  out.add("policy.decisions", decisions / static_cast<double>(compare_ms.size()),
          "count");
  out.add("core.workspace_misses", static_cast<double>(workspace_misses),
          "count");
  out.add("core.workspace_hit_ratio",
          static_cast<double>(workspace_hits) /
              static_cast<double>(
                  std::max<std::uint64_t>(workspace_hits + workspace_misses, 1)),
          "1");
  out.add("core.workspace_mb", max_of(workspace_mb), "MB");
  // The service layer has no workload of its own (its open-loop medians
  // follow the host's load), so it is measured here, after plan's own
  // counters are read and inside the same trace.
  probe_service(args, out);
  finish_trace(analyze_trace(), seconds_since(args.process_start),
               ThreadPool::global().size() + kProbeThreads, args.out_dir, out);

  // Tracing overhead: one warm devise with the metrics layer off, then on.
  const DeviseCase& c = inputs.cases.front();
  metrics::set_enabled(false);
  auto workspace = std::make_shared<LatticeWorkspace>();
  const policy::Algorithm1 algorithm(devise_options(c.markovian, workspace));
  (void)algorithm.devise(c.scenario);
  Clock::time_point t0 = Clock::now();
  (void)algorithm.devise(c.scenario);
  const double untraced = seconds_since(t0);
  metrics::set_enabled(true);
  t0 = Clock::now();
  (void)algorithm.devise(c.scenario);
  const double traced = seconds_since(t0);
  out.add("util.trace_overhead_frac", traced / untraced - 1.0, "1");
}

}  // namespace perfbench
