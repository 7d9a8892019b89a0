// The service probe: the service layer's per-layer numbers, measured at
// the end of plan's traced run. agedtrd runs in process, through
// Daemon::submit (the entry point serve_stream and SocketServer both wrap),
// with the default DaemonOptions: 32768-cell lattices, no journal, no test
// faults.
//
// Traffic is an open loop of independent callers: one generator thread
// sends seeded Poisson arrivals at kRate requests/s for kProbeSeconds and
// every reply is timed from its due time, so a stall also delays the
// requests due behind it. The mix, drawn from the seed:
//   * interactive `evaluate` requests over a recurring pool of 2-server
//     scenarios covering all five model families (warm engines after the
//     warm-up pass),
//   * `evaluate` requests whose task counts lie outside the pool, each of
//     which builds a new engine on cold lattices,
//   * batch-class `search` requests over pool scenarios (tens of policies).
// Saturating bursts of warm evaluates after the step measure the daemon's
// capacity.
//
// Checks: exactly once (every submit gets one reply with a documented
// status, and the `stats` reply has accepted == completed), and a seeded
// sample of evaluate replies is bit-identical to a direct
// EvaluationEngine::evaluate on the same scenario and options.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "agedtr/dist/builders.hpp"
#include "agedtr/policy/evaluation_engine.hpp"
#include "agedtr/policy/two_server.hpp"
#include "agedtr/service/daemon.hpp"
#include "agedtr/service/json.hpp"
#include "agedtr/service/protocol.hpp"
#include "agedtr/service/request.hpp"
#include "agedtr/util/metrics.hpp"
#include "agedtr/util/thread_annotations.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

using agedtr::service::Daemon;
using agedtr::service::DaemonOptions;
using agedtr::service::Json;
namespace metrics = agedtr::metrics;
namespace policy = agedtr::policy;
namespace service = agedtr::service;

/// Nominal open-loop rate (requests/s) and the request mix. At this rate
/// about a hundred pool evaluates arrive while searches hold the
/// dispatcher, so the p99 with ten requests beyond it sits near one
/// search's duration instead of wandering inside the delayed group.
constexpr double kRate = 40.0;
/// Every kColdEvery-th request is a cold evaluate (5 %), every
/// kSearchEvery-th a search (2 %); the two patterns never coincide.
constexpr std::size_t kColdEvery = 20;
constexpr std::size_t kSearchEvery = 50;
/// The recurring pool: two scenarios per model family, all with the same
/// task counts, so every search is a (kPoolM1+1) x (kPoolM2+1) grid.
constexpr int kPoolPerFamily = 2;
constexpr int kPoolM1 = 5;
constexpr int kPoolM2 = 3;
/// The policy of each pool scenario's warm-up evaluate, the first one its
/// engine sees.
constexpr int kWarmupL12 = 1;
constexpr int kWarmupL21 = 1;
/// Burst size for the capacity measurement: below the default
/// degrade_watermark (128), so every burst request takes the fast path.
/// Capacity is the best of kBursts bursts: interference from other work on
/// the host only ever slows a burst down.
constexpr int kBurst = 96;
constexpr int kBursts = 9;
/// Seconds of the open-loop step.
constexpr double kProbeSeconds = 5.0;
/// A step whose generator ran later than this share of the 1 s latency
/// limit (p99 lag) is invalid.
constexpr double kMaxLagShare = 0.25;

enum class Kind { kPool, kCold, kSearch };

struct Shape {
  std::string family;
  int m1 = 0;
  int m2 = 0;
  double mean1 = 1.0;
  double mean2 = 1.0;
  double transfer_mean = 1.0;
};

struct Planned {
  double due = 0.0;  // seconds after the step starts
  Kind kind = Kind::kPool;
  std::size_t shape = 0;  // pool slot (kPool, kSearch)
  std::string bytes;
};

/// One submitted request as the generator and the collector saw it.
struct Sent {
  std::future<std::string> reply;
  double lag = 0.0;        // seconds the submit ran after its due time
  double submit_s = 0.0;   // time inside Daemon::submit
  double latency = 0.0;    // due time -> reply ready
  std::string text;
};

double round_to(double v, double step) { return std::round(v / step) * step; }

/// A 2-server shape with seeded service and transfer means.
Shape random_shape(InputRng& rng, const std::string& family, int m1, int m2) {
  Shape s;
  s.family = family;
  s.m1 = m1;
  s.m2 = m2;
  s.mean1 = round_to(rng.uniform(1.0, 3.0), 0.1);
  s.mean2 = round_to(rng.uniform(0.5, 1.5), 0.1);
  s.transfer_mean = round_to(rng.uniform(0.5, 2.0), 0.1);
  return s;
}

Json scenario_json(const Shape& s) {
  Json servers = Json::array();
  for (const auto& [tasks, mean] : {std::pair{s.m1, s.mean1}, {s.m2, s.mean2}}) {
    Json server = Json::object();
    server.set("tasks", Json::number(tasks));
    server.set("service_model", Json::string(s.family));
    server.set("service_mean", Json::number(mean));
    servers.push_back(std::move(server));
  }
  Json scenario = Json::object();
  scenario.set("servers", std::move(servers));
  scenario.set("transfer_model", Json::string(s.family));
  scenario.set("transfer_mean", Json::number(s.transfer_mean));
  return scenario;
}

std::string evaluate_bytes(const std::string& id, const Shape& s, int l12,
                           int l21) {
  Json request = Json::object();
  request.set("id", Json::string(id));
  request.set("kind", Json::string("evaluate"));
  request.set("class", Json::string("interactive"));
  request.set("scenario", scenario_json(s));
  Json row0 = Json::array();
  row0.push_back(Json::number(0));
  row0.push_back(Json::number(l12));
  Json row1 = Json::array();
  row1.push_back(Json::number(l21));
  row1.push_back(Json::number(0));
  Json matrix = Json::array();
  matrix.push_back(std::move(row0));
  matrix.push_back(std::move(row1));
  request.set("policy", std::move(matrix));
  return request.dump();
}

std::string search_bytes(const std::string& id, const Shape& s) {
  Json request = Json::object();
  request.set("id", Json::string(id));
  request.set("kind", Json::string("search"));
  request.set("class", Json::string("batch"));
  request.set("scenario", scenario_json(s));
  return request.dump();
}

struct ServeInputs {
  std::vector<Shape> pool;
  std::vector<Planned> step;
  std::vector<std::string> warmup;  // one evaluate per pool scenario
  std::vector<std::string> warmup_searches;  // one search per pool scenario
  std::vector<std::vector<std::string>> bursts;
};

/// The seeded inputs. Seeds vary the due times, the scenario means, the
/// pool evaluates' policies and the phase of the kind pattern, not the
/// amount or the kind of work: the request count is fixed (a Poisson
/// process conditioned on its count: sorted uniform due times), searches
/// and cold evaluates are evenly spaced through the stream (every 50th and
/// every 20th request), searches cycle through the pool slots, and cold
/// evaluates cycle through the families, the out-of-pool task counts and
/// their policies (a policy's moved tasks set the lattice work).
ServeInputs make_inputs(std::uint64_t seed) {
  InputRng rng(seed);
  ServeInputs in;
  const auto& families = agedtr::dist::all_model_families();
  for (const agedtr::dist::ModelFamily family : families) {
    for (int k = 0; k < kPoolPerFamily; ++k) {
      in.pool.push_back(
          random_shape(rng, agedtr::dist::model_family_name(family), kPoolM1, kPoolM2));
    }
  }
  for (std::size_t p = 0; p < in.pool.size(); ++p) {
    in.warmup.push_back(evaluate_bytes("warm-" + std::to_string(p),
                                       in.pool[p], kWarmupL12, kWarmupL21));
    in.warmup_searches.push_back(
        search_bytes("warm-search-" + std::to_string(p), in.pool[p]));
  }

  const auto count = static_cast<std::size_t>(std::lround(kRate * kProbeSeconds));
  std::vector<double> due(count);
  for (double& d : due) d = rng.uniform(0.0, kProbeSeconds);
  std::sort(due.begin(), due.end());
  const auto pool_size = static_cast<int>(in.pool.size());
  const auto phase = static_cast<std::size_t>(rng.integer(0, 99));
  std::size_t searches = 0;
  std::size_t colds = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Planned p;
    p.due = due[i];
    const std::string id = "req-" + std::to_string(i);
    if ((i + phase) % kSearchEvery == kSearchEvery / 2) {
      p.kind = Kind::kSearch;
      p.shape = (phase + searches++) % in.pool.size();
      p.bytes = search_bytes(id, in.pool[p.shape]);
    } else if ((i + phase) % kColdEvery == 0) {
      p.kind = Kind::kCold;
      const std::size_t j = colds++;
      const Shape s = random_shape(
          rng, agedtr::dist::model_family_name(families[j % families.size()]),
          kPoolM1 + 4 + static_cast<int>(j / families.size() % 4),
          kPoolM2 + 2 + static_cast<int>(j / (4 * families.size()) % 2));
      const auto turn = static_cast<int>(j);
      p.bytes = evaluate_bytes(id, s, turn % (s.m1 + 1), turn % (s.m2 + 1));
    } else {
      p.shape = static_cast<std::size_t>(rng.integer(0, pool_size - 1));
      const Shape& s = in.pool[p.shape];
      const int l12 = rng.integer(0, s.m1);
      const int l21 = rng.integer(0, s.m2);
      p.bytes = evaluate_bytes(id, s, l12, l21);
    }
    in.step.push_back(std::move(p));
  }
  // Capacity bursts replay the warm-up requests, so every evaluation reads
  // lattices already cached: the warm read path plus the batching.
  for (int b = 0; b < kBursts; ++b) {
    std::vector<std::string> burst;
    for (int k = 0; k < kBurst; ++k) {
      burst.push_back(evaluate_bytes(
          "burst-" + std::to_string(b) + "-" + std::to_string(k),
          in.pool[static_cast<std::size_t>(k % pool_size)], kWarmupL12,
          kWarmupL21));
    }
    in.bursts.push_back(std::move(burst));
  }
  return in;
}

/// Statuses of the documented reply taxonomy (docs/OPERATIONS.md).
bool documented_status(const std::string& status) {
  static const std::set<std::string> known = {
      "ok",       "overloaded",      "deadline_exceeded", "failed",
      "poisoned", "invalid_request", "shutting_down"};
  return known.count(status) > 0;
}

struct ReplyView {
  std::string status;
  bool fast_ok = false;  // status ok from the fast tier (not degraded)
  double value = 0.0;
};

ReplyView view_of(const std::string& text) {
  ReplyView view;
  try {
    const Json reply = Json::parse(text);
    if (const Json* s = reply.find("status"); s != nullptr && s->is_string()) {
      view.status = s->as_string();
    }
    const Json* degraded = reply.find("degraded");
    const bool was_degraded =
        degraded != nullptr && degraded->is_bool() && degraded->as_bool();
    view.fast_ok = view.status == "ok" && !was_degraded;
    if (const Json* v = reply.find("value"); v != nullptr && v->is_number()) {
      view.value = v->as_number();
    }
  } catch (const std::exception&) {
    view.status.clear();
  }
  return view;
}

/// Counters of the daemon's `stats` reply.
std::map<std::string, double> stats_of(Daemon& daemon) {
  std::map<std::string, double> counts;
  const Json reply =
      Json::parse(daemon.submit(R"({"id":"stats","kind":"stats"})").get());
  for (const auto& [key, value] : reply.members()) {
    if (value.is_number()) counts[key] = value.as_number();
  }
  return counts;
}

/// Submits every request of `burst` at once and returns requests/s from
/// the first submit to the last reply. Replies are appended to `replies`.
double run_burst(Daemon& daemon, const std::vector<std::string>& burst,
                 std::vector<std::string>& replies) {
  metrics::TraceSpan span("service.burst", "service");
  std::vector<std::future<std::string>> futures;
  futures.reserve(burst.size());
  const Clock::time_point t0 = Clock::now();
  for (const std::string& bytes : burst) futures.push_back(daemon.submit(bytes));
  for (auto& f : futures) replies.push_back(f.get());
  return static_cast<double>(burst.size()) / seconds_since(t0);
}

/// The open-loop step: a generator thread submits at the due times, a
/// collector thread timestamps each reply the moment it is ready and
/// samples the queue depth.
struct StepResult {
  std::vector<Sent> sent;
  std::vector<double> depth_samples;
  double queue_start = 0.0;
  double queue_end = 0.0;
  bool drained = true;
};

/// Indices the generator has submitted, handed to the collector.
struct Handoff {
  agedtr::Mutex mutex;
  std::deque<std::size_t> submitted AGEDTR_GUARDED_BY(mutex);
  bool generator_done AGEDTR_GUARDED_BY(mutex) = false;
};

StepResult run_step(Daemon& daemon, const std::vector<Planned>& plan) {
  StepResult result;
  result.sent.resize(plan.size());
  Handoff handoff;

  result.queue_start = static_cast<double>(daemon.queue_depth());
  const Clock::time_point start = Clock::now();
  std::thread generator([&] {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(plan[i].due));
      std::this_thread::sleep_until(due);
      Sent& s = result.sent[i];
      const Clock::time_point before = Clock::now();
      {
        metrics::TraceSpan span("service.submit", "service");
        s.reply = daemon.submit(plan[i].bytes);
      }
      s.submit_s = seconds_since(before);
      s.lag = seconds_between(due, before);
      agedtr::MutexLock lock(&handoff.mutex);
      handoff.submitted.push_back(i);
    }
    result.queue_end = static_cast<double>(daemon.queue_depth());
    agedtr::MutexLock lock(&handoff.mutex);
    handoff.generator_done = true;
  });

  std::vector<std::size_t> outstanding;
  Clock::time_point next_sample = start;
  for (;;) {
    bool done = false;
    {
      agedtr::MutexLock lock(&handoff.mutex);
      while (!handoff.submitted.empty()) {
        outstanding.push_back(handoff.submitted.front());
        handoff.submitted.pop_front();
      }
      done = handoff.generator_done;
    }
    const Clock::time_point now = Clock::now();
    for (std::size_t k = 0; k < outstanding.size();) {
      Sent& s = result.sent[outstanding[k]];
      if (s.reply.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        s.latency = seconds_between(start, now) - plan[outstanding[k]].due;
        s.text = s.reply.get();
        outstanding[k] = outstanding.back();
        outstanding.pop_back();
      } else {
        ++k;
      }
    }
    if (now >= next_sample) {
      result.depth_samples.push_back(
          static_cast<double>(daemon.queue_depth()));
      next_sample = now + std::chrono::milliseconds(10);
    }
    if (done && outstanding.empty()) break;
    if (seconds_since(start) > plan.back().due + 120.0) {
      result.drained = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
  generator.join();
  return result;
}

/// The engine options agedtrd uses for a request (daemon.cpp engine_for).
policy::EvaluationEngineOptions daemon_engine_options() {
  const DaemonOptions defaults;
  policy::EvaluationEngineOptions options;
  options.conv = defaults.conv;
  options.conv.budget.max_seconds = defaults.max_eval_seconds;
  return options;
}

struct Direct {
  double value = 0.0;
  double first_s = 0.0;  // evaluate on a fresh engine
  double warm_s = 0.0;   // median of repeat evaluates on that engine
};

/// Re-evaluates a request serially through EvaluationEngine::evaluate on a
/// fresh engine: the reference value and the request's own compute time.
/// An engine freezes its lattice step on its first evaluation, and that
/// step depends on whether the first policy moves tasks, so a reply is
/// reproduced by first replaying the request that first touched the
/// daemon's engine (`first_bytes`; empty when it was this request).
Direct direct_evaluate(const std::string& bytes, const std::string& first_bytes,
                       int warm_repeats) {
  const service::Request request = service::parse_request(Json::parse(bytes));
  const policy::EvaluationEngine engine(service::build_scenario(request),
                                        daemon_engine_options());
  const agedtr::core::DtrPolicy p = service::build_policy(request);
  Direct d;
  Clock::time_point t0 = Clock::now();
  {
    metrics::TraceSpan span("policy.evaluate_first", "policy");
    d.value = engine.evaluate(
        first_bytes.empty()
            ? p
            : service::build_policy(
                  service::parse_request(Json::parse(first_bytes))));
  }
  d.first_s = seconds_since(t0);
  if (!first_bytes.empty()) d.value = engine.evaluate(p);
  std::vector<double> warm;
  for (int k = 0; k < warm_repeats; ++k) {
    t0 = Clock::now();
    metrics::TraceSpan span("policy.evaluate_warm", "policy");
    (void)engine.evaluate(p);
    warm.push_back(seconds_since(t0));
  }
  d.warm_s = median(warm);
  return d;
}

/// Serial TwoServerPolicySearch::optimize on a warm engine (the daemon's
/// search path), in seconds.
double direct_search_seconds(const std::string& bytes) {
  const service::Request request = service::parse_request(Json::parse(bytes));
  const policy::EvaluationEngine engine(service::build_scenario(request),
                                        daemon_engine_options());
  const policy::TwoServerPolicySearch search(request.servers[0].tasks,
                                             request.servers[1].tasks);
  (void)search.optimize(engine, false);  // fill the lattices
  const Clock::time_point t0 = Clock::now();
  {
    metrics::TraceSpan span("policy.search", "policy");
    (void)search.optimize(engine, false);
  }
  return seconds_since(t0);
}

/// Median write_frame + read_frame round trip of request and reply bytes.
double frame_round_trip_us(const std::vector<Planned>& plan,
                           const std::vector<Sent>& sent) {
  std::vector<double> samples;
  for (std::size_t i = 0; i < plan.size(); i += 4) {
    const Clock::time_point t0 = Clock::now();
    metrics::TraceSpan span("service.frame", "service");
    std::stringstream wire;
    service::write_frame(wire, plan[i].bytes);
    service::write_frame(wire, sent[i].text);
    std::string payload;
    const bool ok =
        service::read_frame(wire, payload) == service::FrameStatus::kOk &&
        payload == plan[i].bytes &&
        service::read_frame(wire, payload) == service::FrameStatus::kOk &&
        payload == sent[i].text;
    if (!ok) return -1.0;
    samples.push_back(seconds_since(t0) * 1e6);
  }
  return median(samples);
}

}  // namespace

/// Reports only the service layer's numbers: the calling workload owns the
/// program's counters, the trace ring and the end-to-end metrics.
void probe_service(const Args& args, Outcome& out) {
  // ---- warm-up: inputs, daemon start, one pass over the recurring pool
  // (an evaluate, then a search, per scenario) -----------------------------
  const ServeInputs in = make_inputs(args.seed);
  Daemon daemon{DaemonOptions{}};
  // The evaluates freeze each engine's grid; the searches then fill its
  // lattices for every policy, so pool evaluates in the step are warm.
  for (const auto* requests : {&in.warmup, &in.warmup_searches}) {
    std::vector<std::future<std::string>> futures;
    for (const std::string& bytes : *requests) {
      futures.push_back(daemon.submit(bytes));
    }
    for (auto& f : futures) {
      const std::string reply = f.get();
      out.check(view_of(reply).fast_ok, "warm-up reply not ok: " + reply);
    }
  }

  // ---- the open-loop step, then the capacity bursts ---------------------
  const std::map<std::string, double> stats_before = stats_of(daemon);
  const StepResult step = run_step(daemon, in.step);
  std::vector<std::string> burst_replies;
  std::vector<double> capacity;
  for (int b = 0; b < kBursts; ++b) {
    capacity.push_back(run_burst(daemon, in.bursts[b], burst_replies));
  }
  const std::map<std::string, double> stats_after = stats_of(daemon);

  // ---- exactly once, and the reply taxonomy ----------------------------
  out.check(step.drained, "open-loop step: replies still missing 120 s "
                          "after the last due time");
  std::vector<double> search_ms, eval_ms, lags, submit_us;
  std::size_t ok = 0;
  std::map<Kind, std::size_t> kinds;
  for (std::size_t i = 0; i < in.step.size(); ++i) {
    const Sent& s = step.sent[i];
    const ReplyView view = view_of(s.text);
    ++kinds[in.step[i].kind];
    ++out.attempted;
    lags.push_back(s.lag * 1e3);
    submit_us.push_back(s.submit_s * 1e6);
    if (!documented_status(view.status)) {
      out.fail("request " + std::to_string(i) + " got no documented reply: '" +
               s.text + "'");
    }
    if (!view.fast_ok) {
      ++out.failed;
      continue;
    }
    ++ok;
    (in.step[i].kind == Kind::kSearch ? search_ms : eval_ms)
        .push_back(s.latency * 1e3);
  }
  for (const std::string& reply : burst_replies) {
    ++out.attempted;
    if (!view_of(reply).fast_ok) {
      ++out.failed;
      out.fail("burst reply not ok: " + reply);
    }
  }
  out.check(stats_after.at("accepted") == stats_after.at("completed"),
            "stats: accepted " + std::to_string(stats_after.at("accepted")) +
                " != completed " + std::to_string(stats_after.at("completed")));

  // ---- the open loop stays honest ---------------------------------------
  const double lag_p99 = percentile(lags, 0.99);
  std::ostringstream step_line;
  step_line << "service probe step: " << in.step.size() << " requests at "
            << kRate << "/s over " << kProbeSeconds << " s; generator lag p99 "
            << lag_p99 << " ms, max " << max_of(lags)
            << " ms; queue depth " << step.queue_start << " -> "
            << step.queue_end;
  out.note(step_line.str());
  out.check(lag_p99 <= kMaxLagShare * 1e3,
            "step invalid: generator lag p99 " + std::to_string(lag_p99) +
                " ms exceeds " + std::to_string(kMaxLagShare * 1e3) + " ms");
  if (step.queue_end >= step.queue_start + 16) {
    out.note("step queue grew: the nominal rate is above capacity");
  }

  // ---- bit-identical sample against a direct evaluation -----------------
  // Pool requests replay their engine's first request (the warm-up
  // evaluate); cold requests are checked only when no other request shares
  // their scenario, so their own evaluation was their engine's first.
  std::map<std::string, int> scenario_uses;
  for (const Planned& p : in.step) {
    if (p.kind == Kind::kCold) {
      ++scenario_uses[service::scenario_fingerprint(
          service::parse_request(Json::parse(p.bytes)))];
    }
  }
  {
    InputRng pick(args.seed ^ 0x5eedULL);
    int checked_pool = 0;
    int checked_cold = 0;
    for (int attempt = 0;
         attempt < 1000 && (checked_pool < 4 || checked_cold < 2); ++attempt) {
      const auto i = static_cast<std::size_t>(
          pick.integer(0, static_cast<int>(in.step.size()) - 1));
      const Planned& p = in.step[i];
      const ReplyView view = view_of(step.sent[i].text);
      if (p.kind == Kind::kSearch || !view.fast_ok) continue;
      if (p.kind == Kind::kPool ? checked_pool >= 4 : checked_cold >= 2) {
        continue;
      }
      if (p.kind == Kind::kCold &&
          scenario_uses[service::scenario_fingerprint(service::parse_request(
              Json::parse(p.bytes)))] != 1) {
        continue;
      }
      const Direct direct = direct_evaluate(
          p.bytes, p.kind == Kind::kPool ? in.warmup[p.shape] : "", 0);
      ++(p.kind == Kind::kPool ? checked_pool : checked_cold);
      out.check(direct.value == view.value,
                "reply " + std::to_string(i) + " value " +
                    Json::number(view.value).dump() +
                    " differs from the direct evaluation " +
                    Json::number(direct.value).dump());
    }
    out.check(checked_pool > 0 && checked_cold > 0,
              "too few ok evaluates to compare against direct evaluations");
  }

  const double share = 1.0 / static_cast<double>(in.step.size());
  out.note("mix: pool evaluate " + std::to_string(kinds[Kind::kPool] * share) +
           ", cold evaluate " + std::to_string(kinds[Kind::kCold] * share) +
           ", search " + std::to_string(kinds[Kind::kSearch] * share));
  out.note("service probe: evaluate p50 " + std::to_string(median(eval_ms)) +
           " ms (n=" + std::to_string(eval_ms.size()) + "), search p50 " +
           std::to_string(median(search_ms)) + " ms (n=" +
           std::to_string(search_ms.size()) + "), ok " +
           std::to_string(static_cast<double>(ok) * share));

  // ---- per-layer numbers ------------------------------------------------
  const double delta_hits =
      stats_after.at("engine_cache_hits") - stats_before.at("engine_cache_hits");
  const double delta_misses = stats_after.at("engine_cache_misses") -
                              stats_before.at("engine_cache_misses");
  for (const char* key :
       {"shed", "deadline_exceeded", "degraded", "failed", "invalid"}) {
    out.add(std::string("service.") + key,
            stats_after.at(key) - stats_before.at(key), "count");
  }
  out.add("service.cache_hit_ratio",
          delta_hits / std::max(delta_hits + delta_misses, 1.0), "1");
  out.add("service.submit_us", median(submit_us), "us");
  out.add("service.capacity_per_s", max_of(capacity), "1/s");
  out.note("service capacity (best of " + std::to_string(kBursts) +
           " bursts of " + std::to_string(kBurst) +
           " warm evaluates): " + std::to_string(max_of(capacity)) +
           " /s, median " + std::to_string(median(capacity)) + " /s");
  out.add("service.queue_depth_p99", percentile(step.depth_samples, 0.99),
          "count");
  out.add("service.gen_lag_ms", lag_p99, "ms");
  out.add("service.queue_start", step.queue_start, "count");
  out.add("service.queue_end", step.queue_end, "count");
  out.add("service.share_pool", kinds[Kind::kPool] * share, "1");
  out.add("service.share_cold", kinds[Kind::kCold] * share, "1");
  out.add("service.share_search", kinds[Kind::kSearch] * share, "1");

  // Each request's own compute time, re-timed serially: a pool evaluate on
  // its warm engine, a cold evaluate on a fresh one, a search on a warm
  // engine. What remains of its latency is queueing plus the batch barrier.
  std::vector<double> first_s;
  std::vector<double> warm_s;
  std::map<std::size_t, double> pool_compute;
  std::map<std::size_t, double> search_compute;
  std::vector<double> cold_compute;
  for (std::size_t i = 0; i < in.step.size(); ++i) {
    const Planned& p = in.step[i];
    if (p.kind == Kind::kPool && pool_compute.count(p.shape) == 0) {
      const Direct d = direct_evaluate(p.bytes, in.warmup[p.shape], 3);
      pool_compute[p.shape] = d.warm_s;
      warm_s.push_back(d.warm_s);
      first_s.push_back(d.first_s);
    } else if (p.kind == Kind::kSearch && search_compute.count(p.shape) == 0) {
      search_compute[p.shape] = direct_search_seconds(p.bytes);
    } else if (p.kind == Kind::kCold && cold_compute.size() < 6) {
      const Direct d = direct_evaluate(p.bytes, "", 0);
      cold_compute.push_back(d.first_s);
      first_s.push_back(d.first_s);
    }
  }
  std::vector<double> search_s;
  for (const auto& [shape, seconds] : search_compute) search_s.push_back(seconds);
  std::vector<double> wait_ms;
  for (std::size_t i = 0; i < in.step.size(); ++i) {
    const Planned& p = in.step[i];
    const double compute = p.kind == Kind::kPool   ? pool_compute[p.shape]
                           : p.kind == Kind::kCold ? median(cold_compute)
                                                   : search_compute[p.shape];
    wait_ms.push_back((step.sent[i].latency - compute) * 1e3);
  }
  out.add("service.wait_ms_p50", median(wait_ms), "ms");
  out.add("service.wait_ms_p99", percentile(wait_ms, 0.99), "ms");
  out.add("policy.evaluate_warm_ms", median(warm_s) * 1e3, "ms");
  out.add("policy.evaluate_first_ms", median(first_s) * 1e3, "ms");
  out.add("policy.search_ms", median(search_s) * 1e3, "ms");
  const double frame_us = frame_round_trip_us(in.step, step.sent);
  out.check(frame_us >= 0.0, "frame round trip altered the bytes");
  out.add("service.frame_us", frame_us, "us");
  daemon.stop();
}

}  // namespace perfbench
