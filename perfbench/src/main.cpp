// perfbench — the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload lep4-synth|campaign-mix|lep4-serve --seed N
//             --seconds S --trace 0|1 [--quick] [--break CHECK]
//             [--source-id ID]
//
// Prints a provenance line, a detail line and, last, the result object
// {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer ones.  Exit 0 when
// every correctness check held, 1 when one tripped, 2 on usage errors or
// a non-Release build, 3 when the run itself failed.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench.h"
#include "stats.h"
#include "trace.h"
#include "util/memory_meter.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;

// The highest percentile with at least ten samples beyond it, rounded
// down to four decimals of q.
double tail_quantile(std::size_t n) {
  if (n < 20) return 0.5;
  return std::floor((1.0 - 10.0 / static_cast<double>(n)) * 1e4) / 1e4;
}

// ── JSON output ────────────────────────────────────────────────────────

std::string num(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// An ordered JSON object under construction.
class Obj {
 public:
  Obj& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += quoted(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  Obj& num(const std::string& key, double x) {
    return raw(key, perfbench::num(x));
  }
  Obj& str(const std::string& key, const std::string& s) {
    return raw(key, quoted(s));
  }
  [[nodiscard]] std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  Obj o;
  for (const Metric& m : metrics) {
    o.raw(m.name, Obj().num("value", m.value).str("unit", m.unit).json());
  }
  return o.json();
}

// ── the workloads ──────────────────────────────────────────────────────

// Share of --seconds each phase gets.  Every workload runs every phase,
// so every metric is reported on every workload; the workload decides
// where the time goes.
struct Plan {
  double synth = 0.0;  // 0: synth_s comes from the set-ups' synthesis
  double reach = 0.0;
  double safety = 0.0;
  double closed = 0.0;
  double pipelined = 0.0;
  double open20k = 0.0;
  double open80k = 0.0;
};

bool plan_for(const std::string& workload, Plan& plan) {
  if (workload == "lep4-synth") {
    plan = {0.55, 0.07, 0.07, 0.12, 0.12, 0.035, 0.035};
  } else if (workload == "campaign-mix") {
    plan = {0.0, 0.3, 0.3, 0.16, 0.16, 0.04, 0.04};
  } else if (workload == "lep4-serve") {
    plan = {0.0, 0.1, 0.1, 0.25, 0.25, 0.15, 0.15};
  } else {
    return false;
  }
  return true;
}

// What one pass over the plan measured: campaign totals with per-call
// rates, and one ServeStats per round and serve phase.
struct Measured {
  std::vector<double> pass_s;
  SolveCounts pass_solves;
  CampaignStats reach, safety;
  std::vector<ServeStats> closed, pipelined, open20k, open80k;
};

// The phases run in rounds, each round giving every phase its share of
// the round, so slow stretches of a shared machine spread over all
// metrics instead of landing on one phase.  With a synthesis share each
// round starts with one pass, and the pass time sets the round count.

Measured run_plan(Artifacts& a, const Config& cfg, const Plan& plan,
                  double seconds, std::uint64_t& passes, Tally& tally) {
  Measured m;
  int rounds = cfg.quick ? 2 : 10;
  for (int r = 0; r < rounds; ++r) {
    if (plan.synth > 0.0) {
      const SynthPass p = synth_pass(cfg, passes++, tally);
      m.pass_s.push_back(p.seconds);
      m.pass_solves = p.solves;
      if (r == 0) {
        rounds = std::clamp(
            static_cast<int>(std::lround(plan.synth * seconds / p.seconds)), 2,
            16);
      }
    }
    const double slice = seconds / rounds;
    // The open loop, whose p99s carry no bound, goes first: the host
    // is still busy with the memory a synthesis pass just freed.
    m.open20k.push_back(
        serve_open(a, cfg, 20000.0, plan.open20k * slice, tally));
    m.open80k.push_back(
        serve_open(a, cfg, 80000.0, plan.open80k * slice, tally));
    m.reach.merge(reach_campaign(a, cfg, plan.reach * slice, tally));
    m.safety.merge(safety_campaign(a, cfg, plan.safety * slice, tally));
    m.closed.push_back(serve_closed(a, cfg, plan.closed * slice, tally));
    m.pipelined.push_back(
        serve_pipelined(a, cfg, plan.pipelined * slice, tally));
  }
  return m;
}

ServeStats pooled(const std::vector<ServeStats>& rounds) {
  ServeStats out;
  for (const ServeStats& s : rounds) out.merge(s);
  return out;
}

std::vector<double> gather(const std::vector<ServeStats>& rounds,
                           std::vector<double> ServeStats::*field) {
  std::vector<double> v;
  for (const ServeStats& s : rounds) {
    v.insert(v.end(), (s.*field).begin(), (s.*field).end());
  }
  return v;
}

// How an end-to-end metric is estimated from its units: a synthesis
// pass, a campaign call, a chunk of 1000 consecutive requests (the p50
// and p99 of their on-core times), a chunk of 16 pipelined batches (its
// requests over its on-core time).  On a shared host whose cores slow
// down now and then while their neighbours work, the median over the
// whole run held steadiest, better than the best unit (which a single
// lucky unit sets) or the calm decile.  The open-loop p99s, wake-up
// bound and without a bound of their own, take the calm decile.
enum class Estimate { kMedian, kCalmDecile };

struct Series {
  const char* name;
  const char* unit;
  Estimate how;
  std::vector<double> units;

  [[nodiscard]] double value() const {
    return how == Estimate::kMedian ? median(units) : percentile(units, 0.1);
  }
};

// The end-to-end metrics after setup_s and peak_rss_mb, in order.
std::vector<Series> series_of(const Measured& m,
                              const std::vector<double>& setup_synth_s) {
  const Estimate e = Estimate::kMedian;
  using S = ServeStats;
  return {
      {"synth_s", "s", e, m.pass_s.empty() ? setup_synth_s : m.pass_s},
      {"campaign.reach_runs_per_s", "runs/s", e, m.reach.runs_per_s},
      {"campaign.safety_steps_per_s", "steps/s", e, m.safety.steps_per_s},
      {"serve.rtt_p50_us", "us", e, gather(m.closed, &S::chunk_p50_us)},
      {"serve.rtt_p99_us", "us", e, gather(m.closed, &S::chunk_p99_us)},
      {"serve.pipelined_per_s", "decide/s", e,
       gather(m.pipelined, &S::chunk_per_s)},
  };
}

// The open-loop p99s.  They swing by a third between runs on a busy
// shared host even in their calm decile (idle-core wake-ups dominate
// them), so they are serve-layer metrics without a bound, reported on
// every run's detail line and in the traced run's metrics.
std::vector<Series> open_loop_series(const Measured& m) {
  using S = ServeStats;
  return {
      {"serve.open20k_p99_us", "us", Estimate::kCalmDecile,
       gather(m.open20k, &S::chunk_p99_us)},
      {"serve.open80k_p99_us", "us", Estimate::kCalmDecile,
       gather(m.open80k, &S::chunk_p99_us)},
  };
}

// Every estimated series of a run: end-to-end first, then open loop.
std::vector<Series> all_series(const Measured& m,
                               const std::vector<double>& setup_synth_s) {
  std::vector<Series> all = series_of(m, setup_synth_s);
  for (Series& s : open_loop_series(m)) all.push_back(std::move(s));
  return all;
}

double value_of(const std::vector<Series>& series, const std::string& name) {
  for (const Series& s : series) {
    if (name == s.name) return s.value();
  }
  throw std::logic_error("no series " + name);
}

std::string array_json(const std::vector<double>& v) {
  std::string out = "[";
  for (const double x : v) {
    if (out.size() > 1) out += ',';
    out += num(x);
  }
  return out + "]";
}

std::string values_json(const std::vector<Series>& series) {
  Obj o;
  for (const Series& s : series) o.num(s.name, s.value());
  return o.json();
}

// How many units each estimate was taken over, and their spread.
std::string units_json(const std::vector<Series>& series) {
  Obj o;
  for (const Series& s : series) {
    o.raw(s.name, Obj()
                      .num("units", static_cast<double>(s.units.size()))
                      .num("min", percentile(s.units, 0.0))
                      .num("q10", percentile(s.units, 0.1))
                      .num("median", median(s.units))
                      .num("q90", percentile(s.units, 0.9))
                      .num("max", percentile(s.units, 1.0))
                      .json());
  }
  return o.json();
}

// Sample count and the highest well-populated percentile of a latency
// series.
std::string samples_detail(const std::vector<std::int64_t>& ns) {
  const auto us = to_us(ns);
  const double q = tail_quantile(us.size());
  return Obj()
      .num("samples", static_cast<double>(us.size()))
      .num("p50_us", percentile(us, 0.5))
      .num("p99_us", percentile(us, 0.99))
      .num("tail_q", q)
      .num("tail_us", percentile(us, q))
      .json();
}

// Reported next to every latency metric: its wall-clock samples and,
// for the closed loop, the on-core ones the metrics come from.
std::string latency_detail(const std::vector<ServeStats>& rounds) {
  const ServeStats all = pooled(rounds);
  Obj o;
  o.raw("wall", samples_detail(all.latency_ns));
  if (!all.on_core_ns.empty()) {
    o.raw("on_core", samples_detail(all.on_core_ns));
  }
  return o.json();
}

// Tracing overhead on the workload's primary metric: traced cost over
// untraced cost, minus one.
double trace_overhead(const std::string& workload,
                      const std::vector<Series>& untraced,
                      const std::vector<Series>& traced) {
  if (workload == "campaign-mix") {
    const char* rate = "campaign.reach_runs_per_s";
    return value_of(untraced, rate) / value_of(traced, rate) - 1.0;
  }
  const char* time =
      workload == "lep4-synth" ? "synth_s" : "serve.rtt_p50_us";
  return value_of(traced, time) / value_of(untraced, time) - 1.0;
}

using Totals = std::map<std::string, trace::Totals>;

Totals diff(const Totals& after, const Totals& before) {
  Totals out = after;
  for (auto& [name, t] : out) {
    const auto it = before.find(name);
    if (it == before.end()) continue;
    t.count -= it->second.count;
    t.total_ns -= it->second.total_ns;
    t.self_ns -= it->second.self_ns;
  }
  return out;
}

double seconds_of(const Totals& t, const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : static_cast<double>(it->second.total_ns) * 1e-9;
}

std::string spans_json(const Totals& t) {
  Obj o;
  for (const auto& [name, x] : t) {
    if (x.count == 0) continue;
    o.raw(name, Obj()
                    .num("count", static_cast<double>(x.count))
                    .num("total_s", static_cast<double>(x.total_ns) * 1e-9)
                    .num("self_s", static_cast<double>(x.self_ns) * 1e-9)
                    .json());
  }
  return o.json();
}

// The set-ups of one run.
struct Setups {
  std::vector<double> seconds;
  std::vector<double> synth_s;
  Totals spans;  // traced runs only
};

double peak_rss_mb() {
  return static_cast<double>(tigat::util::peak_rss_bytes()) / 1e6;
}

// --trace 0: the end-to-end metrics.
std::vector<Metric> end_to_end_run(Artifacts& a, const Config& cfg,
                                   const Plan& plan, const Setups& setups,
                                   Tally& tally, Obj& detail) {
  std::uint64_t passes = 0;
  const Measured m = run_plan(a, cfg, plan, cfg.seconds, passes, tally);
  tally.add(0, a.server->errors_total());
  const std::vector<Series> series = series_of(m, setups.synth_s);
  const std::vector<Series> all = all_series(m, setups.synth_s);
  detail.raw("synth_pass_s", array_json(m.pass_s))
      .raw("setup_synth_s", array_json(setups.synth_s))
      .raw("serve.rtt", latency_detail(m.closed))
      .raw("serve.open20k", latency_detail(m.open20k))
      .raw("serve.open80k", latency_detail(m.open80k))
      .num("loadgen.late_p99_us",
           percentile(to_us(pooled(m.open80k).late_ns), 0.99))
      .raw("open_loop", values_json(open_loop_series(m)))
      .raw("units", units_json(all));
  std::vector<Metric> metrics = {
      {"setup_s", median(setups.seconds), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  for (const Series& s : series) metrics.push_back({s.name, s.value(), s.unit});
  return metrics;
}

// --trace 1: half the time untraced, half traced.  The per-layer
// numbers come from the traced half (and, for synthesis layers on
// workloads without synthesis passes, from the traced set-ups); the
// tracing overhead from comparing the halves.
std::vector<Metric> per_layer_run(Artifacts& a, const Config& cfg,
                                  const Plan& plan, const Setups& setups,
                                  Tally& tally, Obj& detail) {
  std::uint64_t passes = 0;
  const Measured plain =
      run_plan(a, cfg, plan, cfg.seconds / 2, passes, tally);
  trace::enable(true);
  const Totals before = trace::totals();
  const std::uint64_t first_traced_pass = passes;
  const Measured traced =
      run_plan(a, cfg, plan, cfg.seconds / 2, passes, tally);
  const Totals window = diff(trace::totals(), before);
  const ExploreStats lep = explore_lep(cfg);
  const ExploreStats safety = explore_safety(cfg);
  const double decide_ns = direct_decide_ns(a, cfg.quick ? 0.1 : 0.5);
  trace::enable(false);
  const std::uint64_t errors = a.server->errors_total();
  tally.add(0, errors);
  const std::vector<Series> e_plain = all_series(plain, setups.synth_s);
  const std::vector<Series> e_traced = all_series(traced, setups.synth_s);
  const double rtt_p50_us = value_of(e_plain, "serve.rtt_p50_us");
  const double pipelined_per_s = value_of(e_plain, "serve.pipelined_per_s");

  const auto n = [](std::uint64_t x) { return static_cast<double>(x); };
  const bool synth = plan.synth > 0.0;
  const Totals& synth_spans = synth ? window : setups.spans;
  const double per_pass = synth ? n(passes - first_traced_pass)
                                : n(setups.seconds.size());
  const auto per_pass_s = [&](const char* span) {
    return seconds_of(synth_spans, span) / per_pass;
  };
  const SolveCounts counts = synth ? traced.pass_solves : a.solves;
  const double explore_per_pass =
      synth ? 3.0 * lep.seconds : lep.seconds + safety.seconds;
  const double solve_s = per_pass_s("game.solve");
  const double campaign_s = seconds_of(window, "testing.campaign");
  const double decide_s = seconds_of(window, "decision.decide");
  const double imp_s = seconds_of(window, "testing.imp");
  double root_total = 0.0, root_self = 0.0;
  for (const auto& [name, t] : window) {
    if (name.rfind("pass.", 0) == 0 || name.rfind("phase.", 0) == 0) {
      root_total += static_cast<double>(t.total_ns);
      root_self += static_cast<double>(t.self_ns);
    }
  }
  auto late = to_us(pooled(plain.open20k).late_ns);
  const auto late80k = to_us(pooled(plain.open80k).late_ns);
  late.insert(late.end(), late80k.begin(), late80k.end());
  const CampaignStats& r = traced.reach;
  const CampaignStats& s = traced.safety;
  const auto& table = *a.lep.table;

  detail.raw("untraced_half", values_json(e_plain))
      .raw("traced_half", values_json(e_traced))
      .raw("spans_traced_half", spans_json(window))
      .raw("spans_setup", spans_json(setups.spans))
      .num("dropped_spans", n(trace::dropped()));
  const std::string trace_path = ".bench_build/perfbench/trace-" +
                                 cfg.workload + "-seed" +
                                 std::to_string(cfg.seed) + ".json";
  if (trace::write_chrome_trace(trace_path)) {
    detail.str("trace_file", trace_path);
  }
  return {
      {"lang.load_s", per_pass_s("lang.load_model"), "s"},
      {"semantics.explore_s", lep.seconds, "s"},
      {"semantics.keys", n(lep.keys), "count"},
      {"semantics.edges", n(lep.edges), "count"},
      {"semantics.reach_zones", n(lep.reach_zones), "count"},
      {"game.solve_s", solve_s, "s"},
      {"game.fixpoint_s", solve_s - explore_per_pass, "s"},
      {"game.explore_share", explore_per_pass / solve_s, "ratio"},
      {"game.rounds", n(counts.rounds), "count"},
      {"game.winning_zones", n(counts.winning_zones), "count"},
      {"decision.compile_s", per_pass_s("decision.compile"), "s"},
      {"decision.save_s", per_pass_s("decision.save"), "s"},
      {"decision.map_s",
       seconds_of(setups.spans, "decision.map") / n(setups.seconds.size()),
       "s"},
      {"decision.tgs_bytes", n(table.memory_bytes()), "bytes"},
      {"decision.nodes", n(table.node_count()), "count"},
      {"decision.leaves", n(table.leaf_count()), "count"},
      {"decision.decide_ns", decide_ns, "ns"},
      {"testing.decide_s", decide_s, "s"},
      {"testing.imp_s", imp_s, "s"},
      {"testing.executor_self_s", campaign_s - decide_s - imp_s, "s"},
      {"testing.steps", n(r.steps + s.steps), "count"},
      {"testing.attempts", n(r.attempts + s.attempts), "count"},
      {"testing.retries", n(r.retries + s.retries), "count"},
      {"testing.decide_calls", n(r.decide_calls + s.decide_calls), "count"},
      {"obs.ledgers_kept", n(r.ledgers + s.ledgers), "count"},
      {"serve.socket_overhead_us", rtt_p50_us - decide_ns / 1e3, "us"},
      {"serve.pipelined_vs_direct", pipelined_per_s * decide_ns / 1e9, "ratio"},
      {"serve.requests", n(a.server->requests_total()), "count"},
      {"serve.errors", n(errors), "count"},
      {"serve.open20k_p99_us", value_of(e_plain, "serve.open20k_p99_us"),
       "us"},
      {"serve.open80k_p99_us", value_of(e_plain, "serve.open80k_p99_us"),
       "us"},
      {"loadgen.late_p99_us", percentile(late, 0.99), "us"},
      {"failed_frac",
       n(tally.failed) / n(std::max<std::uint64_t>(1, tally.attempted)),
       "ratio"},
      {"trace.overhead_frac", trace_overhead(cfg.workload, e_plain, e_traced),
       "ratio"},
      {"trace.unattributed_share", root_self / root_total, "ratio"},
  };
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "lep4-synth|campaign-mix|lep4-serve --seed N --seconds S "
               "--trace 0|1 [--quick] [--break synth|campaign|campaign-json|"
               "serve] [--source-id ID]\n",
               why);
  return 2;
}

int run(int argc, char** argv) {
  Config cfg;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(value());
    } else if (arg == "--trace") {
      cfg.trace = value() != "0";
    } else if (arg == "--quick") {
      cfg.quick = true;
    } else if (arg == "--break") {
      cfg.break_check = value();
    } else if (arg == "--source-id") {
      source_id = value();
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  Plan plan;
  if (!plan_for(cfg.workload, plan)) return usage("unknown workload");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const unsigned nproc = tigat::util::ThreadPool::hardware_threads();
  cfg.solver_threads = std::clamp(nproc, 1u, 4u);
  if (cfg.quick) {
    cfg.lep_n = 3;
    cfg.serve_states = 512;
  }
  cfg.work_dir = ".bench_build/perfbench/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(cfg.work_dir);

  std::printf("%s\n",
              Obj().raw("provenance",
                        Obj().str("build_type", PERFBENCH_BUILD_TYPE)
                            .str("cxx_flags", PERFBENCH_CXX_FLAGS)
                            .str("compiler", "g++ " __VERSION__)
                            .num("nproc", nproc)
                            .str("cpu_model", cpu_model())
                            .str("source", source_id)
                            .num("solver_threads", cfg.solver_threads)
                            .num("server_threads", cfg.server_threads)
                            .num("client_threads", 1)
                            .str("workload", cfg.workload)
                            .num("seed", static_cast<double>(cfg.seed))
                            .num("seconds", cfg.seconds)
                            .num("trace", cfg.trace ? 1 : 0)
                            .num("quick", cfg.quick ? 1 : 0)
                            .json())
                  .json()
                  .c_str());
  std::fflush(stdout);

  Tally tally;
  trace::enable(cfg.trace);
  // Set up several times; the median is setup_s.  The last one stays.
  Setups setups;
  std::unique_ptr<Artifacts> art;
  const int count = cfg.quick ? 2 : kSetups;
  for (int k = 0; k < count; ++k) {
    art.reset();
    art = setup(cfg, k, tally);
    setups.seconds.push_back(art->setup_s);
    setups.synth_s.push_back(art->synth_s);
  }
  setups.spans = trace::totals();
  trace::enable(false);

  Obj detail;
  const std::vector<Metric> metrics =
      cfg.trace ? per_layer_run(*art, cfg, plan, setups, tally, detail)
                : end_to_end_run(*art, cfg, plan, setups, tally, detail);
  art.reset();
  std::filesystem::remove_all(cfg.work_dir);

  detail.raw("setup_s_each", array_json(setups.seconds))
      .num("attempted", static_cast<double>(tally.attempted))
      .num("failed", static_cast<double>(tally.failed));
  std::printf("%s\n", Obj().raw("detail", detail.json()).json().c_str());

  const bool correct = tally.failed == 0;
  std::printf("%s\n",
              Obj()
                  .raw("correct", correct ? "true" : "false")
                  .num("attempted", static_cast<double>(tally.attempted))
                  .num("failed", static_cast<double>(tally.failed))
                  .raw("metrics", metrics_json(metrics))
                  .json()
                  .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
