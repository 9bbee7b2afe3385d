// The benchmark's set-up and timed phases.  Every phase calls the
// program only through its public API and wraps each layer call in a
// trace::Span, so a traced run can attribute wall time to layers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "decision/table.h"
#include "game/strategy.h"
#include "lang/lang.h"
#include "semantics/concrete.h"
#include "serve/server.h"
#include "testing/campaign.h"
#include "testing/simulated_imp.h"

namespace perfbench {

// Tick scale shared by tables, IUTs and executors (as run_model).
inline constexpr std::int64_t kScale = 16;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-check size: LEP N=3 and short warm-ups.
  bool quick = false;
  // Deliberately corrupts one correctness check ("synth", "campaign",
  // "campaign-json" or "serve") so the check can be seen to trip.
  std::string break_check;
  std::string models_dir = "examples/models";  // relative to the checkout
  std::string work_dir;  // this run's .tgs files and socket
  int lep_n = 4;
  unsigned solver_threads = 4;
  unsigned server_threads = 1;  // the closed and pipelined phases use one client
  std::size_t serve_states = 4096;
};

// Operations attempted and failed, as the correctness checks count them:
// one per solved purpose, one per campaign run, one per served request.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }
};

// One purpose solved, compiled, saved, mapped, with a simulated IUT.
struct Served {
  std::unique_ptr<tigat::lang::LoadedModel> model;
  std::optional<tigat::tsystem::TestPurpose> purpose;
  std::unique_ptr<tigat::tsystem::System> plant;
  std::unique_ptr<tigat::testing::SimulatedImplementation> imp;
  std::optional<tigat::decision::DecisionTable> table;  // mapped .tgs
};

// Counts of the solves in one synthesis pass.
struct SolveCounts {
  std::uint64_t rounds = 0;
  std::uint64_t winning_zones = 0;
};

// What one set-up builds: the LEP purpose-0 table (campaign (a) and the
// server) and the safety table (campaign (b)), the served state set,
// and an in-process server.
struct Artifacts {
  Served lep;
  Served safety;
  std::vector<tigat::semantics::ConcreteState> states;
  std::vector<tigat::game::Move> expected;  // mapped-table decide(states)
  std::vector<std::vector<std::uint8_t>> frames;  // encoded requests
  std::string socket_path;
  std::unique_ptr<tigat::serve::Server> server;  // stops before tables go
  std::vector<int> server_tids;  // the server's worker threads
  // Reference campaign reports: every repetition must match byte for byte.
  std::string reach_json;
  std::string safety_json;
  double setup_s = 0.0;
  double synth_s = 0.0;  // load + solve + compile + save of both models
  SolveCounts solves;

  ~Artifacts();
};

[[nodiscard]] std::unique_ptr<Artifacts> setup(const Config& cfg, int index,
                                               Tally& tally);

// One full .tg -> .tgs pass over the LEP model's three purposes.  The
// returned time covers load, solve, compile and save; the correctness
// check (winnable, table decide == strategy decide on seeded states)
// runs after it, untimed.
struct SynthPass {
  double seconds = 0.0;
  SolveCounts solves;
};
[[nodiscard]] SynthPass synth_pass(const Config& cfg, std::uint64_t pass,
                                   Tally& tally);

struct CampaignStats {
  std::uint64_t steps = 0;  // final attempts
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t ledgers = 0;
  std::uint64_t decide_calls = 0;  // traced phases only
  // Per campaign_run call, over the calling thread's CPU time spent in
  // campaign_run only.
  std::vector<double> runs_per_s;
  std::vector<double> steps_per_s;

  void merge(const CampaignStats& o);
};
// (a): reachability campaigns on LEP purpose 0 behind injected faults.
[[nodiscard]] CampaignStats reach_campaign(Artifacts& a, const Config& cfg,
                                           double seconds, Tally& tally);
// (b): safety campaigns on smart_light_safety, pass_ticks = 100000.
[[nodiscard]] CampaignStats safety_campaign(Artifacts& a, const Config& cfg,
                                            double seconds, Tally& tally);

// The closed-loop and pipelined phases time their requests on the
// on-core clock (the CPU time of the client thread and the server's
// workers, pinned together on one CPU: the wall time on an idle core,
// without the time a shared host takes the core away); the open loop,
// whose latency is mostly waiting, on the wall clock.
struct ServeStats {
  std::vector<std::int64_t> latency_ns;  // wall, per request (open: from due)
  std::vector<std::int64_t> on_core_ns;  // closed loop, per request
  std::vector<std::int64_t> late_ns;     // open loop: send - due
  std::uint64_t replies = 0;
  double wall_s = 0.0;
  // Per chunk of consecutive requests (closed loop: on-core, open loop:
  // wall) and per chunk of pipelined batches (on-core), for estimates
  // robust to slow stretches.
  std::vector<double> chunk_p50_us;
  std::vector<double> chunk_p99_us;
  std::vector<double> chunk_per_s;

  void merge(const ServeStats& o);
};
// (a) closed loop, one request in flight per connection.
[[nodiscard]] ServeStats serve_closed(Artifacts& a, const Config& cfg,
                                      double seconds, Tally& tally);
// (b) closed loop, `batch` requests pipelined per flush.
[[nodiscard]] ServeStats serve_pipelined(Artifacts& a, const Config& cfg,
                                         double seconds, Tally& tally);
// (c) open loop on one connection at `rate` requests per second.
[[nodiscard]] ServeStats serve_open(Artifacts& a, const Config& cfg,
                                    double rate, double seconds,
                                    Tally& tally);

// Median single-thread DecisionTable::decide time over the state set.
[[nodiscard]] double direct_decide_ns(const Artifacts& a, double seconds);

// Standalone SymbolicGraph::explore with the solver's options and
// thread count; returns wall seconds and fills the graph's counts.
struct ExploreStats {
  double seconds = 0.0;
  std::uint64_t keys = 0;
  std::uint64_t edges = 0;
  std::uint64_t reach_zones = 0;
};
[[nodiscard]] ExploreStats explore_lep(const Config& cfg);
[[nodiscard]] ExploreStats explore_safety(const Config& cfg);

}  // namespace perfbench
