// Golden digests of test runs.
//
// Each case runs the executor on a shipped model and compares one
// rendered line per run with a pinned string: verdict, reason code,
// detail, trace, step count, model ticks and harness-fault count, plus
// an FNV-1a digest of the run's flight-recorder ledger where one was
// recorded.  The pins were recorded while cooperative plans still ran
// through an executor loop of their own, and hold unchanged for the
// one loop that replaced both, so a change to that loop that alters
// what any run observes, decides or reports shows up here.
//
// Cooperative runs pin everything except the free-text detail (their
// wording moved to the single loop's when the second loop was
// removed); every other run pins the detail too.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "decision/compiler.h"
#include "decision/source.h"
#include "game/cooperative.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "models/lep.h"
#include "models/smart_light.h"
#include "obs/recorder.h"
#include "support/solution_digest.h"
#include "testing/campaign.h"
#include "testing/executor.h"
#include "testing/mutants.h"
#include "testing/simulated_imp.h"
#include "tsystem/rebuild.h"

namespace tigat::testing {
namespace {

using game::GameSolver;
using game::Strategy;
using tsystem::TestPurpose;

constexpr std::int64_t kScale = 16;

std::string bytes_digest(const std::string& bytes) {
  test_support::Fnv1a h;
  for (const char c : bytes) h.byte(static_cast<std::uint8_t>(c));
  return h.hex() + "/" + std::to_string(bytes.size());
}

// Traces longer than this are pinned by digest, not spelled out.
constexpr std::size_t kTraceInline = 160;

std::string render(const TestReport& r, bool with_detail = true) {
  std::string out = std::string(to_string(r.verdict)) + "|" +
                    to_string(r.code) + "|";
  if (with_detail) out += r.detail + "|";
  const std::string trace = r.trace_string();
  out += trace.size() <= kTraceInline ? trace
                                      : "trace=" + bytes_digest(trace);
  out += "|steps=" + std::to_string(r.steps);
  out += "|ticks=" + std::to_string(r.total_ticks);
  out += "|faults=" + std::to_string(r.harness_faults);
  return out;
}

// One plain run with a recorder attached: the report line plus the
// digest of the ledger it journaled.
std::string recorded_run(const decision::DecisionSource& source,
                         const tsystem::System& spec, Implementation& imp,
                         ExecutorOptions options = {}) {
  obs::RunRecorder recorder;
  recorder.begin({});
  options.recorder = &recorder;
  TestExecutor exec(source, spec, imp, kScale, options);
  const TestReport report = exec.run();
  return render(report) + "|ledger=" +
         bytes_digest(recorder.take().to_jsonl());
}

std::shared_ptr<const game::GameSolution> solve(const tsystem::System& spec,
                                                const std::string& purpose) {
  return GameSolver(spec, TestPurpose::parse(spec, purpose)).solve();
}

// ------------------------------------------------------ Smart Light A<>

class SmartLightBright : public ::testing::Test {
 protected:
  SmartLightBright()
      : spec_(models::make_smart_light()),
        plant_(models::make_smart_light_plant_only()),
        strategy_(solve(spec_.system, "control: A<> IUT.Bright")),
        source_(strategy_) {}

  models::SmartLight spec_;
  models::SmartLight plant_;
  Strategy strategy_;
  decision::StrategySource source_;
};

TEST_F(SmartLightBright, UrgentImp) {
  SimulatedImplementation imp(plant_.system, kScale, ImpPolicy{0, {}});
  EXPECT_EQ(recorded_run(source_, spec_.system, imp),
      "pass|purpose-reached|test purpose reached|16 . touch! . dim? . 16 . "
      "touch! . bright?|steps=6|ticks=32|faults=0|ledger=3680b17d37c5922d/1"
      "568");
}

TEST_F(SmartLightBright, LazyImp) {
  SimulatedImplementation imp(plant_.system, kScale,
                              ImpPolicy{2 * kScale, {}});
  EXPECT_EQ(recorded_run(source_, spec_.system, imp),
      "pass|purpose-reached|test purpose reached|16 . touch! . 16 . touch! "
      ". 32 . bright?|steps=5|ticks=64|faults=0|ledger=23145482e07c2eb9/142"
      "4");
}

TEST_F(SmartLightBright, MutantImp) {
  const auto mutants = enumerate_mutants(plant_.system);
  ASSERT_GT(mutants.size(), 3u);
  const tsystem::System mutated = apply_mutant(plant_.system, mutants[3]);
  SimulatedImplementation imp(mutated, kScale, ImpPolicy{kScale, {}});
  EXPECT_EQ(recorded_run(source_, spec_.system, imp),
      "fail|quiescence-violation|quiescence violation: output deadline "
      "expired with no output|16 . touch! . 16 . touch! . "
      "32|steps=5|ticks=64|faults=0|ledger=cfa72633f8a6cd5c/1429");
}

// One faulted, recorded campaign: the JSON report and the bytes of
// every ledger it kept.
TEST_F(SmartLightBright, FaultedRecordedCampaign) {
  CampaignOptions opts;
  opts.runs = 3;
  opts.retries = 2;
  opts.fault_spec = "drop=0.2,delay=0..8,dup=0.1,reject=0.15";
  opts.fault_seed = 7;
  opts.record_ledgers = true;
  SimulatedImplementation imp(plant_.system, kScale, ImpPolicy{kScale, {}});
  const CampaignReport report =
      campaign_run(source_, spec_.system, imp, kScale, opts);
  std::string ledgers;
  for (const RunOutcome& o : report.outcomes) {
    for (const obs::RunLedger& led : o.ledgers) ledgers += led.to_jsonl();
  }
  EXPECT_EQ(report.to_json(),
      "{\"schema\": \"tigat.campaign\", \"version\": 1, \"verdict\": "
      "\"flaky\", \"runs\": 3, \"passes\": 2, \"fails\": 0, "
      "\"inconclusive\": 1, \"attempts\": 7, \"retries_used\": 4, "
      "\"deadline_hits\": 0, \"fault_spec\": "
      "\"drop=0.2,dup=0.1,reject=0.15,delay=0..8\", \"fault_seed\": 7, "
      "\"run_deadline_ms\": 0, \"retries\": 2, \"outcomes\": [{\"run\": 0, "
      "\"attempts\": 3, \"seed\": 190270838555192432, \"verdict\": "
      "\"pass\", \"code\": \"purpose-reached\", \"detail\": \"test purpose "
      "reached\", \"steps\": 5, \"total_ticks\": 56, \"harness_faults\": "
      "2, \"trace\": \"16 . touch! . 16 . touch! . 24 . bright?\", "
      "\"attempt_codes\": [\"harness-fault\", \"harness-fault\", "
      "\"purpose-reached\"]}, {\"run\": 1, \"attempts\": 3, \"seed\": "
      "5988130955546498061, \"verdict\": \"inconclusive\", \"code\": "
      "\"harness-fault\", \"detail\": \"would-be FAIL (unexpected-output) "
      "suppressed: 1 injected fault(s): delay x1 (last: delay)\", "
      "\"steps\": 4, \"total_ticks\": 35, \"harness_faults\": 1, "
      "\"trace\": \"16 . touch! . 16 . touch! . 3\", \"attempt_codes\": "
      "[\"harness-fault\", \"harness-fault\", \"harness-fault\"]}, "
      "{\"run\": 2, \"attempts\": 1, \"seed\": 15849710552114818339, "
      "\"verdict\": \"pass\", \"code\": \"purpose-reached\", \"detail\": "
      "\"test purpose reached\", \"steps\": 5, \"total_ticks\": 52, "
      "\"harness_faults\": 2, \"trace\": \"16 . touch! . 16 . touch! . 20 "
      ". bright?\", \"attempt_codes\": [\"purpose-reached\"]}]}\n");
  EXPECT_EQ(bytes_digest(ledgers), "75002dc44ca267ea/7732");
}

// ------------------------------------------------------- safety A[]

class SafetyWatchdog : public ::testing::Test {
 protected:
  SafetyWatchdog()
      : model_(test_support::load_pinned_model("smart_light_safety.tg", 0)),
        plant_(tsystem::extract_process(model_.system, "IUT")),
        strategy_(solve(model_.system, "control: A[] IUT.On")),
        source_(strategy_) {
    options_.purpose = strategy_.solution().purpose();
    options_.pass_ticks = 2000;
  }

  lang::LoadedModel model_;
  tsystem::System plant_;
  Strategy strategy_;
  decision::StrategySource source_;
  ExecutorOptions options_;
};

TEST_F(SafetyWatchdog, ConformingImpPasses) {
  SimulatedImplementation imp(plant_, kScale);
  EXPECT_EQ(recorded_run(source_, model_.system, imp, options_),
      "pass|safety-maintained|safety invariant maintained for 2067 "
      "ticks|trace=f91218adcd8cd3da/183|steps=25|ticks=2067|faults=0|ledger"
      "=2b970d874905f4f6/5020");
}

TEST_F(SafetyWatchdog, MutantOneFails) {
  const auto mutants = enumerate_mutants(plant_);
  ASSERT_GT(mutants.size(), 1u);
  const tsystem::System mutated = apply_mutant(plant_, mutants[1]);
  SimulatedImplementation imp(mutated, kScale);
  EXPECT_EQ(recorded_run(source_, model_.system, imp, options_),
      "fail|unexpected-output|unexpected output 'off' after 144 ticks: not "
      "in Out(s After sigma)|144|steps=0|ticks=144|faults=0|ledger=e6ba19b3"
      "cb3036c8/514");
}

// ------------------------------------------------ LEP from a table

TEST(LepTable, Tp1ServedFromCompiledTable) {
  const models::Lep lep = models::make_lep({.nodes = 3});
  const auto solution = solve(lep.system, models::lep_tp1());
  const decision::DecisionTable table = decision::compile(*solution);
  const tsystem::System plant = tsystem::extract_process(lep.system, "IUT");
  SimulatedImplementation imp(plant, kScale);
  EXPECT_EQ(recorded_run(table, lep.system, imp),
      "pass|purpose-reached|test purpose reached|16 . msg! . "
      "fwd?|steps=5|ticks=16|faults=0|ledger=e0a9343d59c030a3/1787");
}

// ----------------------------------------------------- cooperative

class CooperativeLight : public ::testing::Test {
 protected:
  CooperativeLight()
      : spec_(models::make_smart_light()),
        plant_(models::make_smart_light_plant_only()) {}

  // A plan from solve_cooperative, run against the un-relaxed SPEC.
  [[nodiscard]] TestReport run_plan(const char* purpose,
                                    const tsystem::System& imp_system,
                                    std::int64_t latency) const {
    const game::CooperativeResult coop = game::solve_cooperative(
        spec_.system, TestPurpose::parse(spec_.system, purpose));
    EXPECT_TRUE(coop.reachable);
    const Strategy plan(coop.solution);
    const decision::StrategySource source(plan);
    SimulatedImplementation imp(imp_system, kScale, ImpPolicy{latency, {}});
    TestExecutor exec(source, spec_.system, imp, kScale);
    return exec.run();
  }

  models::SmartLight spec_;
  models::SmartLight plant_;
};

TEST_F(CooperativeLight, L6PatientImp) {
  const TestReport r =
      run_plan("control: A<> IUT.L6", plant_.system, 2 * kScale);
  EXPECT_EQ(render(r, false),
      "pass|purpose-reached|320 . touch! . 16 . "
      "touch!|steps=4|ticks=336|faults=0");
}

TEST_F(CooperativeLight, L6EagerImp) {
  const TestReport r = run_plan("control: A<> IUT.L6", plant_.system, 0);
  EXPECT_EQ(render(r, false),
      "inconclusive|step-budget-exhausted|trace=dd877e5b1514ac4b/71662|step"
      "s=10000|ticks=640128|faults=0");
}

TEST_F(CooperativeLight, FirstFailingBrightMutant) {
  const auto mutants = enumerate_mutants(plant_.system);
  std::string pin;
  for (std::size_t i = 0; i < mutants.size() && pin.empty(); ++i) {
    const tsystem::System mutated = apply_mutant(plant_.system, mutants[i]);
    const TestReport report =
        run_plan("control: A<> IUT.Bright", mutated, 3 * kScale);
    if (report.verdict == Verdict::kFail) {
      pin = "mutant=" + std::to_string(i) + "|" + render(report, false);
    }
  }
  EXPECT_EQ(pin,
      "mutant=14|fail|quiescence-violation|320 . "
      "touch!|steps=2|ticks=320|faults=0");
}

}  // namespace
}  // namespace tigat::testing
