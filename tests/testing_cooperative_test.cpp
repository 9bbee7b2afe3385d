// Tests for cooperative test generation and execution (paper
// future-work item 4) and the rebuild utilities behind it.
//
// A cooperative plan runs through the ordinary TestExecutor, built from
// the plan as a DecisionSource and the un-relaxed SPEC; the executor
// waits for the moves the SPEC gives to the SUT.
#include <gtest/gtest.h>

#include <string>

#include "decision/compiler.h"
#include "decision/source.h"
#include "decision/table.h"
#include "game/cooperative.h"
#include "game/solver.h"
#include "game/strategy.h"
#include "lang/lang.h"
#include "models/smart_light.h"
#include "testing/executor.h"
#include "testing/mutants.h"
#include "testing/simulated_imp.h"
#include "tsystem/rebuild.h"

#ifndef TIGAT_MODEL_DIR
#error "TIGAT_MODEL_DIR must point at examples/models"
#endif

namespace tigat::testing {
namespace {

using game::GameSolver;
using game::Strategy;
using models::make_smart_light;
using models::make_smart_light_plant_only;
using tsystem::TestPurpose;

constexpr std::int64_t kScale = 16;

// Runs `source` (a cooperative plan or any strategy) against `imp`,
// monitoring the un-relaxed `spec`.
TestReport run_plan(const decision::DecisionSource& source,
                    const tsystem::System& spec, Implementation& imp,
                    ExecutorOptions options = {}) {
  TestExecutor exec(source, spec, imp, kScale, options);
  return exec.run();
}

TestReport run_plan(const Strategy& plan, const tsystem::System& spec,
                    Implementation& imp, ExecutorOptions options = {}) {
  return run_plan(decision::StrategySource(plan), spec, imp, options);
}

std::string render(const TestReport& r) {
  return std::string(to_string(r.verdict)) + "|" + to_string(r.code) + "|" +
         r.detail + "|" + r.trace_string() + "|" + std::to_string(r.steps) +
         "|" + std::to_string(r.total_ticks);
}

TEST(Rebuild, RelaxAllControllableFlipsThePartition) {
  models::SmartLight m = make_smart_light();
  const tsystem::System relaxed =
      tsystem::relax_all_controllable(m.system);
  for (const auto& p : relaxed.processes()) {
    for (const auto& e : p.edges()) {
      EXPECT_TRUE(relaxed.edge_controllable(p, e));
    }
  }
  // Structure preserved.
  EXPECT_EQ(relaxed.clock_count(), m.system.clock_count());
  EXPECT_EQ(relaxed.processes().size(), m.system.processes().size());
}

TEST(Cooperative, L6UnwinnableButCooperativelyReachable) {
  models::SmartLight m = make_smart_light();
  const auto purpose = TestPurpose::parse(m.system, "control: A<> IUT.L6");
  GameSolver strict(m.system, purpose);
  EXPECT_FALSE(strict.solve()->winning_from_initial());

  const auto coop = game::solve_cooperative(m.system, purpose);
  EXPECT_TRUE(coop.reachable);
}

TEST(Cooperative, WinnablePurposesStayWinnableUnderRelaxation) {
  // Relaxation only helps: every controllable purpose must remain
  // cooperatively reachable.
  models::SmartLight m = make_smart_light();
  for (const char* prop :
       {"control: A<> IUT.Bright", "control: A<> IUT.Dim"}) {
    const auto purpose = TestPurpose::parse(m.system, prop);
    GameSolver strict(m.system, purpose);
    ASSERT_TRUE(strict.solve()->winning_from_initial()) << prop;
    EXPECT_TRUE(game::solve_cooperative(m.system, purpose).reachable) << prop;
  }
}

TEST(Cooperative, PatientImpCooperatesToPass) {
  models::SmartLight spec = make_smart_light();
  models::SmartLight plant = make_smart_light_plant_only();
  const auto purpose = TestPurpose::parse(spec.system, "control: A<> IUT.L6");
  auto coop = game::solve_cooperative(spec.system, purpose);
  ASSERT_TRUE(coop.reachable);
  Strategy plan(coop.solution);

  SimulatedImplementation imp(plant.system, kScale,
                              ImpPolicy{2 * kScale, {}});
  const TestReport report = run_plan(plan, spec.system, imp);
  EXPECT_EQ(report.verdict, Verdict::kPass) << report.detail;
  EXPECT_EQ(report.code, ReasonCode::kPurposeReached);
}

TEST(Cooperative, EagerImpYieldsInconclusiveNotFail) {
  models::SmartLight spec = make_smart_light();
  models::SmartLight plant = make_smart_light_plant_only();
  const auto purpose = TestPurpose::parse(spec.system, "control: A<> IUT.L6");
  auto coop = game::solve_cooperative(spec.system, purpose);
  Strategy plan(coop.solution);

  // Latency 0: the light answers the reactivating touch immediately —
  // legal behaviour that ruins the plan.  Must NOT be a fail.  The L6
  // plan never hopes for an output, and every state the light can
  // reach is still cooperatively L6-reachable, so the plan retries
  // from each legal detour until the step budget runs out.
  SimulatedImplementation imp(plant.system, kScale, ImpPolicy{0, {}});
  ExecutorOptions options;
  options.max_steps = 200;
  const TestReport report = run_plan(plan, spec.system, imp, options);
  EXPECT_EQ(report.verdict, Verdict::kInconclusive) << report.detail;
  EXPECT_EQ(report.code, ReasonCode::kStepBudgetExhausted);
}

// The plan hopes for an output the SPEC allows but never forces: the
// watchdog lamp MAY switch off once w >= Tidle.  A lamp that keeps its
// watchdog quiet longer than the tester waits declines — within its
// rights, so INCONCLUSIVE / kSutDeclined, never FAIL.
TEST(Cooperative, SilentSutDeclinesHopedForOutput) {
  const lang::LoadedModel model = lang::load_model(
      std::string(TIGAT_MODEL_DIR) + "/smart_light_safety.tg");
  const tsystem::System plant = tsystem::extract_process(model.system, "IUT");
  auto coop = game::solve_cooperative(
      model.system, TestPurpose::parse(model.system, "control: A<> IUT.Off"));
  ASSERT_TRUE(coop.reachable);
  Strategy plan(coop.solution);

  ExecutorOptions options;
  options.idle_wait_cap = 64 * kScale;
  SimulatedImplementation slow(plant, kScale, ImpPolicy{100 * kScale, {}});
  const TestReport declined = run_plan(plan, model.system, slow, options);
  EXPECT_EQ(declined.verdict, Verdict::kInconclusive) << declined.detail;
  EXPECT_EQ(declined.code, ReasonCode::kSutDeclined);
  EXPECT_EQ(declined.trace_string(), "160");

  // A lamp that does switch off inside the window cooperates.
  SimulatedImplementation prompt(plant, kScale, ImpPolicy{kScale, {}});
  const TestReport passed = run_plan(plan, model.system, prompt, options);
  EXPECT_EQ(passed.code, ReasonCode::kPurposeReached) << passed.detail;
}

// A source that follows the winning Bright strategy but calls every Dim
// state unwinnable — the shape of a plan the SUT steers off by a legal
// output.
class DimIsUnwinnable final : public decision::DecisionSource {
 public:
  DimIsUnwinnable(const Strategy& strategy, const models::SmartLight& light)
      : inner_(strategy), iut_(light.iut), dim_(light.loc_dim) {}

  [[nodiscard]] game::Move decide(const semantics::ConcreteState& state,
                                  std::int64_t scale) const override {
    if (state.locs[iut_] == dim_) return game::Move{};
    return inner_.decide(state, scale);
  }
  [[nodiscard]] semantics::TransitionInstance edge_instance(
      std::uint32_t edge) const override {
    return inner_.edge_instance(edge);
  }

 private:
  decision::StrategySource inner_;
  std::uint32_t iut_;
  tsystem::LocId dim_;
};

TEST(Cooperative, UnwinnableAfterAnOutputIsSutDeclined) {
  models::SmartLight spec = make_smart_light();
  models::SmartLight plant = make_smart_light_plant_only();
  GameSolver solver(spec.system,
                    TestPurpose::parse(spec.system, "control: A<> IUT.Bright"));
  const Strategy strategy(solver.solve());
  const DimIsUnwinnable source(strategy, spec);

  // The urgent light answers the first touch with dim!.
  SimulatedImplementation imp(plant.system, kScale, ImpPolicy{0, {}});
  const TestReport report = run_plan(source, spec.system, imp);
  EXPECT_EQ(report.verdict, Verdict::kInconclusive) << report.detail;
  EXPECT_EQ(report.code, ReasonCode::kSutDeclined);
  EXPECT_EQ(report.trace_string(), "16 . touch! . dim?");
}

// A purpose no cooperation can reach: Bright needs touches, and the
// first touch moves the user out of Init.  The plan is unwinnable from
// the initial state, before any output — the purpose's fault, not the
// SUT's.
TEST(Cooperative, InfeasiblePlanIsOutsideWinningRegionAtStepZero) {
  models::SmartLight spec = make_smart_light();
  models::SmartLight plant = make_smart_light_plant_only();
  auto coop = game::solve_cooperative(
      spec.system,
      TestPurpose::parse(spec.system, "control: A<> IUT.Bright && User.Init"));
  EXPECT_FALSE(coop.reachable);
  Strategy plan(coop.solution);
  SimulatedImplementation imp(plant.system, kScale, ImpPolicy{kScale, {}});
  const TestReport report = run_plan(plan, spec.system, imp);
  EXPECT_EQ(report.verdict, Verdict::kInconclusive);
  EXPECT_EQ(report.code, ReasonCode::kOutsideWinningRegion) << report.detail;
  EXPECT_EQ(report.steps, 0u);
}

// A compiled plan serves the same runs as the walk it was compiled
// from: identical reports, detail and trace included.
TEST(Cooperative, CompiledPlanMatchesItsWalk) {
  models::SmartLight spec = make_smart_light();
  models::SmartLight plant = make_smart_light_plant_only();
  for (const char* prop : {"control: A<> IUT.L6", "control: A<> IUT.Bright"}) {
    SCOPED_TRACE(prop);
    auto coop = game::solve_cooperative(spec.system,
                                        TestPurpose::parse(spec.system, prop));
    ASSERT_TRUE(coop.reachable);
    const Strategy plan(coop.solution);
    const decision::DecisionTable table = decision::compile(*coop.solution);
    const auto compare = [&](const tsystem::System& sys) {
      for (const std::int64_t latency : {std::int64_t{0}, 2 * kScale}) {
        SimulatedImplementation imp_a(sys, kScale, ImpPolicy{latency, {}});
        SimulatedImplementation imp_b(sys, kScale, ImpPolicy{latency, {}});
        ExecutorOptions options;
        options.max_steps = 200;
        EXPECT_EQ(render(run_plan(plan, spec.system, imp_a, options)),
                  render(run_plan(table, spec.system, imp_b, options)));
      }
    };
    compare(plant.system);
    const auto mutants = enumerate_mutants(plant.system);
    for (std::size_t i = 0; i < mutants.size(); i += 3) {
      compare(apply_mutant(plant.system, mutants[i]));
    }
  }
}

// A cooperative safety plan: on the relaxed watchdog game the plan
// counts on the lamp to keep its watchdog quiet, so it never touches.
// The caller names the purpose (the plan cannot).  A lamp that stays
// lit through the budget cooperates; one that legally switches off
// breaks φ — the sound safety FAIL a cooperative run can still earn.
TEST(Cooperative, SafetyPlanMaintainsPhiWithACooperatingImp) {
  const lang::LoadedModel model = lang::load_model(
      std::string(TIGAT_MODEL_DIR) + "/smart_light_safety.tg");
  const tsystem::System plant = tsystem::extract_process(model.system, "IUT");
  const auto purpose = TestPurpose::parse(model.system, "control: A[] IUT.On");
  auto coop = game::solve_cooperative(model.system, purpose);
  ASSERT_TRUE(coop.reachable);
  Strategy plan(coop.solution);

  ExecutorOptions options;
  options.purpose = purpose;
  options.pass_ticks = 2000;
  options.idle_wait_cap = 500;
  SimulatedImplementation quiet(plant, kScale, ImpPolicy{4000, {}});
  const TestReport kept = run_plan(plan, model.system, quiet, options);
  EXPECT_EQ(kept.verdict, Verdict::kPass) << kept.detail;
  EXPECT_EQ(kept.code, ReasonCode::kSafetyMaintained);

  SimulatedImplementation urgent(plant, kScale, ImpPolicy{0, {}});
  const TestReport broken = run_plan(plan, model.system, urgent, options);
  EXPECT_EQ(broken.verdict, Verdict::kFail) << broken.detail;
  EXPECT_EQ(broken.code, ReasonCode::kSafetyViolation);
}

TEST(Cooperative, SoundnessStillFailsBrokenImp) {
  // Use a purpose whose cooperative plan has output obligations on the
  // path (A<> Bright hopes for bright!); lazy mutants with widened
  // windows then miss deadlines — a sound FAIL even in cooperative
  // mode.  (The L6 plan, by contrast, reaches its goal on inputs alone
  // and can never fail — a run is judged only by what is observed.)
  models::SmartLight spec = make_smart_light();
  models::SmartLight plant = make_smart_light_plant_only();
  const auto purpose =
      TestPurpose::parse(spec.system, "control: A<> IUT.Bright");
  auto coop = game::solve_cooperative(spec.system, purpose);
  ASSERT_TRUE(coop.reachable);
  Strategy plan(coop.solution);

  const auto mutants = enumerate_mutants(plant.system);
  bool found = false;
  for (const auto& m : mutants) {
    const tsystem::System mutated = apply_mutant(plant.system, m);
    SimulatedImplementation imp(mutated, kScale, ImpPolicy{3 * kScale, {}});
    if (run_plan(plan, spec.system, imp).verdict == Verdict::kFail) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Cooperative, CooperativePlanOnWinnablePurposeAlsoPasses) {
  // A cooperative plan for a purpose that IS controllable behaves like
  // ordinary testing when the IMP happens to cooperate.
  models::SmartLight spec = make_smart_light();
  models::SmartLight plant = make_smart_light_plant_only();
  const auto purpose =
      TestPurpose::parse(spec.system, "control: A<> IUT.Dim");
  auto coop = game::solve_cooperative(spec.system, purpose);
  ASSERT_TRUE(coop.reachable);
  Strategy plan(coop.solution);
  SimulatedImplementation imp(plant.system, kScale, ImpPolicy{kScale, {}});
  const TestReport report = run_plan(plan, spec.system, imp);
  EXPECT_NE(report.verdict, Verdict::kFail) << report.detail;
}

}  // namespace
}  // namespace tigat::testing
