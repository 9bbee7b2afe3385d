// One explored zone graph per model: the contract of
// SymbolicGraph::explored as the game solver uses it.
//
//   * solves of one finalized System under equal ExplorationOptions
//     share one graph while a solution holds it, and only the first
//     one explores;
//   * different options, a System rebuilt at the same address and a
//     moved System never share;
//   * an exploration that hits a limit leaves nothing behind;
//   * the last solution to let go frees the graph and its zone bytes;
//   * concurrent solves of one System give the pinned results.
// The concurrent cases run under ThreadSanitizer in CI (game_ filter).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "game/solver.h"
#include "obs/metrics.h"
#include "support/solution_digest.h"
#include "util/memory_meter.h"

namespace tigat::game {
namespace {

using semantics::ExplorationLimit;
using semantics::ExplorationOptions;
using test_support::load_pinned_model;
using test_support::Pin;

std::shared_ptr<const GameSolution> solve(
    const tsystem::System& system, const std::string& purpose,
    const ExplorationOptions& exploration = {}, unsigned threads = 2) {
  SolverOptions options;
  options.exploration = exploration;
  options.threads = threads;
  return GameSolver(system, tsystem::TestPurpose::parse(system, purpose),
                    options)
      .solve();
}

const Pin& pin_for(const char* model, std::int64_t n, const char* purpose) {
  for (const Pin& pin : test_support::kPins) {
    if (std::strcmp(pin.model, model) == 0 && pin.n == n &&
        std::strcmp(pin.purpose, purpose) == 0) {
      return pin;
    }
  }
  throw std::logic_error("no pin for the purpose");
}

void expect_pinned(const GameSolution& solution, const Pin& pin) {
  EXPECT_EQ(test_support::solution_digest(solution), pin.solution);
  EXPECT_EQ(test_support::table_digest(solution), pin.table);
}

TEST(SharedGraph, LaterSolvesReuseTheFirstExploration) {
  const lang::LoadedModel model = load_pinned_model("smart_light.tg", 0);
  const auto first = solve(model.system, "control: A<> IUT.Bright");
  const auto second = solve(model.system, "control: A[] !IUT.Bright");
  EXPECT_EQ(&first->graph(), &second->graph());
  EXPECT_GT(first->stats().explore_expand_seconds, 0.0);
  EXPECT_EQ(second->stats().explore_expand_seconds, 0.0);
  EXPECT_EQ(second->stats().explore_merge_seconds, 0.0);
  // Each solution's rows went to its own fork of the graph's frozen
  // dictionary, which both forks start from.
  EXPECT_GE(first->stats().zone_pool_rows,
            first->graph().zone_pool().row_count());
  EXPECT_GE(second->stats().zone_pool_rows,
            second->graph().zone_pool().row_count());
}

TEST(SharedGraph, DifferentExplorationOptionsDoNotShare) {
  const lang::LoadedModel model = load_pinned_model("smart_light.tg", 0);
  const char* purpose = "control: A<> IUT.Bright";
  const auto base = solve(model.system, purpose);

  ExplorationOptions no_extrapolation;
  no_extrapolation.extrapolate = false;
  const auto plain = solve(model.system, purpose, no_extrapolation);
  EXPECT_NE(&plain->graph(), &base->graph());

  ExplorationOptions raised;
  raised.extra_max_constants.assign(model.system.clock_count(), 0);
  raised.extra_max_constants.back() = 50;
  const auto wide = solve(model.system, purpose, raised);
  EXPECT_NE(&wide->graph(), &base->graph());
  EXPECT_NE(&wide->graph(), &plain->graph());

  ExplorationOptions budget;  // equal but for a limit
  budget.max_keys = budget.max_keys - 1;
  EXPECT_NE(&solve(model.system, purpose, budget)->graph(), &base->graph());

  // Equal options share again, and each graph answers its own options.
  EXPECT_EQ(&solve(model.system, "control: A<> IUT.Dim")->graph(),
            &base->graph());
  EXPECT_EQ(&solve(model.system, "control: A<> IUT.Dim", raised)->graph(),
            &wide->graph());
  expect_pinned(*base, pin_for("smart_light.tg", 0, purpose));
}

TEST(SharedGraph, SystemRebuiltAtTheSameAddressDoesNotShare) {
  lang::LoadedModel model = load_pinned_model("lep.tg", 3);
  const auto before = solve(model.system, test_support::kLepTp1);
  const tsystem::System* address = &model.system;
  // The same object, re-finalized: a new model loaded into it.
  model = load_pinned_model("lep.tg", 3);
  ASSERT_EQ(&model.system, address);
  const auto after = solve(model.system, test_support::kLepTp2);
  EXPECT_NE(&after->graph(), &before->graph());
  expect_pinned(*after, pin_for("lep.tg", 3, test_support::kLepTp2));
}

TEST(SharedGraph, MovedSystemDoesNotShare) {
  lang::LoadedModel model = load_pinned_model("lep.tg", 3);
  const auto before = solve(model.system, test_support::kLepTp1);
  const std::uint64_t serial = model.system.serial();
  const tsystem::System moved(std::move(model.system));
  // The stamp travels with the model; the moved-from object keeps none.
  EXPECT_EQ(moved.serial(), serial);
  EXPECT_EQ(model.system.serial(), 0u);
  const auto after = solve(moved, test_support::kLepTp2);
  EXPECT_NE(&after->graph(), &before->graph());
  expect_pinned(*after, pin_for("lep.tg", 3, test_support::kLepTp2));
}

TEST(SharedGraph, ExplorationLimitLeavesNothingBehind) {
  const lang::LoadedModel model = load_pinned_model("lep.tg", 3);
  ExplorationOptions tight;
  tight.max_keys = 40;
  EXPECT_THROW((void)solve(model.system, test_support::kLepTp1, tight),
               ExplorationLimit);
  // Nothing was registered: the same budget explores again, and fails
  // again.
  EXPECT_THROW((void)solve(model.system, test_support::kLepTp2, tight),
               ExplorationLimit);

  obs::enable_metrics();
  obs::metrics().reset();
  const auto solution = solve(model.system, test_support::kLepTp1);
  obs::disable_metrics();
  EXPECT_EQ(obs::metrics().counter("solver.graph_reuses").value(), 0u);
  EXPECT_GT(solution->stats().explore_expand_seconds, 0.0);
  expect_pinned(*solution, pin_for("lep.tg", 3, test_support::kLepTp1));
}

TEST(SharedGraph, LastSolutionFreesTheGraphAndItsBytes) {
  const lang::LoadedModel model = load_pinned_model("lep.tg", 3);
  const std::size_t baseline = util::zone_memory().current();
  std::weak_ptr<const semantics::SymbolicGraph> graph;
  {
    auto first = solve(model.system, test_support::kLepTp1);
    const auto second = solve(model.system, test_support::kLepTp2);
    graph = first->shared_graph();
    EXPECT_EQ(graph.lock().get(), &second->graph());
    EXPECT_GT(util::zone_memory().current(), baseline);
    first.reset();
    EXPECT_FALSE(graph.expired()) << "the second solution still holds it";
  }
  EXPECT_TRUE(graph.expired());
  EXPECT_EQ(util::zone_memory().current(), baseline);
  // With the graph gone, the next solve explores afresh.
  EXPECT_GT(solve(model.system, test_support::kLepTp3)
                ->stats()
                .explore_expand_seconds,
            0.0);
}

TEST(SharedGraph, ConcurrentSolvesOfOneSystemMatchThePins) {
  const lang::LoadedModel model = load_pinned_model("lep.tg", 3);
  const auto solve_both = [&] {
    std::shared_ptr<const GameSolution> a, b;
    std::thread ta([&] { a = solve(model.system, test_support::kLepTp1); });
    std::thread tb([&] { b = solve(model.system, test_support::kLepTp2); });
    ta.join();
    tb.join();
    expect_pinned(*a, pin_for("lep.tg", 3, test_support::kLepTp1));
    expect_pinned(*b, pin_for("lep.tg", 3, test_support::kLepTp2));
    return std::pair{a, b};
  };
  {
    SCOPED_TRACE("both may explore");
    (void)solve_both();
  }
  {
    SCOPED_TRACE("both reuse a held graph");
    const auto held = solve(model.system, test_support::kLepTp3);
    const auto [a, b] = solve_both();
    EXPECT_EQ(&a->graph(), &held->graph());
    EXPECT_EQ(&b->graph(), &held->graph());
  }
}

}  // namespace
}  // namespace tigat::game
