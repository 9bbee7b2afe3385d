// Golden digests of solved games.
//
// Each case solves shipped models and purposes at 1, 2 and 8 solver
// threads and checks the solution and .tgs digests against the pins in
// support/solution_digest.h.  The pinned values were recorded when the
// solver still had two zone stores (plain Fed arrays and the
// dictionary-compressed pool) and both produced these exact digests,
// so a change to storage, numbering, member order or compilation that
// alters any solution shows up here as a mismatch.
//
// Two paths are pinned: SolverDigest drops each solution before the
// next solve, so every solve explores its own zone graph;
// SolverDigestShared keeps every solution of one loaded model alive,
// so all purposes after the first run their fixpoint over the graph
// the first one explored (SymbolicGraph::explored).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "game/solver.h"
#include "support/solution_digest.h"

namespace tigat::game {
namespace {

using test_support::kPins;
using test_support::load_pinned_model;
using test_support::Pin;
using test_support::solution_digest;
using test_support::table_digest;

std::shared_ptr<const GameSolution> solve(const tsystem::System& system,
                                          const char* purpose,
                                          unsigned threads) {
  SolverOptions options;
  options.threads = threads;
  return GameSolver(system, tsystem::TestPurpose::parse(system, purpose),
                    options)
      .solve();
}

class SolverDigest : public ::testing::TestWithParam<Pin> {};

TEST_P(SolverDigest, MatchesPinAtEveryThreadCount) {
  const Pin& pin = GetParam();
  const lang::LoadedModel model = load_pinned_model(pin.model, pin.n);
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto solution = solve(model.system, pin.purpose, threads);
    EXPECT_EQ(solution_digest(*solution), pin.solution);
    EXPECT_EQ(table_digest(*solution), pin.table);
  }
}

INSTANTIATE_TEST_SUITE_P(Pinned, SolverDigest, ::testing::ValuesIn(kPins));

// decision::compile cuts the keys into blocks of 256 and merges them;
// the Smart Light safety purposes above fit in one block, so this
// safety purpose over LEP N=3 (1,377 keys, six blocks) pins the merge
// of safety leaves, their danger slices and boundary acts.  Recorded
// from the serial compiler that predates the blocks.
TEST(SolverDigestSafety, LepSafetyAcrossCompileBlocks) {
  const lang::LoadedModel model = load_pinned_model("lep.tg", 3);
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto solution =
        solve(model.system, "control: A[] !IUT.leader", threads);
    ASSERT_GT(solution->graph().key_count(), 5u * 256u);
    EXPECT_EQ(solution_digest(*solution), "a289c86dd883476c");
    EXPECT_EQ(table_digest(*solution), "3dcdb64f1fc4b6c3");
  }
}

struct Model {
  const char* file;  // under examples/models
  std::int64_t n;    // --param N (0: the file's default)
};

void PrintTo(const Model& model, std::ostream* os) {
  *os << model.file << " N=" << model.n;
}

class SolverDigestShared : public ::testing::TestWithParam<Model> {};

TEST_P(SolverDigestShared, AllPurposesOfOneModelShareOneGraph) {
  const Model& m = GetParam();
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Loaded per thread count, so each count explores once itself.
    const lang::LoadedModel model = load_pinned_model(m.file, m.n);
    std::vector<std::shared_ptr<const GameSolution>> solutions;
    for (const Pin& pin : kPins) {
      if (std::strcmp(pin.model, m.file) != 0 || pin.n != m.n) continue;
      SCOPED_TRACE(pin.purpose);
      solutions.push_back(solve(model.system, pin.purpose, threads));
      EXPECT_EQ(solution_digest(*solutions.back()), pin.solution);
      EXPECT_EQ(table_digest(*solutions.back()), pin.table);
    }
    ASSERT_EQ(solutions.size(), 3u);
    for (const auto& solution : solutions) {
      EXPECT_EQ(&solution->graph(), &solutions.front()->graph());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pinned, SolverDigestShared,
                         ::testing::Values(Model{"smart_light.tg", 0},
                                           Model{"lep.tg", 3},
                                           Model{"lep.tg", 4}));

}  // namespace
}  // namespace tigat::game
