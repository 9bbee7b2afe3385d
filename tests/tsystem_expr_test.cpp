// Tests for data declarations (DataLayout/DataState) and the integer
// expression AST.
#include <gtest/gtest.h>

#include <limits>

#include "tsystem/data.h"
#include "tsystem/expr.h"

namespace tigat::tsystem {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprTest() {
    a_ = layout_.add_scalar("a", -10, 10, 3);
    b_ = layout_.add_scalar("b", 0, 100, 7);
    arr_ = layout_.add_array("arr", 4, 0, 9, 1);
    state_ = layout_.initial_state();
  }
  DataLayout layout_;
  VarId a_, b_, arr_;
  DataState state_;
};

TEST_F(ExprTest, LayoutSlots) {
  EXPECT_EQ(layout_.slot_count(), 6u);
  EXPECT_EQ(layout_.decl(arr_).size, 4u);
  EXPECT_EQ(layout_.slot_name(0), "a");
  EXPECT_EQ(layout_.slot_name(3), "arr[1]");
  EXPECT_TRUE(layout_.find("arr").has_value());
  EXPECT_FALSE(layout_.find("nope").has_value());
}

TEST_F(ExprTest, InitialState) {
  EXPECT_EQ(state_.get(0), 3);
  EXPECT_EQ(state_.get(1), 7);
  for (std::uint32_t k = 0; k < 4; ++k) EXPECT_EQ(state_.get(2 + k), 1);
}

TEST_F(ExprTest, ArithmeticAndComparison) {
  const Expr e = (Expr::var(a_) + Expr::var(b_)) * lit(2);
  EXPECT_EQ(e.eval(state_, layout_), 20);
  EXPECT_EQ((Expr::var(a_) < Expr::var(b_)).eval(state_, layout_), 1);
  EXPECT_EQ((Expr::var(a_) == lit(3)).eval(state_, layout_), 1);
  EXPECT_EQ((Expr::var(a_) != lit(3)).eval(state_, layout_), 0);
  EXPECT_EQ((lit(7) % lit(4)).eval(state_, layout_), 3);
  EXPECT_EQ((-Expr::var(a_)).eval(state_, layout_), -3);
}

TEST_F(ExprTest, ArithmeticOverflowIsAModelError) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_THROW((void)(lit(kMax) + lit(1)).eval(state_, layout_), ModelError);
  EXPECT_THROW((void)(lit(kMin) - lit(1)).eval(state_, layout_), ModelError);
  EXPECT_THROW((void)(lit(kMax) * lit(2)).eval(state_, layout_), ModelError);
  EXPECT_THROW((void)(-lit(kMin)).eval(state_, layout_), ModelError);
  EXPECT_THROW((void)(lit(kMin) / lit(-1)).eval(state_, layout_), ModelError);
  EXPECT_THROW((void)(lit(kMin) % lit(-1)).eval(state_, layout_), ModelError);
  // The largest in-range results still evaluate.
  EXPECT_EQ((lit(kMax - 1) + lit(1)).eval(state_, layout_), kMax);
  EXPECT_EQ((-lit(kMax)).eval(state_, layout_), -kMax);
  EXPECT_EQ((lit(kMin) / lit(1)).eval(state_, layout_), kMin);
}

TEST_F(ExprTest, BooleansShortCircuitSemantics) {
  const Expr t = lit(1);
  const Expr f = lit(0);
  EXPECT_EQ((t && f).eval(state_, layout_), 0);
  EXPECT_EQ((t || f).eval(state_, layout_), 1);
  EXPECT_EQ((!t).eval(state_, layout_), 0);
  // Short circuit: rhs division by zero must not fire.
  const Expr danger = lit(1) / lit(0);
  EXPECT_EQ((f && danger).eval(state_, layout_), 0);
  EXPECT_EQ((t || danger).eval(state_, layout_), 1);
}

TEST_F(ExprTest, DivisionByZeroThrows) {
  EXPECT_THROW((void)(lit(1) / lit(0)).eval(state_, layout_), ModelError);
  EXPECT_THROW((void)(lit(1) % lit(0)).eval(state_, layout_), ModelError);
}

TEST_F(ExprTest, ArrayAccess) {
  state_.set(layout_.slot_of(arr_, 2), 5);
  const Expr e = Expr::var(arr_, lit(2));
  EXPECT_EQ(e.eval(state_, layout_), 5);
  const Expr via_index = Expr::var(arr_, Expr::var(a_) - lit(1));  // arr[2]
  EXPECT_EQ(via_index.eval(state_, layout_), 5);
}

TEST_F(ExprTest, ArrayIndexOutOfRangeThrows) {
  EXPECT_THROW((void)Expr::var(arr_, lit(4)).eval(state_, layout_), ModelError);
  EXPECT_THROW((void)Expr::var(arr_, lit(-1)).eval(state_, layout_),
               ModelError);
}

TEST_F(ExprTest, ForallExists) {
  // arr = {1,1,1,1} initially.
  const Expr all_one =
      Expr::forall(0, 3, Expr::var(arr_, Expr::bound_var(0)) == lit(1));
  EXPECT_EQ(all_one.eval(state_, layout_), 1);
  state_.set(layout_.slot_of(arr_, 3), 2);
  EXPECT_EQ(all_one.eval(state_, layout_), 0);
  const Expr some_two =
      Expr::exists(0, 3, Expr::var(arr_, Expr::bound_var(0)) == lit(2));
  EXPECT_EQ(some_two.eval(state_, layout_), 1);
}

TEST_F(ExprTest, NestedQuantifiersUseDeBruijnDepth) {
  // exists i: forall j: arr[i] >= arr[j]  (some maximal element) — true.
  const Expr inner = Expr::var(arr_, Expr::bound_var(1)) >=
                     Expr::var(arr_, Expr::bound_var(0));
  const Expr formula = Expr::exists(0, 3, Expr::forall(0, 3, inner));
  EXPECT_EQ(formula.eval(state_, layout_), 1);
  // A strictly-greater variant is false on the all-equal array.
  const Expr strict = Expr::exists(
      0, 3,
      Expr::forall(0, 3, Expr::var(arr_, Expr::bound_var(1)) >
                             Expr::var(arr_, Expr::bound_var(0))));
  EXPECT_EQ(strict.eval(state_, layout_), 0);
}

TEST_F(ExprTest, CheckedStoreEnforcesBounds) {
  layout_.checked_store(state_, a_, 0, -10);
  EXPECT_EQ(state_.get(0), -10);
  EXPECT_THROW(layout_.checked_store(state_, a_, 0, 11), ModelError);
  EXPECT_THROW(layout_.checked_store(state_, arr_, 5, 1), ModelError);
}

TEST_F(ExprTest, DuplicateAndBadDeclarationsThrow) {
  EXPECT_THROW(layout_.add_scalar("a", 0, 1, 0), ModelError);
  EXPECT_THROW(layout_.add_scalar("z", 5, 1, 5), ModelError);
  EXPECT_THROW(layout_.add_scalar("y", 0, 1, 2), ModelError);
  EXPECT_THROW(layout_.add_array("w", 0, 0, 1, 0), ModelError);
}

TEST_F(ExprTest, HashAndEquality) {
  const DataState s1 = layout_.initial_state();
  DataState s2 = layout_.initial_state();
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.hash(), s2.hash());
  s2.set(0, 9);
  EXPECT_NE(s1, s2);
}

TEST_F(ExprTest, ToStringRoundtrip) {
  const Expr e = (Expr::var(a_) + lit(1)) * Expr::var(arr_, lit(0)) >= lit(4);
  const std::string s = e.to_string(layout_);
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("arr[0]"), std::string::npos);
  EXPECT_NE(s.find(">="), std::string::npos);
  const Expr q = Expr::forall(0, 3, Expr::var(arr_, Expr::bound_var(0)) == lit(1));
  EXPECT_NE(q.to_string(layout_).find("forall (i0 : 0..3)"), std::string::npos);
}

TEST_F(ExprTest, NullExprIsTrueGuard) {
  const Expr none;
  EXPECT_TRUE(none.is_null());
  EXPECT_TRUE(none.eval_bool(state_, layout_));
}

}  // namespace
}  // namespace tigat::tsystem
