#include "tsystem/expr.h"

#include <limits>

#include "util/assert.h"
#include "util/text.h"

namespace tigat::tsystem {

struct ExprNode {
  Expr::Kind kind;
  std::int64_t payload = 0;   // constant / bound depth / quantifier lo
  std::int64_t payload2 = 0;  // quantifier hi
  VarId var{};
  std::shared_ptr<const ExprNode> lhs;
  std::shared_ptr<const ExprNode> rhs;
};

Expr Expr::constant(std::int64_t value) {
  auto n = std::make_shared<ExprNode>();
  n->kind = Kind::kConst;
  n->payload = value;
  return Expr(std::move(n));
}

Expr Expr::var(VarId id) {
  auto n = std::make_shared<ExprNode>();
  n->kind = Kind::kVar;
  n->var = id;
  return Expr(std::move(n));
}

Expr Expr::var(VarId id, Expr index) {
  auto n = std::make_shared<ExprNode>();
  n->kind = Kind::kVar;
  n->var = id;
  n->lhs = std::move(index.node_);
  return Expr(std::move(n));
}

Expr Expr::bound_var(std::uint32_t depth) {
  auto n = std::make_shared<ExprNode>();
  n->kind = Kind::kBoundVar;
  n->payload = depth;
  return Expr(std::move(n));
}

Expr Expr::binary(Kind op, Expr lhs, Expr rhs) {
  TIGAT_ASSERT(!lhs.is_null() && !rhs.is_null(), "binary op on null expr");
  auto n = std::make_shared<ExprNode>();
  n->kind = op;
  n->lhs = std::move(lhs.node_);
  n->rhs = std::move(rhs.node_);
  return Expr(std::move(n));
}

Expr Expr::unary(Kind op, Expr operand) {
  TIGAT_ASSERT(!operand.is_null(), "unary op on null expr");
  auto n = std::make_shared<ExprNode>();
  n->kind = op;
  n->lhs = std::move(operand.node_);
  return Expr(std::move(n));
}

Expr Expr::forall(std::int64_t lo, std::int64_t hi, Expr body) {
  auto n = std::make_shared<ExprNode>();
  n->kind = Kind::kForall;
  n->payload = lo;
  n->payload2 = hi;
  n->lhs = std::move(body.node_);
  return Expr(std::move(n));
}

Expr Expr::exists(std::int64_t lo, std::int64_t hi, Expr body) {
  auto n = std::make_shared<ExprNode>();
  n->kind = Kind::kExists;
  n->payload = lo;
  n->payload2 = hi;
  n->lhs = std::move(body.node_);
  return Expr(std::move(n));
}

Expr::Kind Expr::kind() const {
  TIGAT_ASSERT(node_ != nullptr, "kind() of null expr");
  return node_->kind;
}

namespace {

std::int64_t eval_node(const ExprNode* n, const DataState& state,
                       const DataLayout& layout, BoundEnv& env);

std::int64_t eval_child(const std::shared_ptr<const ExprNode>& n,
                        const DataState& state, const DataLayout& layout,
                        BoundEnv& env) {
  return eval_node(n.get(), state, layout, env);
}

[[noreturn]] void throw_overflow() {
  throw ModelError("integer overflow in expression");
}

std::int64_t eval_node(const ExprNode* n, const DataState& state,
                       const DataLayout& layout, BoundEnv& env) {
  using Kind = Expr::Kind;
  switch (n->kind) {
    case Kind::kConst:
      return n->payload;
    case Kind::kVar: {
      std::int64_t index = 0;
      if (n->lhs) index = eval_child(n->lhs, state, layout, env);
      return state.get(layout.slot_of(n->var, index));
    }
    case Kind::kBoundVar: {
      const auto depth = static_cast<std::size_t>(n->payload);
      if (depth >= env.size()) {
        throw ModelError("unbound quantifier variable in expression");
      }
      return env[env.size() - 1 - depth];
    }
    case Kind::kAdd: {
      std::int64_t r = 0;
      if (__builtin_add_overflow(eval_child(n->lhs, state, layout, env),
                                 eval_child(n->rhs, state, layout, env), &r)) {
        throw_overflow();
      }
      return r;
    }
    case Kind::kSub: {
      std::int64_t r = 0;
      if (__builtin_sub_overflow(eval_child(n->lhs, state, layout, env),
                                 eval_child(n->rhs, state, layout, env), &r)) {
        throw_overflow();
      }
      return r;
    }
    case Kind::kMul: {
      std::int64_t r = 0;
      if (__builtin_mul_overflow(eval_child(n->lhs, state, layout, env),
                                 eval_child(n->rhs, state, layout, env), &r)) {
        throw_overflow();
      }
      return r;
    }
    case Kind::kDiv: {
      const std::int64_t d = eval_child(n->rhs, state, layout, env);
      if (d == 0) throw ModelError("division by zero in expression");
      const std::int64_t a = eval_child(n->lhs, state, layout, env);
      if (d == -1 && a == std::numeric_limits<std::int64_t>::min()) {
        throw_overflow();
      }
      return a / d;
    }
    case Kind::kMod: {
      const std::int64_t d = eval_child(n->rhs, state, layout, env);
      if (d == 0) throw ModelError("modulo by zero in expression");
      const std::int64_t a = eval_child(n->lhs, state, layout, env);
      if (d == -1 && a == std::numeric_limits<std::int64_t>::min()) {
        throw_overflow();
      }
      return a % d;
    }
    case Kind::kNeg: {
      std::int64_t r = 0;
      if (__builtin_sub_overflow(std::int64_t{0},
                                 eval_child(n->lhs, state, layout, env), &r)) {
        throw_overflow();
      }
      return r;
    }
    case Kind::kEq:
      return eval_child(n->lhs, state, layout, env) ==
             eval_child(n->rhs, state, layout, env);
    case Kind::kNe:
      return eval_child(n->lhs, state, layout, env) !=
             eval_child(n->rhs, state, layout, env);
    case Kind::kLt:
      return eval_child(n->lhs, state, layout, env) <
             eval_child(n->rhs, state, layout, env);
    case Kind::kLe:
      return eval_child(n->lhs, state, layout, env) <=
             eval_child(n->rhs, state, layout, env);
    case Kind::kGt:
      return eval_child(n->lhs, state, layout, env) >
             eval_child(n->rhs, state, layout, env);
    case Kind::kGe:
      return eval_child(n->lhs, state, layout, env) >=
             eval_child(n->rhs, state, layout, env);
    case Kind::kAnd:
      return eval_child(n->lhs, state, layout, env) != 0 &&
             eval_child(n->rhs, state, layout, env) != 0;
    case Kind::kOr:
      return eval_child(n->lhs, state, layout, env) != 0 ||
             eval_child(n->rhs, state, layout, env) != 0;
    case Kind::kNot:
      return eval_child(n->lhs, state, layout, env) == 0;
    case Kind::kForall: {
      for (std::int64_t i = n->payload; i <= n->payload2; ++i) {
        env.push_back(i);
        const bool ok = eval_child(n->lhs, state, layout, env) != 0;
        env.pop_back();
        if (!ok) return 0;
      }
      return 1;
    }
    case Kind::kExists: {
      for (std::int64_t i = n->payload; i <= n->payload2; ++i) {
        env.push_back(i);
        const bool ok = eval_child(n->lhs, state, layout, env) != 0;
        env.pop_back();
        if (ok) return 1;
      }
      return 0;
    }
  }
  TIGAT_ASSERT(false, "unreachable expression kind");
  return 0;
}

std::string print_node(const ExprNode* n, const DataLayout& layout,
                       std::uint32_t binder_depth);

std::string print_child(const std::shared_ptr<const ExprNode>& n,
                        const DataLayout& layout, std::uint32_t depth) {
  return print_node(n.get(), layout, depth);
}

std::string print_node(const ExprNode* n, const DataLayout& layout,
                       std::uint32_t binder_depth) {
  using Kind = Expr::Kind;
  const auto binop = [&](const char* op) {
    return "(" + print_child(n->lhs, layout, binder_depth) + op +
           print_child(n->rhs, layout, binder_depth) + ")";
  };
  switch (n->kind) {
    case Kind::kConst:
      return std::to_string(n->payload);
    case Kind::kVar: {
      const auto& d = layout.decl(n->var);
      if (n->lhs) {
        return d.name + "[" + print_child(n->lhs, layout, binder_depth) + "]";
      }
      return d.name;
    }
    case Kind::kBoundVar: {
      // Bound variables print as i0, i1, ... outermost-first.
      const auto level = binder_depth - 1 - static_cast<std::uint32_t>(n->payload);
      return util::format("i%u", level);
    }
    case Kind::kAdd: return binop("+");
    case Kind::kSub: return binop("-");
    case Kind::kMul: return binop("*");
    case Kind::kDiv: return binop("/");
    case Kind::kMod: return binop("%");
    case Kind::kNeg: return "-" + print_child(n->lhs, layout, binder_depth);
    case Kind::kEq: return binop("==");
    case Kind::kNe: return binop("!=");
    case Kind::kLt: return binop("<");
    case Kind::kLe: return binop("<=");
    case Kind::kGt: return binop(">");
    case Kind::kGe: return binop(">=");
    case Kind::kAnd: return binop(" && ");
    case Kind::kOr: return binop(" || ");
    case Kind::kNot: return "!" + print_child(n->lhs, layout, binder_depth);
    case Kind::kForall:
    case Kind::kExists: {
      const char* q = n->kind == Kind::kForall ? "forall" : "exists";
      const std::string body = print_child(n->lhs, layout, binder_depth + 1);
      return util::format("%s (i%u : %lld..%lld) ", q, binder_depth,
                          static_cast<long long>(n->payload),
                          static_cast<long long>(n->payload2)) +
             body;
    }
  }
  return "?";
}

}  // namespace

std::int64_t Expr::eval(const DataState& state, const DataLayout& layout,
                        BoundEnv& env) const {
  TIGAT_ASSERT(node_ != nullptr, "eval of null expr");
  return eval_node(node_.get(), state, layout, env);
}

std::string Expr::to_string(const DataLayout& layout) const {
  if (is_null()) return "true";
  return print_node(node_.get(), layout, 0);
}

}  // namespace tigat::tsystem
