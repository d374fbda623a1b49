#include "rel/bool_factory.h"

#include <algorithm>

#include "util/logging.h"

namespace transform::rel {

BoolFactory::BoolFactory()
{
    nodes_.push_back({Op::kConst, 0, -1});  // kFalseExpr
    nodes_.push_back({Op::kConst, 1, -1});  // kTrueExpr
}

void
BoolFactory::reset()
{
    nodes_.resize(2);    // keep the constants (and the arena's capacity)
    interned_.clear();   // bucket arrays are kept by clear()
    compiled_.clear();
    compiled_for_ = nullptr;
}

ExprId
BoolFactory::intern(Op op, std::int32_t a, std::int32_t b)
{
    const NodeKey key{static_cast<std::uint8_t>(op), a, b};
    const auto it = interned_.find(key);
    if (it != interned_.end()) {
        return it->second;
    }
    const ExprId id = static_cast<ExprId>(nodes_.size());
    nodes_.push_back({op, a, b});
    interned_.emplace(key, id);
    return id;
}

ExprId
BoolFactory::mk_var(sat::Var v)
{
    return intern(Op::kVar, v, -1);
}

ExprId
BoolFactory::mk_not(ExprId a)
{
    if (a == kTrueExpr) {
        return kFalseExpr;
    }
    if (a == kFalseExpr) {
        return kTrueExpr;
    }
    if (nodes_[a].op == Op::kNot) {
        return nodes_[a].a;  // double negation
    }
    return intern(Op::kNot, a, -1);
}

ExprId
BoolFactory::mk_and(ExprId a, ExprId b)
{
    if (a == kFalseExpr || b == kFalseExpr) {
        return kFalseExpr;
    }
    if (a == kTrueExpr) {
        return b;
    }
    if (b == kTrueExpr) {
        return a;
    }
    if (a == b) {
        return a;
    }
    // x AND NOT x == false.
    if (nodes_[a].op == Op::kNot && nodes_[a].a == b) {
        return kFalseExpr;
    }
    if (nodes_[b].op == Op::kNot && nodes_[b].a == a) {
        return kFalseExpr;
    }
    if (a > b) {
        std::swap(a, b);  // canonical operand order improves sharing
    }
    return intern(Op::kAnd, a, b);
}

ExprId
BoolFactory::mk_or(ExprId a, ExprId b)
{
    if (a == kTrueExpr || b == kTrueExpr) {
        return kTrueExpr;
    }
    if (a == kFalseExpr) {
        return b;
    }
    if (b == kFalseExpr) {
        return a;
    }
    if (a == b) {
        return a;
    }
    if (nodes_[a].op == Op::kNot && nodes_[a].a == b) {
        return kTrueExpr;
    }
    if (nodes_[b].op == Op::kNot && nodes_[b].a == a) {
        return kTrueExpr;
    }
    if (a > b) {
        std::swap(a, b);
    }
    return intern(Op::kOr, a, b);
}

sat::Lit
BoolFactory::compile(ExprId id, sat::Solver* solver)
{
    if (compiled_for_ != solver) {
        compiled_.clear();
        compiled_for_ = solver;
    }
    const auto memo = compiled_.find(id);
    if (memo != compiled_.end()) {
        return memo->second;
    }
    const Node& node = nodes_[id];
    sat::Lit result;
    switch (node.op) {
    case Op::kConst: {
        // A dedicated always-true variable backs the constants.
        const sat::Var v = solver->new_var();
        solver->add_unit(sat::Lit(v, false));
        result = sat::Lit(v, node.a == 0);
        break;
    }
    case Op::kVar:
        result = sat::Lit(node.a, false);
        break;
    case Op::kNot:
        result = ~compile(node.a, solver);
        break;
    case Op::kAnd: {
        const sat::Lit a = compile(node.a, solver);
        const sat::Lit b = compile(node.b, solver);
        const sat::Var t = solver->new_var();
        const sat::Lit tl(t, false);
        solver->add_binary(~tl, a);
        solver->add_binary(~tl, b);
        solver->add_ternary(tl, ~a, ~b);
        result = tl;
        break;
    }
    case Op::kOr: {
        const sat::Lit a = compile(node.a, solver);
        const sat::Lit b = compile(node.b, solver);
        const sat::Var t = solver->new_var();
        const sat::Lit tl(t, false);
        solver->add_binary(tl, ~a);
        solver->add_binary(tl, ~b);
        solver->add_ternary(~tl, a, b);
        result = tl;
        break;
    }
    }
    compiled_.emplace(id, result);
    return result;
}

bool
BoolFactory::evaluate(ExprId id, const std::function<bool(sat::Var)>& value_of) const
{
    const Node& node = nodes_[id];
    switch (node.op) {
    case Op::kConst: return node.a == 1;
    case Op::kVar: return value_of(node.a);
    case Op::kNot: return !evaluate(node.a, value_of);
    case Op::kAnd: return evaluate(node.a, value_of) && evaluate(node.b, value_of);
    case Op::kOr: return evaluate(node.a, value_of) || evaluate(node.b, value_of);
    }
    return false;
}

void
BoolFactory::assert_true(ExprId id, sat::Solver* solver)
{
    if (id == kTrueExpr) {
        return;
    }
    if (id == kFalseExpr) {
        solver->add_clause({});  // marks the formula unsatisfiable
        return;
    }
    const Node& node = nodes_[id];
    if (node.op == Op::kAnd) {
        assert_true(node.a, solver);
        assert_true(node.b, solver);
        return;
    }
    if (node.op == Op::kOr) {
        // Flatten the OR spine into one clause.
        std::vector<ExprId> disjuncts;
        std::vector<ExprId> stack{id};
        while (!stack.empty()) {
            const ExprId e = stack.back();
            stack.pop_back();
            if (nodes_[e].op == Op::kOr) {
                stack.push_back(nodes_[e].a);
                stack.push_back(nodes_[e].b);
            } else {
                disjuncts.push_back(e);
            }
        }
        sat::Clause clause;
        clause.reserve(disjuncts.size());
        for (const ExprId d : disjuncts) {
            clause.push_back(compile(d, solver));
        }
        solver->add_clause(std::move(clause));
        return;
    }
    solver->add_unit(compile(id, solver));
}

}  // namespace transform::rel
