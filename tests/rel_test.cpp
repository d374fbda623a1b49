/// \file
/// Unit tests for the relational layer (boolean factory, relation algebra,
/// constraint builders) against the SAT solver.
#include <gtest/gtest.h>

#include "rel/bool_factory.h"
#include "rel/constraints.h"
#include "rel/relation.h"
#include "sat/solver.h"

namespace transform::rel {
namespace {

TEST(BoolFactory, ConstantFolding)
{
    BoolFactory f;
    const ExprId t = f.mk_const(true);
    const ExprId fa = f.mk_const(false);
    EXPECT_EQ(f.mk_and(t, fa), kFalseExpr);
    EXPECT_EQ(f.mk_or(t, fa), kTrueExpr);
    EXPECT_EQ(f.mk_not(t), kFalseExpr);
    EXPECT_EQ(f.mk_not(f.mk_not(t)), kTrueExpr);
}

TEST(BoolFactory, HashConsingShares)
{
    BoolFactory f;
    sat::Solver s;
    const ExprId a = f.mk_var(s.new_var());
    const ExprId b = f.mk_var(s.new_var());
    const ExprId ab1 = f.mk_and(a, b);
    const ExprId ab2 = f.mk_and(b, a);  // canonical operand order
    EXPECT_EQ(ab1, ab2);
}

TEST(BoolFactory, ComplementRules)
{
    BoolFactory f;
    sat::Solver s;
    const ExprId a = f.mk_var(s.new_var());
    EXPECT_EQ(f.mk_and(a, f.mk_not(a)), kFalseExpr);
    EXPECT_EQ(f.mk_or(a, f.mk_not(a)), kTrueExpr);
    EXPECT_EQ(f.mk_and(a, a), a);
    EXPECT_EQ(f.mk_or(a, a), a);
}

TEST(BoolFactory, TseitinSatisfiability)
{
    BoolFactory f;
    sat::Solver s;
    const ExprId a = f.mk_var(s.new_var());
    const ExprId b = f.mk_var(s.new_var());
    // (a AND NOT b) must be satisfiable and force values.
    f.assert_true(f.mk_and(a, f.mk_not(b)), &s);
    ASSERT_EQ(s.solve(), sat::SolveResult::kSat);
    EXPECT_EQ(s.model_value(0), sat::LBool::kTrue);
    EXPECT_EQ(s.model_value(1), sat::LBool::kFalse);
}

TEST(BoolFactory, AssertFalseMakesUnsat)
{
    BoolFactory f;
    sat::Solver s;
    f.assert_true(kFalseExpr, &s);
    EXPECT_EQ(s.solve(), sat::SolveResult::kUnsat);
}

TEST(BoolFactory, XorSemantics)
{
    BoolFactory f;
    sat::Solver s;
    const sat::Var va = s.new_var();
    const sat::Var vb = s.new_var();
    const ExprId a = f.mk_var(va);
    const ExprId b = f.mk_var(vb);
    f.assert_true(f.mk_xor(a, b), &s);
    f.assert_true(a, &s);
    ASSERT_EQ(s.solve(), sat::SolveResult::kSat);
    EXPECT_EQ(s.model_value(vb), sat::LBool::kFalse);
}

TEST(BoolFactory, ExactlyOne)
{
    BoolFactory f;
    sat::Solver s;
    std::vector<ExprId> terms;
    std::vector<sat::Var> vars;
    for (int i = 0; i < 4; ++i) {
        vars.push_back(s.new_var());
        terms.push_back(f.mk_var(vars.back()));
    }
    f.assert_true(f.mk_exactly_one(terms), &s);
    ASSERT_EQ(s.solve(), sat::SolveResult::kSat);
    int trues = 0;
    for (const sat::Var v : vars) {
        trues += s.model_value(v) == sat::LBool::kTrue ? 1 : 0;
    }
    EXPECT_EQ(trues, 1);
}

TEST(BoolFactory, EvaluateMatchesSemantics)
{
    BoolFactory f;
    sat::Solver s;
    const sat::Var va = s.new_var();
    const sat::Var vb = s.new_var();
    const ExprId expr =
        f.mk_or(f.mk_and(f.mk_var(va), f.mk_not(f.mk_var(vb))),
                f.mk_const(false));
    auto value_of = [](bool a, bool b) {
        return [a, b](sat::Var v) { return v == 0 ? a : b; };
    };
    EXPECT_TRUE(f.evaluate(expr, value_of(true, false)));
    EXPECT_FALSE(f.evaluate(expr, value_of(true, true)));
    EXPECT_FALSE(f.evaluate(expr, value_of(false, false)));
}

TEST(Relation, ConstantJoin)
{
    BoolFactory f;
    // r = {(0,1)}, s = {(1,2)}: r.s = {(0,2)}.
    const RelExpr r = RelExpr::constant(&f, 3, {{0, 1}});
    const RelExpr s = RelExpr::constant(&f, 3, {{1, 2}});
    const RelExpr joined = r.join(&f, s);
    EXPECT_EQ(joined.at(0, 2), kTrueExpr);
    EXPECT_EQ(joined.at(0, 1), kFalseExpr);
    EXPECT_EQ(joined.at(1, 2), kFalseExpr);
}

TEST(Relation, TransposeConstant)
{
    BoolFactory f;
    const RelExpr r = RelExpr::constant(&f, 2, {{0, 1}});
    const RelExpr t = r.transpose(&f);
    EXPECT_EQ(t.at(1, 0), kTrueExpr);
    EXPECT_EQ(t.at(0, 1), kFalseExpr);
}

TEST(Relation, ClosureOfChain)
{
    BoolFactory f;
    const RelExpr r = RelExpr::constant(&f, 4, {{0, 1}, {1, 2}, {2, 3}});
    const RelExpr c = r.closure(&f);
    EXPECT_EQ(c.at(0, 3), kTrueExpr);
    EXPECT_EQ(c.at(0, 2), kTrueExpr);
    EXPECT_EQ(c.at(3, 0), kFalseExpr);
    EXPECT_EQ(c.at(0, 0), kFalseExpr);
}

TEST(Relation, AcyclicDetectsCycleConstant)
{
    BoolFactory f;
    const RelExpr cyclic = RelExpr::constant(&f, 3, {{0, 1}, {1, 2}, {2, 0}});
    EXPECT_EQ(cyclic.acyclic(&f), kFalseExpr);
    const RelExpr dag = RelExpr::constant(&f, 3, {{0, 1}, {1, 2}});
    EXPECT_EQ(dag.acyclic(&f), kTrueExpr);
}

TEST(Relation, FreeRelationAcyclicAgreesWithOrderEncoding)
{
    // For every assignment, closure-based acyclicity and the rank-order
    // encoding accept exactly the same relations. Enumerate a free 3x3
    // relation constrained acyclic by the rank encoding; check the closure
    // formula agrees on every model, and that the model count equals the
    // number of DAGs on 3 labelled nodes (25).
    BoolFactory f;
    sat::Solver s;
    const int n = 3;
    const RelExpr r = RelExpr::free(&f, &s, n);
    assert_acyclic_with_order(&f, &s, r);
    const ExprId closure_acyclic = r.acyclic(&f);

    std::vector<sat::Var> projection;
    for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b) {
            projection.push_back(a * n + b);  // entry vars are the first 9
        }
    }
    int models = 0;
    while (s.solve() == sat::SolveResult::kSat) {
        ++models;
        EXPECT_TRUE(f.evaluate(closure_acyclic, [&](sat::Var v) {
            return s.model_value(v) == sat::LBool::kTrue;
        }));
        sat::Clause blocking;
        for (const sat::Var v : projection) {
            blocking.push_back(
                sat::Lit(v, s.model_value(v) == sat::LBool::kTrue));
        }
        if (!s.add_clause(blocking)) {
            break;
        }
        if (models > 100) {
            break;  // safety net
        }
    }
    EXPECT_EQ(models, 25);  // DAGs on 3 labelled vertices
}

TEST(Relation, StrictTotalOrderCountsPermutations)
{
    BoolFactory f;
    sat::Solver s;
    const int n = 3;
    const RelExpr r = RelExpr::free(&f, &s, n);
    const SetExpr all = SetExpr::constant(&f, n, {0, 1, 2});
    f.assert_true(r.strict_total_order_on(&f, all), &s);
    int models = 0;
    while (s.solve() == sat::SolveResult::kSat && models <= 10) {
        ++models;
        sat::Clause blocking;
        for (int v = 0; v < n * n; ++v) {
            blocking.push_back(
                sat::Lit(v, s.model_value(v) == sat::LBool::kTrue));
        }
        if (!s.add_clause(blocking)) {
            break;
        }
    }
    EXPECT_EQ(models, 6);  // 3! total orders
}

TEST(Relation, FunctionalOnForcesUniqueTarget)
{
    BoolFactory f;
    sat::Solver s;
    const int n = 3;
    const RelExpr r = RelExpr::free(&f, &s, n);
    const SetExpr domain = SetExpr::constant(&f, n, {0});
    const SetExpr range = SetExpr::constant(&f, n, {1, 2});
    f.assert_true(r.functional_on(&f, domain, range), &s);
    ASSERT_EQ(s.solve(), sat::SolveResult::kSat);
    int targets = 0;
    for (int b = 0; b < n; ++b) {
        targets += s.model_value(0 * n + b) == sat::LBool::kTrue ? 1 : 0;
    }
    EXPECT_EQ(targets, 1);
    // Nothing outside the domain maps anywhere.
    for (int b = 0; b < n; ++b) {
        EXPECT_NE(s.model_value(1 * n + b), sat::LBool::kTrue);
        EXPECT_NE(s.model_value(2 * n + b), sat::LBool::kTrue);
    }
}

TEST(SetExpr, AlgebraOnConstants)
{
    BoolFactory f;
    const SetExpr a = SetExpr::constant(&f, 4, {0, 1});
    const SetExpr b = SetExpr::constant(&f, 4, {1, 2});
    EXPECT_EQ(a.set_union(&f, b).at(2), kTrueExpr);
    EXPECT_EQ(a.set_intersect(&f, b).at(1), kTrueExpr);
    EXPECT_EQ(a.set_intersect(&f, b).at(0), kFalseExpr);
    EXPECT_EQ(a.set_minus(&f, b).at(0), kTrueExpr);
    EXPECT_EQ(a.set_minus(&f, b).at(1), kFalseExpr);
    EXPECT_EQ(a.subset_of(&f, a.set_union(&f, b)), kTrueExpr);
}

}  // namespace
}  // namespace transform::rel
