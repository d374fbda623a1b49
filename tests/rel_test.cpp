/// \file
/// Unit tests for the relational layer (boolean factory, relation algebra)
/// against the SAT solver.
#include <gtest/gtest.h>

#include <cstdint>

#include "elt/derive.h"
#include "rel/bool_factory.h"
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

TEST(Relation, FreeRelationAcyclicAgreesWithRowCycleCheck)
{
    // Every relation over 3 and 4 atoms, enumerated once under the closure
    // formula and once under its negation: elt::rows_have_cycle, the
    // verdict kernel's independent check, must agree on each model, and
    // the acyclic sweep must find exactly the labelled DAGs.
    const std::uint64_t dags[] = {1, 1, 3, 25, 543};
    for (const int n : {3, 4}) {
        for (const bool acyclic : {true, false}) {
            BoolFactory f;
            sat::Solver s;
            const RelExpr r = RelExpr::free(&f, &s, n);
            const ExprId formula = r.acyclic(&f);
            f.assert_true(acyclic ? formula : f.mk_not(formula), &s);
            std::uint64_t models = 0;
            sat::Clause blocking;
            sat::SolveResult verdict = s.solve();
            while (verdict == sat::SolveResult::kSat) {
                elt::BitRows rows{};
                blocking.clear();
                for (int a = 0; a < n; ++a) {
                    for (int b = 0; b < n; ++b) {
                        const sat::Var v = a * n + b;  // r.at(a, b)
                        const bool holds =
                            s.model_value(v) == sat::LBool::kTrue;
                        rows[a] |= holds ? elt::BitRow{1} << b : 0;
                        blocking.push_back(sat::Lit(v, holds));
                    }
                }
                EXPECT_EQ(elt::rows_have_cycle(rows.data(), n), !acyclic)
                    << n << " atoms, model " << models;
                ++models;
                verdict = s.block_and_resolve(blocking.data(),
                                              blocking.size(), {});
            }
            EXPECT_EQ(verdict, sat::SolveResult::kUnsat);
            const std::uint64_t all = std::uint64_t{1} << (n * n);
            EXPECT_EQ(models, acyclic ? dags[n] : all - dags[n]) << n;
        }
    }
}

}  // namespace
}  // namespace transform::rel
