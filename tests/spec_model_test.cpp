/// \file
/// Semantic cross-checks for the two `.mtm` compilers: on every
/// well-formed execution of the paper's fixture programs, the symbolic
/// lowering (SAT) must enumerate exactly the violating executions the
/// concrete interpreter finds. Plus unit coverage for the expression
/// algebra itself, compiled models and the `.mtm` printer.
#include <gtest/gtest.h>

#include <algorithm>

#include "elt/derive.h"
#include "elt/fixtures.h"
#include "mtm/encoding.h"
#include "mtm/model.h"
#include "mtm/spec_printer.h"
#include "spec/compile.h"
#include "spec/eval.h"
#include "spec/parser.h"
#include "spec/registry.h"
#include "synth/exec_enum.h"

namespace transform::spec {
namespace {

using elt::EdgeSet;
using elt::Execution;

mtm::Model
zoo_model(const std::string& name)
{
    std::string error;
    const auto resolved = resolve_model(name, &error);
    EXPECT_TRUE(resolved.has_value()) << error;
    return resolved->model;
}

/// Names of the violated axioms, sorted (mask order == axiom order for
/// both models, but sorting keeps the comparison shape-agnostic).
std::vector<std::string>
sorted_violations(const mtm::Model& model, const Execution& e)
{
    std::vector<std::string> violated = model.violated_axioms(e);
    std::sort(violated.begin(), violated.end());
    return violated;
}

Execution (*const kFixtures[])() = {
    elt::fixtures::fig2a_sb_mcm,
    elt::fixtures::sb_both_reads_zero_mcm,
    elt::fixtures::fig2b_sb_elt,
    elt::fixtures::fig2c_sb_elt_aliased,
    elt::fixtures::fig4_remap_chain,
    elt::fixtures::fig5a_shared_walk,
    elt::fixtures::fig5b_invlpg_forces_walk,
    elt::fixtures::fig6_remap_disambiguation,
    elt::fixtures::fig8_non_minimal_mcm,
    elt::fixtures::fig10a_ptwalk2,
    elt::fixtures::fig10b_dirtybit3,
    elt::fixtures::fig11_new_elt,
};

TEST(SpecEval, ScratchAndScratchlessEvaluationAgree)
{
    const mtm::Model model = zoo_model("x86t_elt");
    const Execution e = elt::fixtures::fig10a_ptwalk2();
    const elt::DerivedRelations d = elt::derive(e, model.derive_options());
    ASSERT_TRUE(d.well_formed);
    elt::CycleScratch scratch;
    for (const mtm::Axiom& axiom : model.axioms()) {
        const bool with = axiom.program->holds(axiom.def->form, e.program,
                                               d, elt::kAllEvents, &scratch);
        const bool without = axiom_holds(*axiom.def, e.program, d, nullptr);
        EXPECT_EQ(with, without) << axiom.name;
        EXPECT_EQ(with, axiom_holds(*axiom.def, e.program, d, &scratch))
            << axiom.name;
        // The arena must balance: everything acquired was released.
        EXPECT_EQ(scratch.spec_pool_live, 0u) << axiom.name;
    }
}

/// The symbolic lowering agrees with the concrete interpreter: per axiom,
/// the SAT backend enumerates exactly the executions of \p fixture's
/// program that the concrete verdict finds violating.
void
expect_symbolic_agreement(const mtm::Model& model, const Execution& fixture)
{
    mtm::EncodingScratch scratch;
    bool any_permitted = false;
    int executions = 0;
    std::vector<int> violating(model.axioms().size(), 0);
    synth::for_each_execution(
        fixture.program, model.vm_aware(), [&](const Execution& e) {
            const std::vector<std::string> violated =
                model.violated_axioms(e);
            any_permitted = any_permitted || violated.empty();
            for (std::size_t i = 0; i < model.axioms().size(); ++i) {
                violating[i] +=
                    std::count(violated.begin(), violated.end(),
                               model.axioms()[i].name) > 0;
            }
            ++executions;
            return true;
        });
    EXPECT_GT(executions, 1);
    for (std::size_t i = 0; i < model.axioms().size(); ++i) {
        const std::string& axiom = model.axioms()[i].name;
        mtm::ProgramEncoding encoding(fixture.program, &model, &scratch);
        const auto symbolic = encoding.enumerate(axiom);
        EXPECT_EQ(static_cast<int>(symbolic.size()), violating[i]) << axiom;
        for (const Execution& e : symbolic) {
            const auto violated = model.violated_axioms(e);
            EXPECT_NE(std::find(violated.begin(), violated.end(), axiom),
                      violated.end());
        }
    }
    mtm::ProgramEncoding encoding(fixture.program, &model, &scratch);
    EXPECT_EQ(encoding.exists_permitted(), any_permitted);
}

TEST(SpecCompile, X86TsoSymbolicSpacesMatchConcreteVerdicts)
{
    expect_symbolic_agreement(zoo_model("x86tso"),
                              elt::fixtures::sb_both_reads_zero_mcm());
}

TEST(SpecCompile, X86tEltSymbolicSpacesMatchConcreteVerdicts)
{
    expect_symbolic_agreement(zoo_model("x86t_elt"),
                              elt::fixtures::fig10a_ptwalk2());
}

TEST(SpecCompile, ScTEltSymbolicSpacesMatchConcreteVerdicts)
{
    expect_symbolic_agreement(zoo_model("sc_t_elt"),
                              elt::fixtures::fig2c_sb_elt_aliased());
}

// ---------------------------------------------------------------------------
// Expression algebra, concretely.
// ---------------------------------------------------------------------------

EdgeSet
eval_on(const char* expr_src, const Execution& e, bool vm)
{
    const std::string source =
        std::string("model t\nvm ") + (vm ? "on" : "off") +
        "\naxiom a: empty(" + expr_src + ")\n";
    Diagnostic diag;
    const auto spec = parse_model(source, &diag);
    EXPECT_TRUE(spec.has_value()) << diag.to_string("<eval_on>");
    const elt::DerivedRelations d = elt::derive(e, {vm});
    EXPECT_TRUE(d.well_formed);
    EdgeSet out;
    eval_expr(*spec->axioms[0].expr, e.program, d, nullptr, &out);
    return out;
}

EdgeSet
sorted(EdgeSet edges)
{
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
}

TEST(SpecEval, BaseAndSetAlgebra)
{
    const Execution e = elt::fixtures::sb_both_reads_zero_mcm();
    const elt::DerivedRelations d = elt::derive(e, {false});

    EXPECT_EQ(eval_on("rf | co | fr", e, false),
              sorted([&] {
                  EdgeSet all = elt::edges_of(d.rf, d.num_events);
                  const EdgeSet co = elt::edges_of(d.co, d.num_events);
                  const EdgeSet fr = elt::edges_of(d.fr, d.num_events);
                  all.insert(all.end(), co.begin(), co.end());
                  all.insert(all.end(), fr.begin(), fr.end());
                  return all;
              }()));
    EXPECT_EQ(eval_on("po & po", e, false), elt::edges_of(d.po, d.num_events));
    EXPECT_EQ(eval_on("po \\ po", e, false), EdgeSet{});
    EXPECT_EQ(eval_on("0", e, false), EdgeSet{});
    // Transpose is an involution.
    EXPECT_EQ(eval_on("rf^-1^-1", e, false), elt::edges_of(d.rf, d.num_events));
    // [W] ; po ; [R] == the W->R po pairs == po \ ppo (TSO's dropped pairs
    // restricted to memory events; in this MCM fixture all events are
    // memory events).
    EXPECT_EQ(eval_on("[W] ; po_mem ; [R]", e, false),
              eval_on("po_mem \\ ppo", e, false));
}

TEST(SpecEval, JoinAndClosure)
{
    const Execution e = elt::fixtures::sb_both_reads_zero_mcm();
    // po is already transitive: closure is a fixed point.
    EXPECT_EQ(eval_on("po^+", e, false), eval_on("po", e, false));
    // Chains: rf ; fr relates a write to the co-successors of its readers'
    // sources — check against a manual join.
    const EdgeSet rf = eval_on("rf", e, false);
    const EdgeSet fr = eval_on("fr", e, false);
    EdgeSet manual;
    for (const auto& [a, b] : rf) {
        for (const auto& [c, dd] : fr) {
            if (b == c) {
                manual.emplace_back(a, dd);
            }
        }
    }
    EXPECT_EQ(eval_on("rf ; fr", e, false), sorted(manual));
    // Closure of a genuine chain: po over one thread of the SB program is
    // {0->1}; its closure adds nothing, but (po | po^-1)^+ relates every
    // same-thread pair both ways.
    const EdgeSet sym = eval_on("(po | po^-1)^+", e, false);
    for (const auto& [a, b] : eval_on("po", e, false)) {
        EXPECT_NE(std::find(sym.begin(), sym.end(), elt::Edge(b, a)),
                  sym.end());
        EXPECT_NE(std::find(sym.begin(), sym.end(), elt::Edge(a, a)),
                  sym.end());
    }
}

TEST(SpecEval, VmRelationsOnFixtures)
{
    const Execution e = elt::fixtures::fig10a_ptwalk2();
    const elt::DerivedRelations d = elt::derive(e, {true});
    EXPECT_EQ(eval_on("fr_va", e, true), elt::edges_of(d.fr_va, d.num_events));
    EXPECT_EQ(eval_on("remap", e, true), elt::edges_of(d.remap, d.num_events));
    EXPECT_EQ(eval_on("rf_ptw", e, true),
              elt::edges_of(d.rf_ptw, d.num_events));
    EXPECT_EQ(eval_on("ghost", e, true), elt::edges_of(d.ghost, d.num_events));
    // Ghost events hang off their parents: ghost ⊆ [M] ; ghost ; [Ghost].
    EXPECT_EQ(eval_on("ghost", e, true),
              eval_on("ghost & ([M] ; ghost ; [Ghost])", e, true));
}

TEST(SpecEval, DeepLetChainsEvaluateInDagTimeNotTreeTime)
{
    // let a1 = a0 ; a0, ..., a25 = a24 ; a24 — a 2^25-node tree but a
    // 26-node DAG. Both compilers must stay linear in the DAG: the
    // concrete evaluator lowers each body once (RowProgram),
    // the encoder memoizes circuits and walks needs with a visited set.
    // Without those, this test (and any user model with shared
    // definitions) hangs rather than fails.
    std::string source = "model deep\nvm off\nlet a0 = po\n";
    constexpr int kDepth = 25;
    for (int i = 1; i <= kDepth; ++i) {
        source += "let a" + std::to_string(i) + " = a" +
                  std::to_string(i - 1) + " ; a" + std::to_string(i - 1) +
                  "\n";
    }
    source += "axiom deep_chain: acyclic(a" + std::to_string(kDepth) +
              " | rf)\n";
    Diagnostic diag;
    const auto spec = parse_model(source, &diag);
    ASSERT_TRUE(spec.has_value()) << diag.to_string("<deep>");
    const mtm::Model model = compile_model(*spec);

    const Execution e = elt::fixtures::sb_both_reads_zero_mcm();
    // po is transitive, so every a_i collapses to po: the axiom is plain
    // acyclic(po | rf) — permitted on this fixture.
    EXPECT_TRUE(model.violated_axioms(e).empty());
    // Concrete expression evaluation terminates and equals po ; po.
    EdgeSet deep;
    eval_expr(*spec->axioms[0].expr->lhs->lhs, e.program,
              elt::derive(e, {false}), nullptr, &deep);
    EXPECT_EQ(deep, eval_on("po ; po", e, false));
    // And the SAT backend builds/solves it without walking the tree.
    mtm::EncodingScratch scratch;
    mtm::ProgramEncoding enc(e.program, &model, &scratch);
    EXPECT_FALSE(enc.exists_violating("deep_chain"));
}

// ---------------------------------------------------------------------------
// Compiled models and printers.
// ---------------------------------------------------------------------------

TEST(SpecCompile, ModelCarriesSpecAndLoweredAxioms)
{
    const mtm::Model model = zoo_model("pso_t_elt");
    EXPECT_EQ(model.name(), "pso_t_elt");
    EXPECT_TRUE(model.vm_aware());
    ASSERT_NE(model.source_spec(), nullptr);
    EXPECT_EQ(model.source_spec()->lets.size(), 2u);
    for (const mtm::Axiom& axiom : model.axioms()) {
        ASSERT_NE(axiom.def, nullptr);
        ASSERT_NE(axiom.def->expr, nullptr);
        ASSERT_NE(axiom.program, nullptr);
    }
    // Copying through the engine's 3-arg constructor keeps the axioms
    // evaluable (the AST is co-owned by each axiom).
    const mtm::Model copy(model.name(), model.vm_aware(), model.axioms());
    const Execution e = elt::fixtures::fig10a_ptwalk2();
    EXPECT_EQ(copy.violated_axioms(e), model.violated_axioms(e));
}

TEST(SpecCompile, ModelToMtmRoundTrips)
{
    for (const char* name :
         {"x86tso", "x86t_elt", "sc_t_elt", "pso.mtm", "pso_t_elt"}) {
        const mtm::Model model = zoo_model(name);
        const std::string source = mtm::model_to_mtm(model);
        Diagnostic diag;
        const auto reparsed = parse_model(source, &diag);
        ASSERT_TRUE(reparsed.has_value())
            << name << ": " << diag.to_string("<model_to_mtm>");
        EXPECT_EQ(reparsed->name, model.name());
        EXPECT_EQ(reparsed->vm, model.vm_aware());
        ASSERT_EQ(reparsed->axioms.size(), model.axioms().size());
        // The re-parsed spec compiles to a model with identical concrete
        // verdicts — printing is semantics-preserving.
        const mtm::Model recompiled = compile_model(*reparsed);
        for (const auto fixture : kFixtures) {
            const Execution e = fixture();
            if (model.vm_aware() ||
                e.program.validate(false).empty()) {
                EXPECT_EQ(sorted_violations(recompiled, e),
                          sorted_violations(model, e))
                    << name;
            }
        }
    }
}

TEST(SpecCompile, AlloyPrinterHandlesExprAxioms)
{
    const mtm::Model model = zoo_model("pso.mtm");
    const std::string alloy = mtm::model_to_alloy(model);
    // The let ppo_pso is inlined, in Alloy's operators.
    EXPECT_NE(alloy.find("pred causality { acyclic[rfe + co + fr + "
                         "(ppo - (W <: iden).po_mem.(W <: iden)) + fence] }"),
              std::string::npos);
}

}  // namespace
}  // namespace transform::spec
