/// \file
/// Unit tests for the spanning-set criteria (interesting + minimal), and
/// for the judge's three steps against a reference that rebuilds every
/// relaxation.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "elt/derive.h"
#include "elt/fixtures.h"
#include "elt/serialize.h"
#include "mtm/model.h"
#include "mtm/relax.h"
#include "spec/compile.h"
#include "spec/parser.h"
#include "spec/registry.h"
#include "synth/engine.h"
#include "synth/exec_enum.h"
#include "synth/minimality.h"
#include "synth/skeleton.h"

namespace transform::synth {
namespace {

using elt::EventId;
using elt::Execution;
using elt::kNone;

TEST(Minimality, ContainsWrite)
{
    EXPECT_TRUE(contains_write(elt::fixtures::fig10a_ptwalk2().program));
    EXPECT_TRUE(contains_write(elt::fixtures::fig2b_sb_elt().program));
    // A lone read (with its walk) has no writes.
    elt::ProgramBuilder b;
    b.thread();
    const auto r = b.R(0);
    b.rptw(r);
    EXPECT_FALSE(contains_write(b.build()));
}

TEST(Minimality, Ptwalk2IsMinimal)
{
    const mtm::Model model = mtm::x86t_elt();
    const MinimalityVerdict verdict =
        judge(model, elt::fixtures::fig10a_ptwalk2());
    EXPECT_TRUE(verdict.interesting);
    EXPECT_TRUE(verdict.minimal) << verdict.blocking_relaxation;
    // Forbidden via both sc_per_loc and invlpg, as the paper notes.
    EXPECT_EQ(verdict.violated.size(), 2u);
}

TEST(Minimality, Fig11IsMinimal)
{
    const mtm::Model model = mtm::x86t_elt();
    const MinimalityVerdict verdict =
        judge(model, elt::fixtures::fig11_new_elt());
    EXPECT_TRUE(verdict.interesting);
    EXPECT_TRUE(verdict.minimal) << verdict.blocking_relaxation;
}

TEST(Minimality, Fig10bIsPermittedHenceNotInteresting)
{
    const mtm::Model model = mtm::x86t_elt();
    const MinimalityVerdict verdict =
        judge(model, elt::fixtures::fig10b_dirtybit3());
    EXPECT_FALSE(verdict.interesting);
    EXPECT_TRUE(verdict.violated.empty());
}

TEST(Minimality, Fig8IsForbiddenButNotMinimal)
{
    // The paper's worked example of the minimality criterion: the extra
    // write W4 can be removed and the test stays forbidden.
    const mtm::Model tso = mtm::x86tso();
    const MinimalityVerdict verdict =
        judge(tso, elt::fixtures::fig8_non_minimal_mcm());
    EXPECT_TRUE(verdict.interesting);
    EXPECT_FALSE(verdict.minimal);
    EXPECT_FALSE(verdict.blocking_relaxation.empty());
}

TEST(Minimality, Fig2cIsForbiddenButNotMinimal)
{
    // The aliased sb ELT is forbidden yet reducible (the coherence cycle
    // survives the removal of, e.g., the x-write on C0).
    const mtm::Model model = mtm::x86t_elt();
    const MinimalityVerdict verdict =
        judge(model, elt::fixtures::fig2c_sb_elt_aliased());
    EXPECT_TRUE(verdict.interesting);
    EXPECT_FALSE(verdict.minimal);
}

TEST(Minimality, PermittedExecutionNotInteresting)
{
    const mtm::Model model = mtm::x86t_elt();
    const MinimalityVerdict verdict =
        judge(model, elt::fixtures::fig4_remap_chain());
    EXPECT_FALSE(verdict.interesting);
}

// ---------------------------------------------------------------------------
// The judge's steps against the definition: every relaxation rebuilt
// (mtm::apply_relaxation), derived and judged.

/// True when relaxation \p relaxation of \p execution stays forbidden.
bool
rebuilt_stays_forbidden(const mtm::Model& model, const Execution& execution,
                        const mtm::Relaxation& relaxation)
{
    const Execution relaxed =
        mtm::apply_relaxation(execution, relaxation, model.vm_aware());
    if (relaxed.program.num_events() == 0) {
        return false;
    }
    const elt::DerivedRelations d =
        elt::derive(relaxed, model.derive_options());
    return d.well_formed && model.violates_any(relaxed.program, d);
}

/// The minimality verdict by definition.
MinimalityVerdict
reference_judge(const mtm::Model& model, const Execution& execution)
{
    MinimalityVerdict verdict;
    const elt::DerivedRelations d =
        elt::derive(execution, model.derive_options());
    if (!d.well_formed) {
        return verdict;
    }
    verdict.violated_mask = model.violated_mask(execution.program, d);
    verdict.interesting =
        contains_write(execution.program) && verdict.violated_mask != 0;
    if (!verdict.interesting) {
        return verdict;
    }
    for (const mtm::Relaxation& relaxation :
         mtm::applicable_relaxations(execution.program)) {
        if (rebuilt_stays_forbidden(model, execution, relaxation)) {
            return verdict;
        }
    }
    verdict.minimal = true;
    return verdict;
}

/// Message passing (W x; W y | R y; R x), forbidden under TSO.
Execution
message_passing()
{
    elt::ProgramBuilder b;
    b.thread();
    b.W(0);
    b.W(1);
    b.thread();
    b.R(1);
    b.R(0);
    return Execution::empty_for(b.build());
}

/// Visits every zoo model with every execution of the fixture programs of
/// its vocabulary and of its unpruned candidate stream: VM models at
/// bounds 4-6, MCMs at bounds 2-5.
void
for_each_zoo_execution(
    const std::function<void(const mtm::Model&)>& begin_model,
    const std::function<void(const mtm::Model&, const Execution&)>& visit)
{
    const std::vector<Execution (*)()> vm_fixtures = {
        elt::fixtures::fig2b_sb_elt,        elt::fixtures::fig2c_sb_elt_aliased,
        elt::fixtures::fig4_remap_chain,    elt::fixtures::fig5a_shared_walk,
        elt::fixtures::fig5b_invlpg_forces_walk,
        elt::fixtures::fig6_remap_disambiguation,
        elt::fixtures::fig10a_ptwalk2,      elt::fixtures::fig10b_dirtybit3,
        elt::fixtures::fig11_new_elt,
    };
    const std::vector<Execution (*)()> mcm_fixtures = {
        elt::fixtures::fig2a_sb_mcm, elt::fixtures::sb_both_reads_zero_mcm,
        elt::fixtures::fig8_non_minimal_mcm, message_passing,
    };
    for (const spec::RegistryEntry& entry : spec::registry_entries()) {
        std::string error;
        const auto resolved = spec::resolve_model(entry.name, &error);
        ASSERT_TRUE(resolved.has_value()) << entry.name << ": " << error;
        const mtm::Model& model = resolved->model;
        begin_model(model);
        const auto each_execution = [&](const elt::Program& program) {
            for_each_execution(program, model.vm_aware(),
                               [&](const Execution& execution) {
                                   visit(model, execution);
                                   return true;
                               });
        };
        for (const auto make :
             model.vm_aware() ? vm_fixtures : mcm_fixtures) {
            each_execution(make().program);
        }
        SynthesisOptions options;
        options.max_threads = 2;
        options.max_vas = 2;
        options.max_fresh_pas = 1;
        const mtm::AxiomMask all =
            (mtm::AxiomMask{1} << model.axioms().size()) - 1;
        const int min_bound = model.vm_aware() ? 4 : 2;
        const int max_bound = model.vm_aware() ? 6 : 5;
        for (int size = min_bound; size <= max_bound; ++size) {
            SkeletonOptions skeleton =
                engine_skeleton_options(model, all, options, size);
            skeleton.require_wpte = false;
            skeleton.require_rmw = false;
            skeleton.require_shared_walk = false;
            for_each_skeleton(skeleton, [&](const elt::Program& program) {
                each_execution(program);
                return true;
            });
        }
    }
}

TEST(JudgeSteps, EveryOverloadAgreesWithRebuildingEveryRelaxation)
{
    JudgeScratch scratch;
    JudgeScratch engine_scratch;
    int minimal = 0;
    int not_minimal = 0;
    std::string model_name;
    for_each_zoo_execution(
        [&](const mtm::Model& model) {
            if (!model_name.empty()) {
                EXPECT_GT(minimal, 0) << model_name;
                EXPECT_GT(not_minimal, 0) << model_name;
            }
            model_name = model.name();
            minimal = 0;
            not_minimal = 0;
        },
        [&](const mtm::Model& model, const Execution& execution) {
            const MinimalityVerdict expected =
                reference_judge(model, execution);
            const auto expect_same = [&](const MinimalityVerdict& verdict,
                                         const char* overload) {
                EXPECT_EQ(verdict.interesting, expected.interesting)
                    << model.name() << " " << overload << "\n"
                    << elt::execution_to_xml(execution, "x");
                EXPECT_EQ(verdict.minimal, expected.minimal)
                    << model.name() << " " << overload << "\n"
                    << elt::execution_to_xml(execution, "x");
                EXPECT_EQ(verdict.violated_mask, expected.violated_mask)
                    << model.name() << " " << overload;
            };
            const MinimalityVerdict diagnostic = judge(model, execution);
            expect_same(diagnostic, "diagnostic");
            EXPECT_EQ(diagnostic.blocking_relaxation.empty(),
                      !expected.interesting || expected.minimal)
                << model.name();
            expect_same(judge(model, execution, &scratch), "scratch");
            const elt::DerivedRelations d =
                elt::derive(execution, model.derive_options());
            if (d.well_formed) {
                expect_same(judge(model, execution, d,
                                  model.violated_mask(execution.program, d),
                                  &engine_scratch),
                            "engine");
            }
            if (expected.interesting) {
                ++(expected.minimal ? minimal : not_minimal);
            }
        });
    EXPECT_GT(minimal, 0) << model_name;
    EXPECT_GT(not_minimal, 0) << model_name;
}

TEST(JudgeSteps, EachStepAgreesWithTheRebuiltRelaxation)
{
    JudgeScratch scratch;
    int decided[3] = {};
    int forbidden[3] = {};
    for_each_zoo_execution(
        [](const mtm::Model&) {},
        [&](const mtm::Model& model, const Execution& execution) {
            const elt::DerivedRelations d =
                elt::derive(execution, model.derive_options());
            if (!d.well_formed) {
                return;
            }
            const mtm::AxiomMask violated =
                model.violated_mask(execution.program, d);
            if (violated == 0 || !contains_write(execution.program)) {
                return;
            }
            const std::vector<RelaxationVerdict> verdicts =
                judge_relaxations(model, execution, d, violated, &scratch);
            ASSERT_EQ(verdicts.size(), scratch.relaxations.size());
            for (std::size_t i = 0; i < verdicts.size(); ++i) {
                const mtm::Relaxation& relaxation = scratch.relaxations[i];
                const int step = static_cast<int>(verdicts[i].step);
                ++decided[step];
                forbidden[step] += verdicts[i].forbidden;
                EXPECT_EQ(verdicts[i].forbidden,
                          rebuilt_stays_forbidden(model, execution,
                                                  relaxation))
                    << model.name() << " step " << step + 1 << ": "
                    << relaxation.describe(execution.program) << "\n"
                    << elt::execution_to_xml(execution, "x");
            }
        });
    const int core = static_cast<int>(JudgeStep::kCycleCore);
    const int restricted = static_cast<int>(JudgeStep::kRestricted);
    const int rebuilt = static_cast<int>(JudgeStep::kRebuilt);
    EXPECT_EQ(forbidden[core], decided[core]);
    EXPECT_GT(decided[core], 0);
    // Step 2 decides both ways; step 3 too.
    EXPECT_GT(forbidden[restricted], 0);
    EXPECT_LT(forbidden[restricted], decided[restricted]);
    EXPECT_GT(forbidden[rebuilt], 0);
    EXPECT_LT(forbidden[rebuilt], decided[rebuilt]);
}

TEST(JudgeSteps, RestrictedVerdictsIgnoreRemovedEventsDiagonals)
{
    // `[S]` and `^*` put diagonal pairs on removed events too: the
    // restricted verdict must check its form on the survivors alone. Each
    // axiom below is violated by every execution holding a PTE write, and
    // permitted once it is gone.
    for (const char* axiom : {"empty([Wpte])", "irreflexive(rf^* ; [Wpte])"}) {
        const std::string source =
            std::string("model diagonals\nvm on\naxiom a: ") + axiom + "\n";
        spec::Diagnostic diag;
        const auto parsed = spec::parse_model(source, &diag);
        ASSERT_TRUE(parsed.has_value()) << diag.to_string("<diagonals>");
        const mtm::Model model = spec::compile_model(*parsed);
        JudgeScratch scratch;
        int restricted_removals = 0;
        for_each_execution(
            elt::fixtures::fig10a_ptwalk2().program, model.vm_aware(),
            [&](const Execution& execution) {
                const elt::DerivedRelations d =
                    elt::derive(execution, model.derive_options());
                if (!d.well_formed) {
                    return true;
                }
                const mtm::AxiomMask violated =
                    model.violated_mask(execution.program, d);
                EXPECT_NE(violated, 0u) << axiom;
                const std::vector<RelaxationVerdict> verdicts =
                    judge_relaxations(model, execution, d, violated, &scratch);
                for (std::size_t i = 0; i < verdicts.size(); ++i) {
                    const mtm::Relaxation& relaxation = scratch.relaxations[i];
                    const bool removes_wpte =
                        relaxation.kind == mtm::Relaxation::Kind::kRemoveWpte;
                    EXPECT_EQ(verdicts[i].forbidden, !removes_wpte)
                        << axiom << ": " << relaxation.describe(execution.program);
                    restricted_removals +=
                        removes_wpte &&
                        verdicts[i].step == JudgeStep::kRestricted;
                }
                return true;
            });
        EXPECT_GT(restricted_removals, 0) << axiom;
    }
}

/// One thread: WPTE x -> PA(y) and its INVLPG, then W x, whose walk reads
/// W's own dirty-bit write (coherence-after the Wpte), then R y reading
/// the initial value. W resolves through the Wdb to y's frame, so R and W
/// share a location: fr (R -> W) and po_loc (W -> R) violate sc_per_loc.
Execution
wdb_copies_a_removed_mapping()
{
    elt::ProgramBuilder b;
    b.thread();
    const EventId wpte = b.wpte(0, 1);
    b.invlpg_for(wpte);
    const EventId w = b.W(0);
    const EventId w_walk = b.rptw(w);
    const EventId w_db = b.wdb(w);
    const EventId r = b.R(1);
    const EventId r_walk = b.rptw(r);
    Execution e = Execution::empty_for(b.build());
    e.ptw_src[w] = w_walk;
    e.rf_src[w_walk] = w_db;
    e.ptw_src[r] = r_walk;
    e.co_pos[wpte] = 0;
    e.co_pos[w_db] = 1;
    e.co_pos[w] = 0;
    e.co_pa_pos[wpte] = 0;
    return e;
}

TEST(JudgeSteps, AWdbCopyingARemovedMappingIsNoRestriction)
{
    // Removing the Wpte misses the violation's core {W, R}, and no
    // survivor reads from it or translates through it. But the Wdb copies
    // its coherence predecessor's mapping: without the Wpte it copies the
    // initial one, W moves to x's frame, and the cycle is gone. So the
    // Wpte removal is no restriction; it is rebuilt, and it is permitted.
    const mtm::Model model = mtm::x86t_elt();
    const Execution e = wdb_copies_a_removed_mapping();
    const elt::DerivedRelations d = elt::derive(e, model.derive_options());
    ASSERT_TRUE(d.well_formed) << d.problems.front();
    const mtm::AxiomMask violated = model.violated_mask(e.program, d);
    ASSERT_EQ(model.mask_names(violated),
              std::vector<std::string>{"sc_per_loc"});

    JudgeScratch scratch;
    const std::vector<RelaxationVerdict> verdicts =
        judge_relaxations(model, e, d, violated, &scratch);
    bool saw_wpte = false;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
        const mtm::Relaxation& relaxation = scratch.relaxations[i];
        EXPECT_EQ(verdicts[i].forbidden,
                  rebuilt_stays_forbidden(model, e, relaxation))
            << relaxation.describe(e.program);
        if (relaxation.kind == mtm::Relaxation::Kind::kRemoveWpte) {
            saw_wpte = true;
            EXPECT_EQ(verdicts[i].step, JudgeStep::kRebuilt);
            EXPECT_FALSE(verdicts[i].forbidden);
        }
    }
    EXPECT_TRUE(saw_wpte);

    // Every relaxation is permitted, so the execution is minimal.
    const MinimalityVerdict verdict = judge(model, e);
    EXPECT_TRUE(verdict.interesting);
    EXPECT_TRUE(verdict.minimal) << verdict.blocking_relaxation;
    EXPECT_TRUE(reference_judge(model, e).minimal);
}

}  // namespace
}  // namespace transform::synth
