/// \file
/// Differential tests for the zero-allocation witness pipeline: the
/// scratch-reusing fast paths must be observably identical to the
/// allocating originals they replaced.
///  - derive_into + a reused DeriveScratch is field-identical to a fresh
///    derive() across generated programs, their executions, and
///    systematically corrupted (ill-formed) witnesses;
///  - the streaming ProgramEncoding::enumerate visits exactly the sequence
///    the materializing wrapper returns (order and count) for every
///    x86t_elt axiom, and early-stop visits exactly a prefix;
///  - a reset Solver / reused EncodingScratch behaves like a fresh one;
///  - canonical_key and judge agree between their scratch and scratch-free
///    overloads;
///  - a DeriveScratch's cached program facts follow the program's content,
///    not its address;
///  - a second derive_into, violated_mask and mask-taking judge on the
///    same execution allocate nothing, and neither does a second sweep of
///    for_each_execution through a reused ExecEnumScratch;
///  - violates_any agrees with violated_mask != 0 for every zoo model.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "elt/derive.h"
#include "elt/fixtures.h"
#include "mtm/encoding.h"
#include "mtm/model.h"
#include "mtm/relax.h"
#include "obs/alloc.h"
#include "spec/eval.h"
#include "spec/registry.h"
#include "synth/canonical.h"
#include "synth/exec_enum.h"
#include "synth/minimality.h"
#include "synth/skeleton.h"

namespace transform {
namespace {

using elt::DerivedRelations;
using elt::Execution;

void
expect_identical(const DerivedRelations& fresh, const DerivedRelations& reused,
                 const std::string& context)
{
    EXPECT_EQ(fresh.well_formed, reused.well_formed) << context;
    EXPECT_EQ(fresh.problems, reused.problems) << context;
    EXPECT_EQ(fresh.resolved_pa, reused.resolved_pa) << context;
    EXPECT_EQ(fresh.provenance, reused.provenance) << context;
    EXPECT_EQ(fresh.num_events, reused.num_events) << context;
    EXPECT_EQ(fresh.po, reused.po) << context;
    EXPECT_EQ(fresh.po_loc, reused.po_loc) << context;
    EXPECT_EQ(fresh.po_mem, reused.po_mem) << context;
    EXPECT_EQ(fresh.rf, reused.rf) << context;
    EXPECT_EQ(fresh.co, reused.co) << context;
    EXPECT_EQ(fresh.fr, reused.fr) << context;
    EXPECT_EQ(fresh.rfe, reused.rfe) << context;
    EXPECT_EQ(fresh.ppo, reused.ppo) << context;
    EXPECT_EQ(fresh.fence, reused.fence) << context;
    EXPECT_EQ(fresh.rmw, reused.rmw) << context;
    EXPECT_EQ(fresh.ghost, reused.ghost) << context;
    EXPECT_EQ(fresh.rf_ptw, reused.rf_ptw) << context;
    EXPECT_EQ(fresh.rf_pa, reused.rf_pa) << context;
    EXPECT_EQ(fresh.co_pa, reused.co_pa) << context;
    EXPECT_EQ(fresh.fr_pa, reused.fr_pa) << context;
    EXPECT_EQ(fresh.fr_va, reused.fr_va) << context;
    EXPECT_EQ(fresh.remap, reused.remap) << context;
    EXPECT_EQ(fresh.ptw_source, reused.ptw_source) << context;
}

/// Sweeps generated programs and their executions, deriving each through
/// ONE DerivedRelations + DeriveScratch reused across the whole sweep, and
/// comparing against a fresh derive() every time. Also derives corrupted
/// variants so the ill-formed paths (problems, early returns) go through
/// the same comparison.
void
sweep_and_compare(bool vm_enabled, int num_events)
{
    synth::SkeletonOptions opt;
    opt.num_events = num_events;
    opt.max_threads = 2;
    opt.max_vas = 2;
    opt.vm_enabled = vm_enabled;
    const elt::DeriveOptions derive_options{vm_enabled};
    DerivedRelations reused;
    elt::DeriveScratch scratch;
    int programs = 0;
    int executions = 0;
    synth::for_each_skeleton(opt, [&](const elt::Program& p) {
        int per_program = 0;
        synth::for_each_execution(p, vm_enabled, [&](const Execution& e) {
            const std::string context =
                "program " + std::to_string(programs) + " execution " +
                std::to_string(executions) + (vm_enabled ? " (vm)" : " (mcm)");
            elt::derive_into(e, derive_options, &reused, &scratch);
            expect_identical(elt::derive(e, derive_options), reused, context);

            // Corruptions: witness fields that break the placement rules.
            Execution bad = e;
            if (!bad.co_pos.empty()) {
                bad.co_pos[0] = 7;  // co position on a non-write / bad perm
                elt::derive_into(bad, derive_options, &reused, &scratch);
                expect_identical(elt::derive(bad, derive_options), reused,
                                 context + " corrupted co_pos");
            }
            Execution self_rf = e;
            self_rf.rf_src[0] = 0;  // self-sourced rf is always rejected
            elt::derive_into(self_rf, derive_options, &reused, &scratch);
            expect_identical(elt::derive(self_rf, derive_options), reused,
                             context + " self rf");
            ++executions;
            return executions % 7 != 0;  // rotate through executions
        });
        (void)per_program;
        ++programs;
        return programs < 60;
    });
    EXPECT_GT(programs, 0);
    EXPECT_GT(executions, 0);
}

TEST(DeriveScratchDifferential, VmSweepFieldIdentical)
{
    sweep_and_compare(/*vm_enabled=*/true, 4);
    sweep_and_compare(/*vm_enabled=*/true, 5);
}

TEST(DeriveScratchDifferential, McmSweepFieldIdentical)
{
    sweep_and_compare(/*vm_enabled=*/false, 3);
    sweep_and_compare(/*vm_enabled=*/false, 4);
}

TEST(DeriveScratchDifferential, FixturesFieldIdentical)
{
    DerivedRelations reused;
    elt::DeriveScratch scratch;
    struct Case {
        Execution (*make)();
        bool vm;
    };
    const Case cases[] = {
        {elt::fixtures::fig2a_sb_mcm, false},
        {elt::fixtures::fig2c_sb_elt_aliased, true},
        {elt::fixtures::fig4_remap_chain, true},
        {elt::fixtures::fig10b_dirtybit3, true},
        {elt::fixtures::fig11_new_elt, true},
    };
    for (const Case& c : cases) {
        const Execution e = c.make();
        elt::derive_into(e, {c.vm}, &reused, &scratch);
        expect_identical(elt::derive(e, {c.vm}), reused, "fixture");
    }
}

TEST(DeriveScratchDifferential, ProgramFactsFollowContentNotAddress)
{
    // A DeriveScratch keeps the static half of the last program it
    // derived. One Execution object holds programs A, B and A in turn, and
    // one RelaxScratch rebuilds B's relaxations in place: the program's
    // address repeats while its content changes, so facts keyed by address
    // would be stale. Every result must equal a fresh derive(), and the
    // model's verdict on it the verdict on the fresh relations.
    const mtm::Model x86t_elt = mtm::x86t_elt();
    const mtm::Model x86tso = mtm::x86tso();
    for (const mtm::Model* model : {&x86t_elt, &x86tso}) {
        const bool vm = model->vm_aware();
        const Execution a = vm ? elt::fixtures::fig10a_ptwalk2()
                               : elt::fixtures::fig2a_sb_mcm();
        const Execution b = vm ? elt::fixtures::fig4_remap_chain()
                               : elt::fixtures::fig8_non_minimal_mcm();
        ASSERT_FALSE(a.program == b.program);
        DerivedRelations reused;
        elt::DeriveScratch scratch;
        const auto check = [&](const Execution& e, const std::string& what) {
            const std::string context = model->name() + " " + what;
            elt::derive_into(e, model->derive_options(), &reused, &scratch);
            const DerivedRelations fresh =
                elt::derive(e, model->derive_options());
            expect_identical(fresh, reused, context);
            ASSERT_TRUE(fresh.well_formed) << context;
            EXPECT_EQ(model->violated_mask(e.program, reused, &scratch.cycle),
                      model->violated_mask(e.program, fresh))
                << context;
        };
        Execution current = a;
        check(current, "A");
        current = b;
        check(current, "B");
        current = a;
        check(current, "A again");
        std::vector<mtm::Relaxation> relaxations;
        mtm::applicable_relaxations_into(b.program, &relaxations);
        ASSERT_GE(relaxations.size(), 2u);
        mtm::RelaxScratch relax;
        for (const mtm::Relaxation& relaxation : relaxations) {
            const Execution& relaxed =
                mtm::apply_relaxation_into(b, relaxation, vm, &relax);
            check(relaxed, "B " + relaxation.describe(b.program));
        }
    }
}

bool
same_witnesses(const Execution& a, const Execution& b)
{
    return a.rf_src == b.rf_src && a.co_pos == b.co_pos &&
           a.ptw_src == b.ptw_src && a.co_pa_pos == b.co_pa_pos;
}

TEST(StreamingEnumerate, VisitsExactlyTheMaterializedSequencePerAxiom)
{
    const mtm::Model model = mtm::x86t_elt();
    const elt::Program program = elt::fixtures::fig10b_dirtybit3().program;
    mtm::EncodingScratch scratch;
    for (const std::string& axiom : mtm::x86t_elt_axiom_names()) {
        mtm::ProgramEncoding materializing(program, &model);
        const std::vector<Execution> expected = materializing.enumerate(axiom);

        mtm::ProgramEncoding streaming(program, &model, &scratch);
        std::size_t visited = 0;
        const bool completed =
            streaming.enumerate(axiom, [&](const Execution& e) {
                EXPECT_LT(visited, expected.size()) << axiom;
                if (visited < expected.size()) {
                    EXPECT_TRUE(same_witnesses(expected[visited], e))
                        << axiom << " diverges at model " << visited;
                }
                ++visited;
                return true;
            });
        EXPECT_TRUE(completed) << axiom;
        EXPECT_EQ(visited, expected.size()) << axiom;
        EXPECT_EQ(streaming.stats().models, expected.size()) << axiom;
    }
}

TEST(StreamingEnumerate, EarlyStopVisitsExactlyAPrefix)
{
    const mtm::Model model = mtm::x86t_elt();
    const elt::Program program = elt::fixtures::fig10b_dirtybit3().program;
    mtm::ProgramEncoding encoding(program, &model);
    const std::vector<Execution> all = encoding.enumerate();
    ASSERT_GT(all.size(), 2u);

    mtm::ProgramEncoding stopped(program, &model);
    std::vector<Execution> seen;
    const bool completed = stopped.enumerate("", [&](const Execution& e) {
        seen.push_back(e);
        return seen.size() < 2;
    });
    EXPECT_FALSE(completed);  // the visitor stopped the solver
    ASSERT_EQ(seen.size(), 2u);
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_TRUE(same_witnesses(all[i], seen[i])) << "prefix model " << i;
    }
}

TEST(StreamingEnumerate, ReusedScratchIsBitStableAcrossQueries)
{
    const mtm::Model model = mtm::x86t_elt();
    const elt::Program program = elt::fixtures::fig10a_ptwalk2().program;
    mtm::EncodingScratch scratch;
    std::vector<Execution> first;
    {
        mtm::ProgramEncoding encoding(program, &model, &scratch);
        first = encoding.enumerate("causality");
    }
    for (int round = 0; round < 3; ++round) {
        mtm::ProgramEncoding encoding(program, &model, &scratch);
        const std::vector<Execution> again = encoding.enumerate("causality");
        ASSERT_EQ(again.size(), first.size()) << "round " << round;
        for (std::size_t i = 0; i < again.size(); ++i) {
            EXPECT_TRUE(same_witnesses(first[i], again[i]))
                << "round " << round << " model " << i;
        }
    }
}

TEST(StreamingEnumerate, NonVmModelWithVmAxiomsQueriesEmptyRelations)
{
    // Model is an open "define your own MTM" API: a non-VM model may carry
    // VM axioms, whose relations are empty on MCM programs. The need-gated
    // circuit builder must still initialize them (regression: it used to
    // skip them entirely and trip the relation-size assert).
    const mtm::Model hybrid("mcm_with_vm_axioms", /*vm_aware=*/false,
                            mtm::x86t_elt().axioms());
    const elt::Program program = elt::fixtures::fig2a_sb_mcm().program;
    mtm::ProgramEncoding encoding(program, &hybrid);
    EXPECT_FALSE(encoding.exists_violating("invlpg"));
    EXPECT_FALSE(encoding.exists_violating("tlb_causality"));
    EXPECT_TRUE(encoding.exists_execution());
}

TEST(SolverReset, BehavesLikeAFreshSolver)
{
    auto build = [](sat::Solver* s) {
        // x | y, !x | y, x | !y — satisfied only by x = y = true.
        const sat::Var x = s->new_var();
        const sat::Var y = s->new_var();
        s->add_binary(sat::Lit(x, false), sat::Lit(y, false));
        s->add_binary(sat::Lit(x, true), sat::Lit(y, false));
        s->add_binary(sat::Lit(x, false), sat::Lit(y, true));
    };
    sat::Solver fresh;
    build(&fresh);
    ASSERT_EQ(fresh.solve(), sat::SolveResult::kSat);

    sat::Solver reused;
    // Pollute with an unrelated UNSAT formula, then reset.
    const sat::Var z = reused.new_var();
    reused.add_unit(sat::Lit(z, false));
    reused.add_unit(sat::Lit(z, true));
    EXPECT_TRUE(reused.proven_unsat());
    reused.reset();
    EXPECT_FALSE(reused.proven_unsat());
    EXPECT_EQ(reused.num_vars(), 0);
    build(&reused);
    ASSERT_EQ(reused.solve(), sat::SolveResult::kSat);
    for (sat::Var v = 0; v < 2; ++v) {
        EXPECT_EQ(fresh.model_value(v), reused.model_value(v)) << "var " << v;
    }
    EXPECT_EQ(reused.stats().decisions, fresh.stats().decisions);
}

TEST(CanonicalScratch, KeysMatchScratchFreeOverload)
{
    synth::CanonicalScratch scratch;
    synth::SkeletonOptions opt;
    opt.num_events = 4;
    int programs = 0;
    synth::for_each_skeleton(opt, [&](const elt::Program& p) {
        EXPECT_EQ(synth::canonical_key(p),
                  synth::canonical_key(p, &scratch));
        return ++programs < 100;
    });
    EXPECT_GT(programs, 0);
}

TEST(JudgeScratch, AgreesWithDiagnosticJudge)
{
    const mtm::Model model = mtm::x86t_elt();
    synth::JudgeScratch scratch;
    struct Case {
        Execution (*make)();
    };
    const Case cases[] = {
        {elt::fixtures::fig10a_ptwalk2},
        {elt::fixtures::fig10b_dirtybit3},
        {elt::fixtures::fig11_new_elt},
        {elt::fixtures::fig4_remap_chain},
        {elt::fixtures::fig2c_sb_elt_aliased},
    };
    for (const Case& c : cases) {
        const Execution e = c.make();
        const synth::MinimalityVerdict diagnostic = synth::judge(model, e);
        const synth::MinimalityVerdict fast =
            synth::judge(model, e, &scratch);
        EXPECT_EQ(diagnostic.interesting, fast.interesting);
        EXPECT_EQ(diagnostic.minimal, fast.minimal);
        EXPECT_EQ(diagnostic.violated_mask, fast.violated_mask);
        // The diagnostic names are exactly the mask, decoded.
        EXPECT_EQ(diagnostic.violated,
                  model.mask_names(fast.violated_mask));
        EXPECT_TRUE(fast.violated.empty());  // fast path skips strings
    }
}

TEST(ViolatedMask, MatchesStringShimOnFixtures)
{
    struct Case {
        Execution (*make)();
        bool vm;
    };
    const Case cases[] = {
        {elt::fixtures::fig2a_sb_mcm, false},
        {elt::fixtures::fig2c_sb_elt_aliased, true},
        {elt::fixtures::fig10a_ptwalk2, true},
        {elt::fixtures::fig10b_dirtybit3, true},
    };
    elt::DeriveScratch scratch;
    for (const Case& c : cases) {
        const mtm::Model model = c.vm ? mtm::x86t_elt() : mtm::x86tso();
        const Execution e = c.make();
        const auto derived = elt::derive(e, model.derive_options());
        ASSERT_TRUE(derived.well_formed);
        const mtm::AxiomMask mask =
            model.violated_mask(e.program, derived, &scratch.cycle);
        EXPECT_EQ(model.mask_names(mask),
                  model.violated_axioms(e.program, derived));
        // Mask bit positions follow axiom order.
        for (std::size_t i = 0; i < model.axioms().size(); ++i) {
            const bool bit = (mask & (mtm::AxiomMask{1} << i)) != 0;
            const mtm::Axiom& axiom = model.axioms()[i];
            const bool holds = axiom.program->holds(
                axiom.def->form, e.program, derived, &scratch.cycle);
            EXPECT_EQ(bit, !holds) << axiom.name;
        }
    }
}

/// Message passing (W x; W y | R y; R x): under TSO, reading the new y
/// and the old x is forbidden. (Every outcome of store buffering is
/// permitted, so fig2a has no violating execution.)
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

/// CoRR (W x | R x; R x): the second read seeing the initial value after
/// the first saw the write breaks per-location coherence, which every zoo
/// model forbids (message passing is allowed under PSO).
Execution
coherence_read_read()
{
    elt::ProgramBuilder b;
    b.thread();
    b.W(0);
    b.thread();
    b.R(0);
    b.R(0);
    return Execution::empty_for(b.build());
}

TEST(SteadyState, DeriveMaskAndJudgeAllocateNothing)
{
    // fig4 has two Wptes and fig10b one: Program::validate's per-core
    // Invlpg count once allocated per Wpte on every derivation. Every
    // execution of each fixture program is derived, masked and judged
    // twice; the second sweep must not allocate. rmw_atomicity's masked
    // join covers the row programs' arena, sc_t_elt its causality axiom
    // (which once assembled an edge-set union), and x86tso runs on the MCM
    // fixtures.
    const mtm::Model x86t_elt = mtm::x86t_elt();
    const mtm::Model sc = mtm::sc_t_elt();
    const mtm::Model x86tso = mtm::x86tso();
    for (const mtm::Model* model : {&x86t_elt, &sc, &x86tso}) {
        const auto fixtures =
            model->vm_aware()
                ? std::vector<Execution (*)()>{elt::fixtures::fig4_remap_chain,
                                               elt::fixtures::fig10b_dirtybit3}
                : std::vector<Execution (*)()>{
                      elt::fixtures::fig8_non_minimal_mcm, message_passing};
        for (const auto make : fixtures) {
            std::vector<Execution> executions;
            synth::for_each_execution(make().program, model->vm_aware(),
                                      [&](const Execution& e) {
                                          executions.push_back(e);
                                          return true;
                                      });
            DerivedRelations derived;
            elt::DeriveScratch derive;
            synth::JudgeScratch judge;
            int violating = 0;
            const auto sweep = [&] {
                violating = 0;
                for (const Execution& e : executions) {
                    elt::derive_into(e, model->derive_options(), &derived,
                                     &derive);
                    const mtm::AxiomMask mask = model->violated_mask(
                        e.program, derived, &derive.cycle);
                    if (derived.well_formed && mask != 0) {
                        ++violating;
                        synth::judge(*model, e, mask, &judge);
                    }
                }
            };
            sweep();  // grows every buffer to these executions' sizes
            const std::uint64_t before = obs::alloc_count();
            sweep();
            EXPECT_EQ(obs::alloc_count() - before, 0u) << model->name();
            EXPECT_GT(violating, 0) << model->name();  // judge relaxes some
        }
    }
}

TEST(SteadyState, ExecutionEnumerationAllocatesNothing)
{
    // Two Wpte fixtures (two PTE classes and a co_pa class in fig4, a
    // dirty-bit write in fig10b) and an MCM program with three data
    // writes. The second sweep through the same scratch must not
    // allocate: the tables, the coherence classes and the execution keep
    // their capacity from the first.
    struct Case {
        elt::Program program;
        bool vm;
    };
    const std::vector<Case> cases = {
        {elt::fixtures::fig4_remap_chain().program, true},
        {elt::fixtures::fig10b_dirtybit3().program, true},
        {elt::fixtures::fig8_non_minimal_mcm().program, false},
    };
    synth::ExecEnumScratch scratch;
    std::uint64_t visits = 0;
    const std::function<bool(const Execution&)> visit =
        [&](const Execution&) {
            ++visits;
            return true;
        };
    const auto sweep = [&] {
        for (const Case& c : cases) {
            synth::for_each_execution(c.program, c.vm, visit, &scratch);
        }
    };
    sweep();  // grows every buffer to these programs' sizes
    const std::uint64_t first = visits;
    const std::uint64_t before = obs::alloc_count();
    sweep();
    EXPECT_EQ(obs::alloc_count() - before, 0u);
    EXPECT_EQ(visits, 2 * first);
    EXPECT_GT(first, 0u);
}

TEST(ViolatedMask, ViolatesAnyAgreesOnEveryZooModel)
{
    // Every execution of every fixture program, judged by every zoo
    // model of the matching vocabulary: the early-exit verdict must equal
    // the full mask's non-emptiness, on violating and permitted
    // executions alike.
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
        coherence_read_read,
    };
    int models = 0;
    for (const spec::RegistryEntry& entry : spec::registry_entries()) {
        std::string error;
        const auto resolved = spec::resolve_model(entry.name, &error);
        ASSERT_TRUE(resolved.has_value()) << entry.name << ": " << error;
        const mtm::Model& model = resolved->model;
        ++models;
        int violating = 0;
        int permitted = 0;
        DerivedRelations derived;
        elt::DeriveScratch scratch;
        for (const auto make : model.vm_aware() ? vm_fixtures : mcm_fixtures) {
            synth::for_each_execution(
                make().program, model.vm_aware(), [&](const Execution& e) {
                    elt::derive_into(e, model.derive_options(), &derived,
                                     &scratch);
                    if (!derived.well_formed) {
                        return true;
                    }
                    const mtm::AxiomMask mask = model.violated_mask(
                        e.program, derived, &scratch.cycle);
                    EXPECT_EQ(model.violates_any(e.program, derived,
                                                 &scratch.cycle),
                              mask != 0)
                        << entry.name;
                    ++(mask != 0 ? violating : permitted);
                    return true;
                });
        }
        EXPECT_GT(violating, 0) << entry.name;
        EXPECT_GT(permitted, 0) << entry.name;
    }
    EXPECT_GT(models, 0);
}

}  // namespace
}  // namespace transform
