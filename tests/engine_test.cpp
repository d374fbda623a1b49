/// \file
/// Tests for the synthesis engine: per-axiom suites at small bounds, the
/// per-candidate eligibility predicate against the skeleton prunes, and the
/// one-pass synthesis against the per-axiom reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "elt/fixtures.h"
#include "elt/serialize.h"
#include "spec/compile.h"
#include "spec/parser.h"
#include "spec/registry.h"
#include "synth/canonical.h"
#include "synth/engine.h"
#include "synth/exec_enum.h"
#include "synth/minimality.h"

namespace transform::synth {
namespace {

SynthesisOptions
small_options(int min_bound, int bound)
{
    SynthesisOptions opt;
    opt.min_bound = min_bound;
    opt.bound = bound;
    opt.max_threads = 2;
    opt.max_vas = 2;
    opt.max_fresh_pas = 1;
    return opt;
}

TEST(Engine, InvlpgSuiteAtBound4ContainsPtwalk2)
{
    const mtm::Model model = mtm::x86t_elt();
    const SuiteResult suite =
        synthesize_suite(model, "invlpg", small_options(4, 4));
    EXPECT_TRUE(suite.complete);
    ASSERT_FALSE(suite.tests.empty());
    const std::string ptwalk2_key =
        canonical_key(elt::fixtures::fig10a_ptwalk2().program);
    bool found = false;
    for (const SynthesizedTest& t : suite.tests) {
        found = found || t.canonical_key == ptwalk2_key;
    }
    EXPECT_TRUE(found) << "ptwalk2 must be synthesized at bound 4";
}

TEST(Engine, ScPerLocSuiteAtBound4NonEmpty)
{
    const mtm::Model model = mtm::x86t_elt();
    const SuiteResult suite =
        synthesize_suite(model, "sc_per_loc", small_options(4, 4));
    EXPECT_GT(suite.tests.size(), 0u);
}

TEST(Engine, AllSynthesizedTestsAreMinimalAndUnique)
{
    const mtm::Model model = mtm::x86t_elt();
    const SuiteResult suite =
        synthesize_suite(model, "sc_per_loc", small_options(4, 5));
    std::set<std::string> keys;
    for (const SynthesizedTest& t : suite.tests) {
        EXPECT_TRUE(keys.insert(t.canonical_key).second)
            << "duplicate canonical key in suite";
        const MinimalityVerdict verdict = judge(model, t.witness);
        EXPECT_TRUE(verdict.interesting);
        EXPECT_TRUE(verdict.minimal);
        // The witness really violates the target axiom.
        bool violates_target = false;
        for (const std::string& axiom : t.violated) {
            violates_target = violates_target || axiom == "sc_per_loc";
        }
        EXPECT_TRUE(violates_target);
    }
}

TEST(Engine, TlbCausalitySuiteAtSmallBound)
{
    const mtm::Model model = mtm::x86t_elt();
    const SuiteResult suite =
        synthesize_suite(model, "tlb_causality", small_options(4, 5));
    EXPECT_GT(suite.tests.size(), 0u);
    for (const SynthesizedTest& t : suite.tests) {
        bool violates_target = false;
        for (const std::string& axiom : t.violated) {
            violates_target = violates_target || axiom == "tlb_causality";
        }
        EXPECT_TRUE(violates_target);
    }
}

TEST(Engine, RmwAtomicitySuiteNeedsMoreInstructions)
{
    const mtm::Model model = mtm::x86t_elt();
    // At bound 4 no rmw_atomicity test fits (rmw pair + extra write needs
    // at least 6 events).
    const SuiteResult small =
        synthesize_suite(model, "rmw_atomicity", small_options(4, 4));
    EXPECT_TRUE(small.tests.empty());
}

TEST(Engine, SuitesAreCumulativeAcrossBounds)
{
    const mtm::Model model = mtm::x86t_elt();
    const SuiteResult at4 =
        synthesize_suite(model, "invlpg", small_options(4, 4));
    const SuiteResult at5 =
        synthesize_suite(model, "invlpg", small_options(4, 5));
    EXPECT_GE(at5.tests.size(), at4.tests.size());
    // Every bound-4 test is still present at bound 5.
    std::set<std::string> keys5;
    for (const SynthesizedTest& t : at5.tests) {
        keys5.insert(t.canonical_key);
    }
    for (const SynthesizedTest& t : at4.tests) {
        EXPECT_TRUE(keys5.count(t.canonical_key) > 0);
    }
}

TEST(Engine, TimeBudgetMarksIncomplete)
{
    const mtm::Model model = mtm::x86t_elt();
    SynthesisOptions opt = small_options(4, 8);
    opt.time_budget_seconds = 1e-6;
    const SuiteResult suite = synthesize_suite(model, "sc_per_loc", opt);
    EXPECT_FALSE(suite.complete);
}

TEST(Engine, McmBaselineSynthesizesTsoTests)
{
    // MCM-only synthesis (prior-work baseline): sc_per_loc tests exist at
    // tiny bounds (e.g. W x; R x reading stale).
    const mtm::Model tso = mtm::x86tso();
    const SuiteResult suite =
        synthesize_suite(tso, "sc_per_loc", small_options(2, 3));
    EXPECT_GT(suite.tests.size(), 0u);
    for (const SynthesizedTest& t : suite.tests) {
        for (int id = 0; id < t.witness.program.num_events(); ++id) {
            EXPECT_FALSE(elt::is_ghost(t.witness.program.event(id).kind));
        }
    }
}

/// Byte-level identity of a suite: canonical keys in order, sizes,
/// violated axiom lists, and the exact witness XML.
std::string
suite_fingerprint(const SuiteResult& suite)
{
    std::string fp;
    for (const SynthesizedTest& test : suite.tests) {
        fp += test.canonical_key + '|' + std::to_string(test.size);
        for (const std::string& axiom : test.violated) {
            fp += ',' + axiom;
        }
        fp += '|' + elt::execution_to_xml(test.witness, "w") + '\n';
    }
    return fp;
}

/// The exact-round-trip form of a program, for stream comparisons.
std::string
program_text(const elt::Program& program)
{
    return elt::execution_to_xml(elt::Execution::empty_for(program), "p");
}

/// The candidate stream of \p options, program by program.
std::vector<std::string>
skeleton_stream(const SkeletonOptions& options,
                const std::function<bool(const elt::Program&)>& keep)
{
    std::vector<std::string> stream;
    for_each_skeleton(options, [&](const elt::Program& program) {
        if (keep(program)) {
            stream.push_back(program_text(program));
        }
        return true;
    });
    return stream;
}

/// For each pruned axiom, the engine's pruned stream must be exactly the
/// unpruned stream filtered by the axiom's eligibility bit, in order — the
/// property that lets one pass replace the per-axiom searches.
void
expect_eligibility_matches_prunes(const mtm::Model& model,
                                  const std::vector<std::string>& axioms,
                                  int min_bound, int max_bound)
{
    const SynthesisOptions options = small_options(min_bound, max_bound);
    for (const std::string& axiom : axioms) {
        const int index = model.axiom_index(axiom);
        ASSERT_GE(index, 0) << axiom;
        const mtm::AxiomMask bit = mtm::AxiomMask{1} << index;
        for (int size = min_bound; size <= max_bound; ++size) {
            const SkeletonOptions pruned =
                engine_skeleton_options(model, axiom, options, size);
            ASSERT_TRUE(pruned.require_wpte || pruned.require_rmw ||
                        pruned.require_shared_walk)
                << axiom;
            SkeletonOptions unpruned = pruned;
            unpruned.require_wpte = false;
            unpruned.require_rmw = false;
            unpruned.require_shared_walk = false;
            const std::vector<std::string> expected = skeleton_stream(
                pruned, [](const elt::Program&) { return true; });
            const std::vector<std::string> filtered = skeleton_stream(
                unpruned, [&](const elt::Program& program) {
                    return (eligible_axioms(model, program) & bit) != 0;
                });
            EXPECT_EQ(filtered, expected)
                << model.name() << " / " << axiom << " at " << size;
            EXPECT_FALSE(expected.empty() && size == max_bound)
                << model.name() << " / " << axiom;
        }
    }
}

TEST(Engine, EligibilityMatchesSkeletonPrunes)
{
    expect_eligibility_matches_prunes(
        mtm::x86t_elt(), {"invlpg", "rmw_atomicity", "tlb_causality"}, 4,
        6);
    expect_eligibility_matches_prunes(mtm::x86tso(), {"rmw_atomicity"}, 2,
                                      5);
}

mtm::Model
parsed_model(const std::string& source)
{
    spec::Diagnostic diag;
    const auto parsed = spec::parse_model(source, &diag);
    EXPECT_TRUE(parsed.has_value()) << diag.to_string("<model>");
    return spec::compile_model(*parsed);
}

TEST(Engine, SkeletonPrunesFollowTheAxiomNotItsName)
{
    // One body under four names, three of which x86t_elt gives axioms
    // with structural requirements. The body needs no PTE write, rmw pair
    // or TLB hit, so no prune applies and the four suites are one suite.
    std::string source = "model fourbody\nvm on\n";
    for (const char* name :
         {"sc_per_loc", "invlpg", "tlb_causality", "rmw_atomicity"}) {
        source += std::string("axiom ") + name +
                  ": acyclic(rf | co | fr | po_loc)\n";
    }
    const mtm::Model model = parsed_model(source);
    SynthesisOptions options = small_options(4, 6);
    options.jobs = 2;
    const std::vector<SuiteResult> suites =
        synthesize_all_parallel(model, options);
    ASSERT_EQ(suites.size(), 4u);
    ASSERT_FALSE(suites[0].tests.empty());
    for (const SuiteResult& suite : suites) {
        ASSERT_EQ(suite.tests.size(), suites[0].tests.size()) << suite.axiom;
        EXPECT_EQ(suite.programs_considered, suites[0].programs_considered)
            << suite.axiom;
        for (std::size_t i = 0; i < suite.tests.size(); ++i) {
            EXPECT_EQ(suite.tests[i].canonical_key,
                      suites[0].tests[i].canonical_key)
                << suite.axiom;
        }
    }

    // And a body that only PTE writes can violate gets the PTE-write prune
    // under any name.
    const mtm::Model renamed = parsed_model(
        "model renamed\nvm on\naxiom ordering: acyclic(fr_va | po | remap)\n"
        "axiom atomic: empty((fr ; co) & rmw)\n"
        "axiom walks: acyclic(ptw_source | rfe | co | fr)\n");
    const SkeletonOptions ordering =
        engine_skeleton_options(renamed, "ordering", options, 5);
    EXPECT_TRUE(ordering.require_wpte);
    EXPECT_FALSE(ordering.require_rmw || ordering.require_shared_walk);
    EXPECT_TRUE(
        engine_skeleton_options(renamed, "atomic", options, 5).require_rmw);
    EXPECT_TRUE(engine_skeleton_options(renamed, "walks", options, 5)
                    .require_shared_walk);
}

TEST(Engine, EligibilityIsInvariantUnderCanonicalKey)
{
    // One merge-time dedup serves every target of a pass only because
    // every candidate sharing a canonical key is searched for the same
    // targets: it is eligible for, and barren for, the same axioms.
    for (const mtm::Model& model : {mtm::x86t_elt(), mtm::x86tso()}) {
        const int min_bound = model.vm_aware() ? 4 : 2;
        const int max_bound = model.vm_aware() ? 6 : 5;
        const SynthesisOptions options = small_options(min_bound, max_bound);
        std::map<std::string, std::pair<mtm::AxiomMask, mtm::AxiomMask>>
            seen;
        std::size_t shared_keys = 0;
        std::size_t barren = 0;
        for (int size = min_bound; size <= max_bound; ++size) {
            for_each_skeleton(
                engine_skeleton_options(model, "sc_per_loc", options, size),
                [&](const elt::Program& program) {
                    const std::pair<mtm::AxiomMask, mtm::AxiomMask> masks{
                        eligible_axioms(model, program),
                        barren_axioms(model, program)};
                    const auto [it, fresh] =
                        seen.emplace(canonical_key(program), masks);
                    shared_keys += fresh ? 0 : 1;
                    barren += masks.second != 0 ? 1 : 0;
                    EXPECT_EQ(it->second, masks)
                        << model.name() << ": " << it->first;
                    return true;
                });
        }
        EXPECT_GT(shared_keys, 0u) << model.name();
        EXPECT_GT(barren, 0u) << model.name();
    }
}

/// The candidates of \p model's unpruned skeleton stream, at the zoo
/// bounds (VM models 4-6, MCMs 2-5), visited in stream order.
void
for_each_unpruned_candidate(const mtm::Model& model,
                            const std::function<void(const elt::Program&)>&
                                visit)
{
    const int min_bound = model.vm_aware() ? 4 : 2;
    const int max_bound = model.vm_aware() ? 6 : 5;
    const SynthesisOptions options = small_options(min_bound, max_bound);
    const mtm::AxiomMask all =
        (mtm::AxiomMask{1} << model.axioms().size()) - 1;
    for (int size = min_bound; size <= max_bound; ++size) {
        SkeletonOptions skeleton =
            engine_skeleton_options(model, all, options, size);
        skeleton.require_wpte = false;
        skeleton.require_rmw = false;
        skeleton.require_shared_walk = false;
        for_each_skeleton(skeleton, [&](const elt::Program& program) {
            visit(program);
            return true;
        });
    }
}

TEST(Engine, SchedulerCountsEveryGeneratedCandidate)
{
    // SchedulerStats::candidates counts the pass's stream, barren and
    // ineligible candidates included: what CI divides the enumeration's
    // allocations by. Suites count only the candidates they searched.
    const mtm::Model model = mtm::x86t_elt();
    SynthesisOptions options = small_options(4, 6);
    options.jobs = 2;
    const std::vector<SuiteResult> suites =
        synthesize_all_parallel(model, options);
    const mtm::AxiomMask all =
        (mtm::AxiomMask{1} << model.axioms().size()) - 1;
    std::uint64_t generated = 0;
    for (int size = 4; size <= 6; ++size) {
        for_each_skeleton(engine_skeleton_options(model, all, options, size),
                          [&](const elt::Program&) {
                              ++generated;
                              return true;
                          });
    }
    std::uint64_t counted = 0;
    std::uint64_t most_programs = 0;
    for (const SuiteResult& suite : suites) {
        counted += suite.scheduler.candidates;
        most_programs = std::max(most_programs, suite.programs_considered);
    }
    EXPECT_EQ(counted, generated);
    EXPECT_GT(generated, most_programs);
}

TEST(Engine, BarrenTargetsHaveNoMinimalViolation)
{
    // The engine skips a (candidate, target) pair that barren_axioms
    // proves barren. The proof: the judge's own relaxation removing the
    // fence or the spurious INVLPG keeps the target violated. So the judge
    // must find every execution violating a barren target non-minimal.
    for (const spec::RegistryEntry& entry : spec::registry_entries()) {
        std::string error;
        const auto resolved = spec::resolve_model(entry.name, &error);
        ASSERT_TRUE(resolved.has_value()) << error;
        const mtm::Model& model = resolved->model;
        JudgeScratch scratch;
        std::size_t barren_pairs = 0;
        std::size_t judged = 0;
        for_each_unpruned_candidate(model, [&](const elt::Program& program) {
            const mtm::AxiomMask barren = barren_axioms(model, program);
            if (barren == 0) {
                return;
            }
            barren_pairs += static_cast<std::size_t>(std::popcount(barren));
            for_each_execution(
                program, model.vm_aware(),
                [&](const elt::Execution& execution) {
                    const MinimalityVerdict verdict =
                        judge(model, execution, &scratch);
                    if ((verdict.violated_mask & barren) != 0) {
                        ++judged;
                        EXPECT_FALSE(verdict.minimal)
                            << entry.name << ": a minimal violation of "
                            << model.mask_names(verdict.violated_mask & barren)
                                   .front()
                            << " in\n"
                            << elt::execution_to_xml(execution, "w");
                    }
                    return true;
                });
        });
        EXPECT_GT(barren_pairs, 0u) << entry.name;
        EXPECT_GT(judged, 0u) << entry.name;
    }
}

/// \p model's axiom \p name as a one-bit mask.
mtm::AxiomMask
axiom_bit(const mtm::Model& model, const std::string& name)
{
    const int index = model.axiom_index(name);
    EXPECT_GE(index, 0) << model.name() << " has no axiom " << name;
    return index < 0 ? 0 : mtm::AxiomMask{1} << index;
}

mtm::Model
registry_model(const std::string& name)
{
    std::string error;
    auto resolved = spec::resolve_model(name, &error);
    EXPECT_TRUE(resolved.has_value()) << error;
    return std::move(resolved->model);
}

TEST(Engine, BarrenRuleStaysOffWhereItCannotCoverTheAxiom)
{
    // An MCM program whose fences order reads only: under TSO causality
    // (ppo | fence) they add no pair ppo lacks.
    elt::ProgramBuilder mcm;
    mcm.thread();
    mcm.R(0);
    mcm.mfence();
    mcm.R(1);
    mcm.thread();
    mcm.W(1);
    mcm.mfence();
    mcm.W(0);
    const elt::Program reads = mcm.build();

    const mtm::Model tso = mtm::x86tso();
    EXPECT_NE(barren_axioms(tso, reads) & axiom_bit(tso, "causality"), 0u);
    EXPECT_NE(barren_axioms(tso, reads) & axiom_bit(tso, "sc_per_loc"), 0u);

    // x86tso_star states the same causality as irreflexive(tso ; tso^*):
    // the reflexive closure sees every event.
    const mtm::Model star = registry_model("x86tso_star");
    EXPECT_EQ(barren_axioms(star, reads) & axiom_bit(star, "causality"), 0u);
    EXPECT_NE(barren_axioms(star, reads) & axiom_bit(star, "sc_per_loc"),
              0u);

    // pso's causality reads `fence` beside ppo \ ([W] ; po_mem ; [W]).
    const mtm::Model pso = registry_model("pso");
    EXPECT_EQ(barren_axioms(pso, reads) & axiom_bit(pso, "causality"), 0u);
    EXPECT_NE(barren_axioms(pso, reads) & axiom_bit(pso, "sc_per_loc"), 0u);

    // An axiom that reaches through the fence itself, po ; [F] ; po, is
    // not a plain union; the same union with po alone is.
    const mtm::Model inline_model = parsed_model(
        "model through\nvm off\n"
        "axiom via_fence: acyclic(rf | co | fr | (po ; [F] ; po))\n"
        "axiom via_po: acyclic(rf | co | fr | po)\n");
    EXPECT_EQ(barren_axioms(inline_model, reads),
              axiom_bit(inline_model, "via_po"));

    // A VM program with a fence between two reads and a spurious INVLPG.
    elt::ProgramBuilder vm;
    vm.thread();
    const elt::EventId r0 = vm.R(0);
    vm.rptw(r0);
    vm.mfence();
    const elt::EventId r1 = vm.R(1);
    vm.rptw(r1);
    vm.thread();
    const elt::EventId w1 = vm.W(1);
    vm.wdb(w1);
    vm.rptw(w1);
    const elt::Program fenced = vm.build();
    ASSERT_TRUE(fenced.validate().empty());

    // x86t_elt's invlpg is acyclic(fr_va | po | remap): the fence is a po
    // node only. x86t_elt_fence_invlpg's is acyclic(fr_va | fence | remap):
    // `fence` without ppo or po_mem.
    const mtm::Model elt_model = mtm::x86t_elt();
    EXPECT_NE(barren_axioms(elt_model, fenced) &
                  axiom_bit(elt_model, "invlpg"),
              0u);
    const mtm::Model fence_invlpg = registry_model("x86t_elt_fence_invlpg");
    EXPECT_EQ(barren_axioms(fence_invlpg, fenced) &
                  axiom_bit(fence_invlpg, "invlpg"),
              0u);
    EXPECT_NE(barren_axioms(fence_invlpg, fenced) &
                  axiom_bit(fence_invlpg, "causality"),
              0u);
}

TEST(Engine, SpuriousInvlpgIsBarrenOnlyWhereTheAxiomCannotSeeIt)
{
    elt::ProgramBuilder b;
    b.thread();
    const elt::EventId r0 = b.R(0);
    b.rptw(r0);
    b.invlpg(0);
    const elt::EventId r1 = b.R(0);
    b.rptw(r1);
    b.thread();
    const elt::EventId w = b.W(0);
    b.wdb(w);
    b.rptw(w);
    const elt::Program program = b.build();
    ASSERT_TRUE(program.validate().empty());

    // Every x86t_elt axiom is a plain acyclic union or reads no po.
    const mtm::Model elt_model = mtm::x86t_elt();
    EXPECT_EQ(barren_axioms(elt_model, program),
              (mtm::AxiomMask{1} << elt_model.axioms().size()) - 1);

    const mtm::Model model = parsed_model(
        "model sees_invlpg\nvm on\n"
        "axiom through: irreflexive(po ; [Invlpg] ; po ; fr)\n"
        "axiom around: acyclic(po | fr)\n");
    EXPECT_EQ(barren_axioms(model, program), axiom_bit(model, "around"));
}

TEST(Engine, FenceBeforeAWritesWalkOrdersAWriteReadPair)
{
    // W x ; MFENCE ; W y: the only read-like event after the fence is the
    // page-table walk of W y, a ghost. The fence orders W x -> that walk,
    // a write -> read pair TSO's ppo lacks, so causality can see it.
    elt::ProgramBuilder walks;
    walks.thread();
    const elt::EventId wx = walks.W(0);
    walks.wdb(wx);
    walks.rptw(wx);
    walks.mfence();
    const elt::EventId wy = walks.W(1);
    walks.wdb(wy);
    walks.rptw(wy);
    const elt::Program walked = walks.build();
    ASSERT_TRUE(walked.validate().empty());

    const mtm::Model model = mtm::x86t_elt();
    const mtm::AxiomMask causality = axiom_bit(model, "causality");
    EXPECT_EQ(barren_axioms(model, walked) & causality, 0u);
    EXPECT_NE(barren_axioms(model, walked) & axiom_bit(model, "sc_per_loc"),
              0u);

    // When W y hits the TLB entry of an earlier R y instead, nothing
    // read-like follows the fence, and causality cannot see it.
    elt::ProgramBuilder hit;
    hit.thread();
    const elt::EventId ry = hit.R(1);
    hit.rptw(ry);
    const elt::EventId hx = hit.W(0);
    hit.wdb(hx);
    hit.rptw(hx);
    hit.mfence();
    const elt::EventId hy = hit.W(1);
    hit.wdb(hy);
    const elt::Program hitting = hit.build();
    ASSERT_TRUE(hitting.validate().empty());
    EXPECT_NE(barren_axioms(model, hitting) & causality, 0u);
}

/// One-pass synthesis against the per-axiom reference on \p backend: every
/// suite must match byte for byte, and the per-suite counters keep their
/// per-axiom meaning at every worker count (every candidate is evaluated
/// and the merge deduplicates, so no counter depends on scheduling). Every
/// suite names the one pass, '+'-joined in axiom order, and only the first
/// carries the pass's jobs.
void
expect_pass_matches_reference(const mtm::Model& model, int min_bound,
                              int bound, Backend backend)
{
    SynthesisOptions base = small_options(min_bound, bound);
    base.backend = backend;
    const std::vector<SuiteResult> reference = synthesize_all(model, base);
    ASSERT_EQ(reference.size(), model.axioms().size());
    std::string pass_name;
    for (const mtm::Axiom& axiom : model.axioms()) {
        pass_name += (pass_name.empty() ? "" : "+") + axiom.name;
    }
    for (const int jobs : {1, 2, 4}) {
        for (const int depth : {0, 2}) {
            SynthesisOptions options = base;
            options.jobs = jobs;
            options.shard_depth = depth;
            const std::vector<SuiteResult> pass =
                synthesize_all_parallel(model, options);
            const std::string label =
                model.name() +
                (backend == Backend::kSat ? " sat" : " enum") +
                " jobs=" + std::to_string(jobs) +
                " depth=" + std::to_string(depth);
            ASSERT_EQ(pass.size(), reference.size()) << label;
            EXPECT_GT(pass.front().scheduler.jobs_run, 0u) << label;
            for (std::size_t i = 0; i < pass.size(); ++i) {
                const SuiteResult& want = reference[i];
                const SuiteResult& got = pass[i];
                EXPECT_EQ(got.axiom, want.axiom) << label;
                EXPECT_EQ(got.pass, pass_name) << label;
                if (i > 0) {
                    EXPECT_EQ(got.scheduler.jobs_run, 0u)
                        << label << " " << want.axiom;
                }
                EXPECT_TRUE(got.complete) << label;
                EXPECT_EQ(suite_fingerprint(got), suite_fingerprint(want))
                    << label << " " << want.axiom;
                EXPECT_EQ(got.programs_considered, want.programs_considered)
                    << label << " " << want.axiom;
                EXPECT_EQ(got.executions_considered,
                          want.executions_considered)
                    << label << " " << want.axiom;
                EXPECT_EQ(got.duplicates_rejected, want.duplicates_rejected)
                    << label << " " << want.axiom;
            }
            EXPECT_EQ(unique_test_count(pass), unique_test_count(reference))
                << label;
        }
    }
}

TEST(Engine, ParallelDriverMatchesSerial)
{
    expect_pass_matches_reference(mtm::x86t_elt(), 4, 6,
                                  Backend::kEnumerative);
    std::string error;
    const std::optional<spec::ResolvedModel> tso =
        spec::resolve_model("x86tso.mtm", &error);
    ASSERT_TRUE(tso.has_value()) << error;
    expect_pass_matches_reference(tso->model, 2, 5, Backend::kEnumerative);
}

TEST(Engine, SatPassMatchesThePerAxiomPasses)
{
    expect_pass_matches_reference(mtm::x86t_elt(), 4, 5, Backend::kSat);
    std::string error;
    const std::optional<spec::ResolvedModel> tso =
        spec::resolve_model("x86tso.mtm", &error);
    ASSERT_TRUE(tso.has_value()) << error;
    expect_pass_matches_reference(tso->model, 2, 5, Backend::kSat);
}

TEST(Engine, PartialTargetSetsProjectTheSameSuites)
{
    // A pass over any subset of the axioms yields, for each target, the
    // suite that target's one-axiom pass yields — including subsets whose
    // targets share a skeleton prune and subsets that share none.
    const mtm::Model model = mtm::x86t_elt();
    SynthesisOptions options = small_options(4, 6);
    options.jobs = 2;
    const std::vector<SuiteResult> reference = synthesize_all(model, options);
    const mtm::AxiomMask invlpg = mtm::AxiomMask{1}
                                  << model.axiom_index("invlpg");
    const mtm::AxiomMask rmw = mtm::AxiomMask{1}
                               << model.axiom_index("rmw_atomicity");
    const mtm::AxiomMask tlb = mtm::AxiomMask{1}
                               << model.axiom_index("tlb_causality");
    const mtm::AxiomMask causality = mtm::AxiomMask{1}
                                     << model.axiom_index("causality");
    for (const mtm::AxiomMask targets :
         {invlpg | rmw, rmw | tlb | causality, invlpg | tlb}) {
        const std::vector<SuiteResult> pass =
            synthesize_pass(model, targets, options);
        ASSERT_EQ(pass.size(),
                  static_cast<std::size_t>(std::popcount(targets)));
        for (const SuiteResult& suite : pass) {
            const SuiteResult& want =
                reference[static_cast<std::size_t>(
                    model.axiom_index(suite.axiom))];
            EXPECT_EQ(suite_fingerprint(suite), suite_fingerprint(want))
                << suite.pass << " / " << suite.axiom;
            EXPECT_EQ(suite.programs_considered, want.programs_considered)
                << suite.pass << " / " << suite.axiom;
        }
    }
}

TEST(Engine, MergeKeepsTheEarliestTestOfEachKey)
{
    // Deduplication happens at the merge. With it off, each target's suite
    // holds every accepted test, sorted by canonical key and then by
    // ticket (enumeration order); with it on, exactly the first test of
    // each key, and duplicates_rejected counts the rest. The search is the
    // same either way. Bound 6 is the first at which invlpg's suite has
    // isomorphic tests.
    const mtm::Model model = mtm::x86t_elt();
    for (const int jobs : {1, 4}) {
        SynthesisOptions on = small_options(4, 6);
        on.jobs = jobs;
        SynthesisOptions off = on;
        off.dedup = false;
        const std::vector<SuiteResult> deduped =
            synthesize_all_parallel(model, on);
        const std::vector<SuiteResult> every =
            synthesize_all_parallel(model, off);
        ASSERT_EQ(deduped.size(), every.size());
        std::uint64_t dropped_sum = 0;
        std::uint64_t dropped_max = 0;
        for (std::size_t i = 0; i < every.size(); ++i) {
            const std::string label =
                every[i].axiom + " jobs=" + std::to_string(jobs);
            SuiteResult first_of_each_key;
            for (const SynthesizedTest& test : every[i].tests) {
                if (first_of_each_key.tests.empty() ||
                    first_of_each_key.tests.back().canonical_key !=
                        test.canonical_key) {
                    first_of_each_key.tests.push_back(test);
                }
            }
            EXPECT_EQ(suite_fingerprint(deduped[i]),
                      suite_fingerprint(first_of_each_key))
                << label;
            EXPECT_EQ(deduped[i].duplicates_rejected,
                      every[i].tests.size() - deduped[i].tests.size())
                << label;
            EXPECT_EQ(every[i].duplicates_rejected, 0u) << label;
            EXPECT_EQ(deduped[i].programs_considered,
                      every[i].programs_considered)
                << label;
            EXPECT_EQ(deduped[i].executions_considered,
                      every[i].executions_considered)
                << label;
            dropped_sum += deduped[i].duplicates_rejected;
            dropped_max =
                std::max(dropped_max, deduped[i].duplicates_rejected);
        }
        EXPECT_GT(dropped_max, 0u) << "jobs=" << jobs;
        // dedup_hits counts distinct dropped candidates: a candidate
        // dropped from several suites counts once.
        const std::uint64_t hits = deduped.front().scheduler.dedup_hits;
        EXPECT_GE(hits, dropped_max) << "jobs=" << jobs;
        EXPECT_LE(hits, dropped_sum) << "jobs=" << jobs;
        EXPECT_EQ(every.front().scheduler.dedup_hits, 0u) << "jobs=" << jobs;
    }
}

TEST(Engine, ThreeCoreSynthesisFindsCrossCoreInvlpgTests)
{
    // With three cores a WPTE must invoke three INVLPGs; the smallest
    // three-core invlpg test is WPTE + 3 INVLPG + R + Rptw = 6 events.
    const mtm::Model model = mtm::x86t_elt();
    SynthesisOptions opt = small_options(4, 6);
    opt.max_threads = 3;
    const auto suite = synthesize_suite(model, "invlpg", opt);
    bool found_three_core = false;
    for (const auto& test : suite.tests) {
        found_three_core =
            found_three_core || test.witness.program.num_threads() == 3;
    }
    EXPECT_TRUE(found_three_core);
}

TEST(Engine, UniqueTestCountDedupsAcrossSuites)
{
    const mtm::Model model = mtm::x86t_elt();
    std::vector<SuiteResult> suites;
    suites.push_back(synthesize_suite(model, "sc_per_loc", small_options(4, 4)));
    suites.push_back(synthesize_suite(model, "invlpg", small_options(4, 4)));
    const int unique = unique_test_count(suites);
    EXPECT_GT(unique, 0);
    EXPECT_LE(unique, static_cast<int>(suites[0].tests.size() +
                                       suites[1].tests.size()));
}

}  // namespace
}  // namespace transform::synth
