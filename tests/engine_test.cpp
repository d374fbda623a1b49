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
    // every candidate sharing a canonical key is eligible for the same
    // targets.
    for (const mtm::Model& model : {mtm::x86t_elt(), mtm::x86tso()}) {
        const int min_bound = model.vm_aware() ? 4 : 2;
        const int max_bound = model.vm_aware() ? 6 : 5;
        const SynthesisOptions options = small_options(min_bound, max_bound);
        std::map<std::string, mtm::AxiomMask> seen;
        std::size_t shared_keys = 0;
        for (int size = min_bound; size <= max_bound; ++size) {
            for_each_skeleton(
                engine_skeleton_options(model, "sc_per_loc", options, size),
                [&](const elt::Program& program) {
                    const mtm::AxiomMask mask =
                        eligible_axioms(model, program);
                    const auto [it, fresh] =
                        seen.emplace(canonical_key(program), mask);
                    shared_keys += fresh ? 0 : 1;
                    EXPECT_EQ(it->second, mask)
                        << model.name() << ": " << it->first;
                    return true;
                });
        }
        EXPECT_GT(shared_keys, 0u) << model.name();
    }
}

/// One-pass synthesis against the per-axiom reference: every suite must
/// match byte for byte, and the per-suite counters keep their per-axiom
/// meaning at every worker count (every candidate is evaluated and the
/// merge deduplicates, so no counter depends on scheduling).
void
expect_pass_matches_reference(const mtm::Model& model, int min_bound,
                              int bound)
{
    const SynthesisOptions base = small_options(min_bound, bound);
    const std::vector<SuiteResult> reference = synthesize_all(model, base);
    ASSERT_EQ(reference.size(), model.axioms().size());
    for (const int jobs : {1, 2, 4}) {
        for (const int depth : {0, 2}) {
            SynthesisOptions options = base;
            options.jobs = jobs;
            options.shard_depth = depth;
            const std::vector<SuiteResult> pass =
                synthesize_all_parallel(model, options);
            const std::string label = model.name() + " jobs=" +
                                      std::to_string(jobs) +
                                      " depth=" + std::to_string(depth);
            ASSERT_EQ(pass.size(), reference.size()) << label;
            for (std::size_t i = 0; i < pass.size(); ++i) {
                const SuiteResult& want = reference[i];
                const SuiteResult& got = pass[i];
                EXPECT_EQ(got.axiom, want.axiom) << label;
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
    expect_pass_matches_reference(mtm::x86t_elt(), 4, 6);
    std::string error;
    const std::optional<spec::ResolvedModel> tso =
        spec::resolve_model("x86tso.mtm", &error);
    ASSERT_TRUE(tso.has_value()) << error;
    expect_pass_matches_reference(tso->model, 2, 5);
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
