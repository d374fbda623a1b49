/// \file
/// Ablation for the symmetry reduction / deduplication stage (section IV-C;
/// the Fig. 9b caption credits symmetry reduction for making 10-instruction
/// synthesis practical). The skeleton generator is already near-canonical
/// (sorted thread signatures, first-use address numbering), so the residual
/// symmetry shows up as a few isomorphic programs that all accept. The
/// engine evaluates every candidate either way and deduplicates at the
/// merge, keeping the earliest candidate's test of each canonical key. With
/// dedup disabled the suite keeps the isomorphic tests too; its unique
/// suite must be identical. The default configuration (`invlpg`, bound 7)
/// is one where the merge drops tests.
#include <cstdio>
#include <set>

#include "bench_common.h"
#include "mtm/model.h"
#include "synth/canonical.h"
#include "synth/engine.h"

int
main()
{
    using namespace transform;
    const int bound = bench::env_int("TRANSFORM_ABLATION_BOUND", 7);
    const int budget = bench::env_int("TRANSFORM_CELL_BUDGET", 300);
    bench::banner("ablation_symmetry", "section IV-C / Fig. 9b caption",
                  "canonical-form dedup keeps one test per isomorphism "
                  "class; disabling it keeps the isomorphic tests but must "
                  "not change the unique suite");

    const mtm::Model model = mtm::x86t_elt();
    synth::SynthesisOptions with_dedup;
    with_dedup.min_bound = 4;
    with_dedup.bound = bound;
    with_dedup.max_threads = 2;
    with_dedup.max_vas = 2;
    with_dedup.time_budget_seconds = budget;
    synth::SynthesisOptions without_dedup = with_dedup;
    without_dedup.dedup = false;

    const auto on = synth::synthesize_suite(model, "invlpg", with_dedup);
    const auto off = synth::synthesize_suite(model, "invlpg", without_dedup);

    std::set<std::string> unique_on;
    for (const auto& test : on.tests) {
        unique_on.insert(test.canonical_key);
    }
    std::set<std::string> unique_off;
    for (const auto& test : off.tests) {
        unique_off.insert(test.canonical_key);
    }

    std::printf("\ninvlpg at bound %d:\n", bound);
    std::printf("%-22s %8s %10s %14s %14s %10s\n", "dedup", "tests",
                "unique", "programs", "executions", "secs");
    std::printf("%-22s %8zu %10zu %14llu %14llu %10.3f\n",
                "on (paper pipeline)", on.tests.size(), unique_on.size(),
                static_cast<unsigned long long>(on.programs_considered),
                static_cast<unsigned long long>(on.executions_considered),
                on.seconds);
    std::printf("%-22s %8zu %10zu %14llu %14llu %10.3f\n", "off (ablation)",
                off.tests.size(), unique_off.size(),
                static_cast<unsigned long long>(off.programs_considered),
                static_cast<unsigned long long>(off.executions_considered),
                off.seconds);
    std::printf("isomorphic tests dropped at the merge: %llu\n",
                static_cast<unsigned long long>(on.duplicates_rejected));

    bool ok = true;
    ok = bench::check("on and off complete", on.complete && off.complete) &&
         ok;
    ok = bench::check("dedup-off keeps isomorphic tests at this bound",
                      off.tests.size() > unique_off.size()) &&
         ok;
    ok = bench::check("dedup-on keys are unique",
                      unique_on.size() == on.tests.size()) &&
         ok;
    ok = bench::check("identical unique suites", unique_on == unique_off) && ok;
    ok = bench::check("dedup-on tests + dropped == dedup-off tests",
                      on.tests.size() + on.duplicates_rejected ==
                          off.tests.size()) &&
         ok;
    ok = bench::check("the search is the same either way",
                      on.programs_considered == off.programs_considered &&
                          on.executions_considered ==
                              off.executions_considered) &&
         ok;

    std::printf("\nablation_symmetry overall: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
