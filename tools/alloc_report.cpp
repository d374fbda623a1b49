/// \file
/// alloc_report — the allocation-hunt entry point (docs/observability.md,
/// "Hunting an allocation regression").
///
/// Runs a synthesis workload with phase/site-attributed allocation
/// tracking bound (obs::AllocTracker) and prints the breakdown: which
/// phase of the candidate pipeline allocates, through which named
/// call-site bucket, and at what per-program rate (programs sum the
/// suites' programs_considered, i.e. per-axiom candidate evaluations; a
/// pass's allocations count once). The same numbers ride
/// in `elt_synth --metrics-json` reports; this tool exists so the hunt
/// does not start with writing a JSON query.
///
///   alloc_report                         # x86t_elt, all axioms, bound 4
///   alloc_report --axiom invlpg --bound 5
///   alloc_report --model sc_t_elt --backend sat --jobs 4
///
/// Flags:
///   --model NAME|PATH same resolution as elt_synth (default x86t_elt)
///   --axiom NAME      one axiom (default: every axiom, merged)
///   --bound N         instruction bound (default 4 — small on purpose:
///                     steady-state ratios stabilize quickly and the tool
///                     should answer in seconds)
///   --backend NAME    enum (default) | sat
///   --jobs N          scheduler workers (0 = one per hardware thread)
///
/// Two cross-checks print as PASS/FAIL lines: the per-phase and per-site
/// tables must sum to the same grand total (each allocation lands in
/// exactly one bucket of each table), and the tracked total must not
/// exceed the process-wide operator-new proxy delta over the run
/// (obs::alloc_count()).
///
/// Exit codes: 0 = report printed (cross-checks included); 1 = a
/// cross-check failed; 2 = usage error.
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "mtm/model.h"
#include "obs/alloc.h"
#include "spec/registry.h"
#include "synth/engine.h"
#include "tool_args.h"

namespace {

using namespace transform;

void
print_table(const obs::AllocTotals& totals, std::uint64_t programs)
{
    const double per_program =
        programs > 0 ? 1.0 / static_cast<double>(programs) : 0.0;
    std::printf("  %-24s %12s %14s %16s\n", "phase", "allocs", "bytes",
                "allocs/program");
    for (int p = 0; p < obs::kPhaseCount; ++p) {
        const obs::AllocSlot& slot =
            totals.phases[static_cast<std::size_t>(p)];
        if (slot.count == 0) {
            continue;
        }
        std::printf("  %-24s %12llu %14llu %16.3f\n",
                    obs::phase_name(static_cast<obs::Phase>(p)),
                    static_cast<unsigned long long>(slot.count),
                    static_cast<unsigned long long>(slot.bytes),
                    static_cast<double>(slot.count) * per_program);
    }
    std::printf("  %-24s %12s %14s %16s\n", "site", "allocs", "bytes",
                "allocs/program");
    for (int s = 0; s < obs::kAllocSiteCount; ++s) {
        const obs::AllocSlot& slot =
            totals.sites[static_cast<std::size_t>(s)];
        if (slot.count == 0) {
            continue;
        }
        std::printf("  %-24s %12llu %14llu %16.3f\n",
                    obs::alloc_site_name(static_cast<obs::AllocSite>(s)),
                    static_cast<unsigned long long>(slot.count),
                    static_cast<unsigned long long>(slot.bytes),
                    static_cast<double>(slot.count) * per_program);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string model_name = "x86t_elt";
    std::string axiom;
    int bound = 4;
    std::string backend = "enum";
    int jobs = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const std::string text = i + 1 < argc ? argv[i + 1] : "";
        long long parsed = 0;
        if (flag == "--model") {
            model_name = text;
            ++i;
        } else if (flag == "--axiom") {
            axiom = text;
            ++i;
        } else if (flag == "--bound") {
            ++i;
            if (!tools::parse_int(text, 1, 64, &parsed)) {
                return tools::usage_error(flag, "a bound in 1..64", text);
            }
            bound = static_cast<int>(parsed);
        } else if (flag == "--backend") {
            ++i;
            if (text != "enum" && text != "sat") {
                return tools::usage_error(flag, "'enum' or 'sat'", text);
            }
            backend = text;
        } else if (flag == "--jobs") {
            ++i;
            if (!tools::parse_jobs(text, &jobs)) {
                return tools::usage_error(flag, tools::kJobsExpectation,
                                          text);
            }
        } else {
            return tools::unknown_flag(flag);
        }
    }

    std::string model_error;
    const std::optional<spec::ResolvedModel> resolved =
        spec::resolve_model(model_name, &model_error);
    if (!resolved.has_value()) {
        std::fprintf(stderr, "%s\n", model_error.c_str());
        return 2;
    }
    const mtm::Model& model = resolved->model;
    if (!axiom.empty() && model.axiom(axiom) == nullptr) {
        std::fprintf(stderr, "model %s has no axiom '%s'\n",
                     model.name().c_str(), axiom.c_str());
        return 2;
    }

    synth::SynthesisOptions options;
    options.min_bound = model.vm_aware() ? 4 : 2;
    options.bound = bound;
    options.backend = backend == "sat" ? synth::Backend::kSat
                                       : synth::Backend::kEnumerative;
    options.jobs = jobs;
    options.collect_metrics = true;  // phase sections drive attribution
    options.track_allocs = true;

    const std::uint64_t proxy_before = obs::alloc_count();
    obs::AllocTotals totals;
    std::uint64_t programs = 0;
    std::vector<synth::SuiteResult> suites;
    if (!axiom.empty()) {
        suites.push_back(synth::synthesize_suite(model, axiom, options));
    } else {
        suites = synth::synthesize_all_parallel(model, options);
    }
    for (const synth::SuiteResult& suite : suites) {
        totals.merge(suite.allocs);
        programs += suite.programs_considered;
    }
    const std::uint64_t proxy_delta = obs::alloc_count() - proxy_before;

    std::printf("alloc_report: model %s, backend %s, bound %d, jobs %d\n",
                model.name().c_str(), backend.c_str(), bound, jobs);
    std::printf("%llu programs, %llu tracked allocs (%llu bytes), "
                "%llu process-wide\n",
                static_cast<unsigned long long>(programs),
                static_cast<unsigned long long>(totals.total_count()),
                static_cast<unsigned long long>(totals.total_bytes()),
                static_cast<unsigned long long>(proxy_delta));
    print_table(totals, programs);

    // Cross-checks (the same invariants tests/obs_test.cpp pins).
    std::uint64_t site_count = 0;
    for (const obs::AllocSlot& slot : totals.sites) {
        site_count += slot.count;
    }
    bool ok = true;
    if (site_count != totals.total_count()) {
        std::printf("  [FAIL] phase and site tables disagree "
                    "(%llu vs %llu)\n",
                    static_cast<unsigned long long>(totals.total_count()),
                    static_cast<unsigned long long>(site_count));
        ok = false;
    } else {
        std::printf("  [PASS] phase and site tables sum to the same "
                    "total\n");
    }
    // Worker threads bind only while running shard jobs, so the tracked
    // total is a subset of (never exceeds) the process-wide proxy delta.
    if (totals.total_count() > proxy_delta) {
        std::printf("  [FAIL] tracked allocs exceed the process-wide "
                    "proxy delta\n");
        ok = false;
    } else {
        std::printf("  [PASS] tracked allocs within the process-wide "
                    "proxy delta\n");
    }
    return ok ? 0 : 1;
}
