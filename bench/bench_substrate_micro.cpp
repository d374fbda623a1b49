/// \file
/// google-benchmark microbenchmarks for the substrates the synthesis
/// pipeline stands on: the CDCL solver, the relational/boolean layer, the
/// derivation engine, the canonicalizer and the per-program backends —
/// followed by the witness-search throughput section, which measures the
/// end-to-end per-candidate evaluation rate (programs/sec) of both
/// backends, checks suite byte-identity across worker counts, and records
/// everything (including a heap-allocation proxy) in BENCH_substrate.json.
///
/// Knobs: TRANSFORM_SUBSTRATE_MIN_BOUND (default 4),
/// TRANSFORM_SUBSTRATE_BOUND (default 6), TRANSFORM_SUBSTRATE_JSON
/// (default BENCH_substrate.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "elt/derive.h"
#include "elt/fixtures.h"
#include "mtm/encoding.h"
#include "mtm/model.h"
#include "obs/alloc.h"
#include "rel/bool_factory.h"
#include "rel/relation.h"
#include "sat/solver.h"
#include "synth/canonical.h"
#include "synth/engine.h"
#include "synth/exec_enum.h"
#include "synth/minimality.h"
#include "util/stopwatch.h"

// The allocation proxy this bench grades the zero-allocation hot path on
// is the library's always-on interposed operator-new counter
// (obs::alloc_count(), obs/alloc.h) — it lived here as a private proxy
// until the observability layer promoted it so tools and tests share one
// counter.

namespace {

using namespace transform;

/// Builds a pigeonhole instance (n+1 pigeons, n holes) in a fresh solver.
void
bm_sat_pigeonhole(benchmark::State& state)
{
    const int holes = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sat::Solver s;
        std::vector<std::vector<sat::Var>> in(holes + 1,
                                              std::vector<sat::Var>(holes));
        for (auto& row : in) {
            for (auto& v : row) {
                v = s.new_var();
            }
        }
        for (int p = 0; p <= holes; ++p) {
            sat::Clause clause;
            for (int h = 0; h < holes; ++h) {
                clause.push_back(sat::Lit(in[p][h], false));
            }
            s.add_clause(clause);
        }
        for (int h = 0; h < holes; ++h) {
            for (int p1 = 0; p1 <= holes; ++p1) {
                for (int p2 = p1 + 1; p2 <= holes; ++p2) {
                    s.add_binary(sat::Lit(in[p1][h], true),
                                 sat::Lit(in[p2][h], true));
                }
            }
        }
        benchmark::DoNotOptimize(s.solve());
    }
}
BENCHMARK(bm_sat_pigeonhole)->Arg(5)->Arg(6)->Arg(7);

void
bm_rel_closure(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        rel::BoolFactory f;
        sat::Solver s;
        const rel::RelExpr r = rel::RelExpr::free(&f, &s, n);
        benchmark::DoNotOptimize(r.closure(&f));
    }
}
BENCHMARK(bm_rel_closure)->Arg(6)->Arg(10)->Arg(14);

void
bm_derive_fig2c(benchmark::State& state)
{
    const elt::Execution e = elt::fixtures::fig2c_sb_elt_aliased();
    for (auto _ : state) {
        benchmark::DoNotOptimize(elt::derive(e));
    }
}
BENCHMARK(bm_derive_fig2c);

/// The scratch-reusing derivation the engine's inner loop runs: same
/// relations as bm_derive_fig2c, no steady-state allocation.
void
bm_derive_into_fig2c(benchmark::State& state)
{
    const elt::Execution e = elt::fixtures::fig2c_sb_elt_aliased();
    elt::DerivedRelations derived;
    elt::DeriveScratch scratch;
    for (auto _ : state) {
        elt::derive_into(e, {}, &derived, &scratch);
        benchmark::DoNotOptimize(derived.well_formed);
    }
}
BENCHMARK(bm_derive_into_fig2c);

void
bm_canonical_key(benchmark::State& state)
{
    const elt::Program p = elt::fixtures::fig2c_sb_elt_aliased().program;
    synth::CanonicalScratch scratch;
    for (auto _ : state) {
        benchmark::DoNotOptimize(synth::canonical_key(p, &scratch));
    }
}
BENCHMARK(bm_canonical_key);

void
bm_exec_enum_dirtybit3(benchmark::State& state)
{
    const elt::Program p = elt::fixtures::fig10b_dirtybit3().program;
    for (auto _ : state) {
        int count = 0;
        synth::for_each_execution(p, true, [&](const elt::Execution&) {
            ++count;
            return true;
        });
        benchmark::DoNotOptimize(count);
    }
}
BENCHMARK(bm_exec_enum_dirtybit3);

void
bm_sat_backend_dirtybit3(benchmark::State& state)
{
    const elt::Program p = elt::fixtures::fig10b_dirtybit3().program;
    const mtm::Model model = mtm::x86t_elt();
    mtm::EncodingScratch scratch;
    for (auto _ : state) {
        mtm::ProgramEncoding encoding(p, &model, &scratch);
        int count = 0;
        encoding.enumerate("", [&](const elt::Execution&) {
            ++count;
            return true;
        });
        benchmark::DoNotOptimize(count);
    }
}
BENCHMARK(bm_sat_backend_dirtybit3);

void
bm_judge_ptwalk2(benchmark::State& state)
{
    const elt::Execution e = elt::fixtures::fig10a_ptwalk2();
    const mtm::Model model = mtm::x86t_elt();
    synth::JudgeScratch scratch;
    for (auto _ : state) {
        benchmark::DoNotOptimize(synth::judge(model, e, &scratch));
    }
}
BENCHMARK(bm_judge_ptwalk2);

// ---------------------------------------------------------------------------
// Witness-search throughput section.
// ---------------------------------------------------------------------------

struct BackendRun {
    double seconds = 0.0;
    std::uint64_t programs = 0;
    std::uint64_t executions = 0;
    std::uint64_t allocations = 0;
    std::uint64_t bases_built = 0;   ///< SAT probe sessions: structure bases
    std::uint64_t bases_reused = 0;  ///< SAT probe sessions: base-cache hits
    int tests = 0;
    std::string fingerprint;       ///< keys + sizes + violated
    std::string key_fingerprint;   ///< keys + sizes only
};

/// Runs the witness-search workload (the sc_per_loc + causality suites of
/// the given model — the two axioms with the largest candidate spaces) on
/// one backend at the given worker count.
BackendRun
run_workload(const mtm::Model& model, synth::Backend backend, int jobs,
             int min_bound, int bound)
{
    synth::SynthesisOptions opt;
    opt.min_bound = min_bound;
    opt.bound = bound;
    opt.jobs = jobs;
    opt.backend = backend;
    BackendRun run;
    std::vector<synth::SuiteResult> suites;
    const std::uint64_t allocations_before = obs::alloc_count();
    util::Stopwatch watch;
    for (const char* axiom : {"sc_per_loc", "causality"}) {
        suites.push_back(synth::synthesize_suite(model, axiom, opt));
    }
    run.seconds = watch.elapsed_seconds();
    run.allocations = obs::alloc_count() - allocations_before;
    for (const synth::SuiteResult& suite : suites) {
        run.programs += suite.programs_considered;
        run.executions += suite.executions_considered;
        run.tests += static_cast<int>(suite.tests.size());
        run.bases_built += suite.solver.bases_built;
        run.bases_reused += suite.solver.bases_reused;
    }
    run.fingerprint =
        bench::suite_fingerprint(suites, /*include_violated=*/true);
    run.key_fingerprint =
        bench::suite_fingerprint(suites, /*include_violated=*/false);
    return run;
}

/// Repeats the workload and keeps the fastest run (standard min-wall
/// noise rejection: the suites are deterministic, so every repeat does
/// identical work and the minimum is the least-perturbed measurement).
/// Any fingerprint divergence between repeats fails the bench — a
/// determinism bug would otherwise hide behind the noise this exists to
/// reject.
BackendRun
best_of(int repeats, const mtm::Model& model, synth::Backend backend,
        int jobs, int min_bound, int bound, bool* ok)
{
    BackendRun best = run_workload(model, backend, jobs, min_bound, bound);
    for (int rep = 1; rep < repeats; ++rep) {
        BackendRun run =
            run_workload(model, backend, jobs, min_bound, bound);
        if (run.fingerprint != best.fingerprint) {
            *ok = bench::check("repeat runs byte-identical", false) && *ok;
        }
        if (run.seconds < best.seconds) {
            best = std::move(run);
        }
    }
    return best;
}

/// Steady-state allocations per judge() verdict with ONE reused
/// JudgeScratch — the pooled interesting/minimality/relaxation pipeline's
/// grade: after the warm-up pass seeds the scratch pools (relaxed-program
/// events, witness vectors, derivation buffers), repeat verdicts over the
/// same witness mix must run allocation-free. Mixing fixtures of
/// different shapes (VM ptwalk, dirty-bit, aliased MCM store buffering)
/// keeps the pools honest: each verdict re-derives every applicable
/// relaxation of its witness.
double
minimality_allocs_per_witness()
{
    const mtm::Model model = mtm::x86t_elt();
    const std::vector<elt::Execution> witnesses = {
        elt::fixtures::fig10a_ptwalk2(),
        elt::fixtures::fig10b_dirtybit3(),
        elt::fixtures::fig2c_sb_elt_aliased(),
    };
    synth::JudgeScratch scratch;
    for (const elt::Execution& e : witnesses) {  // warm-up: fill the pools
        benchmark::DoNotOptimize(synth::judge(model, e, &scratch));
    }
    constexpr int kRounds = 64;
    const std::uint64_t before = obs::alloc_count();
    for (int round = 0; round < kRounds; ++round) {
        for (const elt::Execution& e : witnesses) {
            benchmark::DoNotOptimize(synth::judge(model, e, &scratch));
        }
    }
    const std::uint64_t after = obs::alloc_count();
    return static_cast<double>(after - before) /
           static_cast<double>(kRounds * witnesses.size());
}

/// The phase-attributed allocation breakdown of the SAT workload: one
/// jobs=1 run with track_allocs + collect_metrics on, so every operator
/// new lands in a phase bucket. Returns the merged totals plus programs
/// and the fingerprint (which must match the untracked run's — tracking
/// is not allowed to perturb the suite).
struct TrackedAllocRun {
    obs::AllocTotals allocs;
    std::uint64_t programs = 0;
    std::string fingerprint;
};

TrackedAllocRun
tracked_alloc_run(const mtm::Model& model, int min_bound, int bound)
{
    synth::SynthesisOptions opt;
    opt.min_bound = min_bound;
    opt.bound = bound;
    opt.jobs = 1;
    opt.backend = synth::Backend::kSat;
    opt.collect_metrics = true;
    opt.track_allocs = true;
    TrackedAllocRun run;
    std::vector<synth::SuiteResult> suites;
    for (const char* axiom : {"sc_per_loc", "causality"}) {
        suites.push_back(synth::synthesize_suite(model, axiom, opt));
    }
    for (const synth::SuiteResult& suite : suites) {
        run.programs += suite.programs_considered;
        run.allocs.merge(suite.allocs);
    }
    run.fingerprint =
        bench::suite_fingerprint(suites, /*include_violated=*/true);
    return run;
}

int
witness_search_section()
{
    const int min_bound = bench::env_int("TRANSFORM_SUBSTRATE_MIN_BOUND", 4);
    const int bound = bench::env_int("TRANSFORM_SUBSTRATE_BOUND", 6);
    const int repeats =
        std::max(1, bench::env_int("TRANSFORM_SUBSTRATE_REPEATS", 3));
    const char* json_env = std::getenv("TRANSFORM_SUBSTRATE_JSON");
    const std::string json_path =
        json_env != nullptr ? json_env : "BENCH_substrate.json";

    bench::banner("substrate_micro / witness search",
                  "per-candidate evaluation cost of the synthesis loop "
                  "(TransForm section IV inner loop)",
                  "zero-allocation pipeline: streaming SAT enumeration, "
                  "scratch-reused derivation, bitmask verdicts; suites "
                  "byte-identical at every worker count");
    std::printf("x86t_elt, bounds %d..%d\n\n", min_bound, bound);

    const mtm::Model model = mtm::x86t_elt();

    bool ok = true;
    std::printf("%12s %6s %10s %12s %14s %12s\n", "backend", "jobs",
                "wall (s)", "programs/s", "executions/s", "allocs/prog");
    BackendRun sat_run;
    BackendRun enum_run;
    for (const synth::Backend backend :
         {synth::Backend::kEnumerative, synth::Backend::kSat}) {
        const char* backend_name =
            backend == synth::Backend::kSat ? "sat" : "enumerative";
        BackendRun reference;
        for (const int jobs : {1, 2, 4}) {
            const BackendRun run = best_of(repeats, model, backend, jobs,
                                           min_bound, bound, &ok);
            std::printf("%12s %6d %10.3f %12.0f %14.0f %12.1f\n",
                        backend_name, jobs, run.seconds,
                        run.programs / run.seconds,
                        run.executions / run.seconds,
                        static_cast<double>(run.allocations) / run.programs);
            if (jobs == 1) {
                reference = run;
                if (backend == synth::Backend::kSat) {
                    sat_run = run;
                } else {
                    enum_run = run;
                }
            } else {
                ok = bench::check(
                         (std::string(backend_name) +
                          " suite byte-identical at jobs=" +
                          std::to_string(jobs))
                             .c_str(),
                         run.fingerprint == reference.fingerprint) &&
                     ok;
            }
        }
    }
    // The synthesized test SET (keys + sizes) is backend-independent: a
    // program enters the suite iff some qualifying witness exists, which
    // both backends agree on even though they find different witnesses.
    ok = bench::check("test set identical across backends",
                      sat_run.key_fingerprint == enum_run.key_fingerprint) &&
         ok;

    // Structure-base economy of the jobs=1 SAT run: how many base
    // encodings the probe sessions actually built vs how many structure
    // revisits the cache absorbed. builds/program is the gated ratio — a
    // broken cache shows up as it jumping toward the structure-change
    // count.
    const double base_builds_per_program =
        static_cast<double>(sat_run.bases_built) /
        static_cast<double>(sat_run.programs);
    std::printf("\nsat structure bases: built %" PRIu64 ", reused %" PRIu64
                " (%.4f builds/prog)\n",
                sat_run.bases_built, sat_run.bases_reused,
                base_builds_per_program);
    ok = bench::check("probe sessions reuse structure bases",
                      sat_run.bases_reused > 0) &&
         ok;

    const double judge_allocs = minimality_allocs_per_witness();
    std::printf("judge pipeline steady state: %.3f allocs/witness\n",
                judge_allocs);

    // Phase-attributed allocation breakdown (obs::AllocTracker): where the
    // per-candidate allocations actually happen. Tracking must not perturb
    // the suite — the tracked fingerprint is held to the untracked one.
    const TrackedAllocRun tracked =
        tracked_alloc_run(model, min_bound, bound);
    ok = bench::check("alloc tracking does not perturb the suite",
                      tracked.fingerprint == sat_run.fingerprint) &&
         ok;
    std::printf("\nsat allocs per phase (per program):\n");
    std::vector<bench::JsonPair> phase_pairs;
    for (int p = 0; p < obs::kPhaseCount; ++p) {
        const obs::AllocSlot& slot =
            tracked.allocs.phases[static_cast<std::size_t>(p)];
        const double per_program =
            static_cast<double>(slot.count) /
            static_cast<double>(std::max<std::uint64_t>(tracked.programs, 1));
        std::printf("  %-14s %10" PRIu64 " allocs  %8.3f /prog\n",
                    obs::phase_name(static_cast<obs::Phase>(p)), slot.count,
                    per_program);
        phase_pairs.push_back(bench::jnum(
            std::string("sat_allocs_per_phase_") +
                obs::phase_name(static_cast<obs::Phase>(p)),
            per_program));
    }

    std::vector<bench::JsonPair> pairs =
        {
            bench::jstr("bench", "substrate_micro"),
            bench::jstr("workload", "x86t_elt sc_per_loc+causality suites"),
            bench::jint("min_bound", static_cast<std::uint64_t>(min_bound)),
            bench::jint("bound", static_cast<std::uint64_t>(bound)),
            bench::jint("programs", sat_run.programs),
            bench::jint("tests", static_cast<std::uint64_t>(sat_run.tests)),
            // The SAT rows keep their sat_incremental_ names, so that
            // they stay comparable with the baselines recorded while the
            // backend also had a fresh-encoding route.
            bench::jnum("sat_incremental_programs_per_sec",
                        sat_run.programs / sat_run.seconds),
            bench::jnum("sat_incremental_executions_per_sec",
                        sat_run.executions / sat_run.seconds),
            bench::jnum("sat_incremental_allocs_per_program",
                        static_cast<double>(sat_run.allocations) /
                            sat_run.programs),
            bench::jint("sat_incremental_bases_built", sat_run.bases_built),
            bench::jint("sat_incremental_bases_reused",
                        sat_run.bases_reused),
            bench::jnum("sat_incremental_base_builds_per_program",
                        base_builds_per_program),
            bench::jnum("minimality_allocs_per_witness", judge_allocs),
            bench::jnum("enum_programs_per_sec",
                        enum_run.programs / enum_run.seconds),
            bench::jnum("enum_executions_per_sec",
                        enum_run.executions / enum_run.seconds),
            bench::jnum("enum_allocs_per_program",
                        static_cast<double>(enum_run.allocations) /
                            enum_run.programs),
        };
    pairs.insert(pairs.end(), phase_pairs.begin(), phase_pairs.end());
    pairs.push_back(bench::jbool("fingerprints_jobs_identical", ok));
    bench::write_json(json_path, pairs);
    std::printf("\nwitness search overall: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return witness_search_section();
}
