/// \file
/// elt_synth — the TransForm synthesis pipeline as a command-line tool.
///
/// Synthesizes the per-axiom suite(s) of minimal, interesting, unique ELTs
/// for a model up to an instruction bound and prints them (or writes one
/// litmus/XML file per test into an output directory).
///
///   elt_synth --axiom invlpg --bound 5
///   elt_synth --model sc_t_elt --all --bound 6 --out suites/
///   elt_synth --model examples/models/pso_t_elt.mtm --bound 4
///   elt_synth --list-models
///   elt_synth --list-axioms
///
/// Flags:
///   --model NAME|PATH x86t_elt (default) | any registry model name | a
///                     path to a .mtm specification file (see
///                     docs/models.md; malformed files exit 2 with a
///                     file:line:col diagnostic)
///   --axiom NAME      target axiom (default: every axiom, as --all)
///   --all             synthesize every per-axiom suite
///   --bound N         instruction bound, ghosts included (default 5,
///                     at most 64: one bit per event in the axiom kernel)
///   --threads N       max cores (default 2)
///   --vas N           max data VAs (default 2)
///   --budget SECONDS  time budget of the search (default unlimited); one
///                     budget for the whole call, since --all searches
///                     every axiom in one pass on either backend
///   --backend NAME    enum (default) | sat
///   --jobs N          scheduler workers (0 = one per hardware thread)
///   --shard-depth D   auto (default: the smallest skeleton-prefix depth
///                     that splits the largest bound into >= 512 shards) |
///                     fixed depth 1..32; one job per shard, and the suite
///                     is identical either way
///   --progress        stderr heartbeat every ~2s while the search runs:
///                     shards done/submitted, candidates visited (with an
///                     instantaneous candidates/sec rate), pre-merge tests
///                     found, checkpoint save/replay counters and elapsed
///                     time. stdout (the suite itself) is untouched; off
///                     by default
///   --alloc-stats     attribute every operator-new call to the active
///                     phase and call-site bucket (obs::AllocTracker) and
///                     print the per-pass breakdown to stderr; also
///                     carried in --metrics-json reports
///   --stats           print scheduler counters per pass plus an
///                     all-axiom aggregate (jobs, steals, dedup hits);
///                     under --backend sat also the per-pass SAT
///                     solver counters (solves, decisions, propagations,
///                     conflicts, ..., plus the probe sessions' assumed
///                     literals, retired activation guards, and retained
///                     learned clauses; the solve seconds only with
///                     --metrics-json, which runs the solvers' clock);
///                     then the process's peak resident set size
///   --trace FILE      record shard jobs and the pass as spans and write a
///                     Chrome trace-event JSON file
///                     (open in Perfetto or chrome://tracing); see
///                     docs/observability.md
///   --metrics-json FILE
///                     collect the phase-attributed metrics breakdown and
///                     write the versioned metrics-JSON run report
///   --out DIR         write <suite>/<n>.litmus and .xml files
///   --quiet           summary only (no test listings)
///   --spec            print the model as an Alloy-style module and exit
///   --spec-mtm        print the model as .mtm DSL source and exit
///   --list-models     list every resolvable --model name and exit
///
/// Robustness (docs/robustness.md):
///   --checkpoint FILE journal every completed shard task that visited a
///                     candidate (atomic header, fsync'ed checksummed
///                     records) so an interrupted run can resume
///   --resume          with --checkpoint: replay the journal's shards
///                     instead of re-searching them (refused when the
///                     journal's run configuration differs); the resumed
///                     suite is byte-identical to an uninterrupted run
///   --shard-retries N re-enqueue a faulted shard up to N times before
///                     quarantining it into the suite's failure list
///                     (default 2)
///   --sat-conflict-budget N
///                     under --backend sat: cap each solve at N conflicts;
///                     an exhausted budget is a retryable shard fault
///                     (0 = unlimited, default)
///   --fault-plan SPEC deterministic fault injection for testing the
///                     containment machinery, e.g.
///                     "seed=7,site=derive,rate=1000,mode=transient"
///                     (also read from $TRANSFORM_FAULT_PLAN)
///
/// SIGINT/SIGTERM request cooperative cancellation: in-flight shards stop
/// within milliseconds, the deterministic partial suite is still merged
/// and printed, and the summary notes the cancellation.
///
/// Numeric flags are validated strictly (std::from_chars, tool_args.h):
/// trailing junk, hex/garbage, or out-of-range values are usage errors,
/// never silently 0.
///
/// Suite content (test listings, --out files) goes to stdout/disk; summary
/// and stats diagnostics go to stderr. Within a time budget the suite is
/// deterministic, so stdout is byte-identical for every --jobs value.
/// Each suite's summary line counts the programs searched for its axiom
/// (eligible for it, and not proven barren for it: a candidate holding an
/// MFENCE or a spurious INVLPG whose removal keeps every violation of the
/// axiom is skipped, see synth::barren_axioms) and the executions those
/// searches visited until the axiom settled.
///
/// Exit codes: 0 = every suite complete; 1 = I/O error; 2 = usage error;
/// 3 = at least one suite incomplete (budget hit, cancelled, or shards
/// quarantined) — the partial output is still valid.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "elt/derive.h"
#include "elt/litmus.h"
#include "elt/printer.h"
#include "elt/serialize.h"
#include "mtm/model.h"
#include "mtm/spec_printer.h"
#include "obs/alloc.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "spec/registry.h"
#include "synth/checkpoint.h"
#include "synth/engine.h"
#include "tool_args.h"
#include "util/cancel.h"
#include "util/fault.h"

namespace {

using namespace transform;

struct Args {
    std::string model = "x86t_elt";
    std::string axiom;
    bool all = false;
    int bound = 5;
    int threads = 2;
    int vas = 2;
    double budget = 0;
    std::string backend = "enum";
    int jobs = 1;
    int shard_depth = 0;  // 0 = the static rule (synth::pass_shard_depth)
    bool stats = false;
    bool progress = false;
    bool alloc_stats = false;
    std::string trace_path;
    std::string metrics_json;
    std::string out_dir;
    std::string checkpoint_path;
    bool resume = false;
    int shard_retries = 2;
    long long sat_conflict_budget = 0;
    std::string fault_spec;
    bool quiet = false;
    bool list_axioms = false;
    bool list_models = false;
    bool emit_spec = false;
    bool emit_spec_mtm = false;
};

using tools::parse_int;
using tools::parse_seconds;
using tools::usage_error;

void
print_stats(const std::string& scope, const sched::SchedulerStats& s)
{
    std::fprintf(
        stderr,
        "[%s] scheduler: %d workers, %llu jobs, %llu steals, "
        "%llu dedup hits\n",
        scope.c_str(), s.workers,
        static_cast<unsigned long long>(s.jobs_run),
        static_cast<unsigned long long>(s.steals),
        static_cast<unsigned long long>(s.dedup_hits));
    if (s.shard_retries + s.shards_quarantined + s.checkpoint_shards_saved +
            s.checkpoint_shards_replayed + s.job_faults >
        0) {
        std::fprintf(
            stderr,
            "[%s] robustness: %llu shard retries, %llu quarantined, "
            "%llu ckpt saved, %llu ckpt replayed, %llu pool faults\n",
            scope.c_str(),
            static_cast<unsigned long long>(s.shard_retries),
            static_cast<unsigned long long>(s.shards_quarantined),
            static_cast<unsigned long long>(s.checkpoint_shards_saved),
            static_cast<unsigned long long>(s.checkpoint_shards_replayed),
            static_cast<unsigned long long>(s.job_faults));
    }
}

/// Prints a pass's solver counters. The solvers' clock runs only when the
/// run collects metrics (sat::Solver::set_timing), so the solve seconds
/// appear only when \p timed says it ran.
void
print_solver_stats(const std::string& scope, const sat::SolverStats& s,
                   bool timed)
{
    char seconds[32] = "";
    if (timed) {
        std::snprintf(seconds, sizeof seconds, " (%.3fs)",
                      static_cast<double>(s.solve_nanos) * 1e-9);
    }
    std::fprintf(
        stderr,
        "[%s] solver: %llu solves%s, %llu decisions, "
        "%llu propagations, %llu conflicts, %llu restarts, "
        "%llu learned (%llu deleted), %llu assumed, "
        "%llu retired guards (%llu clauses retained)\n",
        scope.c_str(),
        static_cast<unsigned long long>(s.solve_calls), seconds,
        static_cast<unsigned long long>(s.decisions),
        static_cast<unsigned long long>(s.propagations),
        static_cast<unsigned long long>(s.conflicts),
        static_cast<unsigned long long>(s.restarts),
        static_cast<unsigned long long>(s.learned_clauses),
        static_cast<unsigned long long>(s.deleted_clauses),
        static_cast<unsigned long long>(s.assumed_literals),
        static_cast<unsigned long long>(s.retired_activations),
        static_cast<unsigned long long>(s.retained_clauses));
}

void
print_alloc_stats(const std::string& scope, const obs::AllocTotals& a)
{
    std::fprintf(stderr, "[%s] allocs: %llu calls, %llu bytes\n",
                 scope.c_str(),
                 static_cast<unsigned long long>(a.total_count()),
                 static_cast<unsigned long long>(a.total_bytes()));
    for (int p = 0; p < obs::kPhaseCount; ++p) {
        const obs::AllocSlot& slot =
            a.phases[static_cast<std::size_t>(p)];
        if (slot.count == 0) {
            continue;
        }
        std::fprintf(stderr, "[%s]   phase %-14s %10llu allocs %12llu B\n",
                     scope.c_str(),
                     obs::phase_name(static_cast<obs::Phase>(p)),
                     static_cast<unsigned long long>(slot.count),
                     static_cast<unsigned long long>(slot.bytes));
    }
    for (int s = 0; s < obs::kAllocSiteCount; ++s) {
        const obs::AllocSlot& slot = a.sites[static_cast<std::size_t>(s)];
        if (slot.count == 0) {
            continue;
        }
        std::fprintf(stderr, "[%s]   site  %-14s %10llu allocs %12llu B\n",
                     scope.c_str(),
                     obs::alloc_site_name(static_cast<obs::AllocSite>(s)),
                     static_cast<unsigned long long>(slot.count),
                     static_cast<unsigned long long>(slot.bytes));
    }
}

/// The engine options for this invocation.
synth::SynthesisOptions
synthesis_options(const mtm::Model& model, const Args& args,
                  util::CancelToken cancel,
                  const util::FaultPlan* fault_plan,
                  synth::CheckpointJournal* journal,
                  obs::TraceCollector* trace, bool collect_metrics)
{
    synth::SynthesisOptions options;
    options.min_bound = model.vm_aware() ? 4 : 2;
    options.bound = args.bound;
    options.max_threads = args.threads;
    options.max_vas = args.vas;
    options.time_budget_seconds = args.budget;
    options.backend = args.backend == "sat" ? synth::Backend::kSat
                                            : synth::Backend::kEnumerative;
    options.jobs = args.jobs;
    options.shard_depth = args.shard_depth;
    options.collect_metrics = collect_metrics;
    // Allocation attribution rides with --alloc-stats and (so the report
    // carries real alloc data) with --metrics-json.
    options.track_allocs = args.alloc_stats || collect_metrics;
    options.trace = trace;
    options.cancel = cancel;
    options.shard_retry_limit = args.shard_retries;
    options.sat_conflict_budget = args.sat_conflict_budget;
    options.fault_plan = fault_plan;
    options.checkpoint = journal;
    return options;
}

/// The --progress heartbeat: one stderr line per snapshot. The engine
/// calls it on its sampling thread, which lives inside the synthesis call,
/// so the state it captures only has to outlive that call.
std::function<void(const synth::SynthesisProgress&)>
progress_printer(std::string scope)
{
    struct Last {
        std::uint64_t candidates = 0;
        double seconds = 0.0;
    };
    return [scope = std::move(scope), last = std::make_shared<Last>()](
               const synth::SynthesisProgress& p) {
        const double dt = p.seconds - last->seconds;
        const double rate =
            dt > 0 ? static_cast<double>(p.candidates - last->candidates) / dt
                   : 0.0;
        last->candidates = p.candidates;
        last->seconds = p.seconds;
        // No ETA: the static partition runs small bounds and empty shards
        // first, so the shard completion ratio says nothing about the time
        // left.
        std::string ckpt;
        if (p.checkpoint_shards_saved + p.checkpoint_shards_replayed > 0) {
            ckpt = ", ckpt " + std::to_string(p.checkpoint_shards_saved) +
                   " saved/" + std::to_string(p.checkpoint_shards_replayed) +
                   " replayed";
        }
        std::fprintf(stderr,
                     "[progress] %s: shards %llu/%llu, %llu candidates "
                     "(%.0f/s), %llu found%s, %.1fs elapsed\n",
                     scope.c_str(),
                     static_cast<unsigned long long>(p.shards_done),
                     static_cast<unsigned long long>(p.shards_submitted),
                     static_cast<unsigned long long>(p.candidates), rate,
                     static_cast<unsigned long long>(p.tests_found),
                     ckpt.c_str(), p.seconds);
    };
}

/// Prints one suite: its summary (and, for the suite that carries its
/// pass's shared counters, the --stats / --alloc-stats sections) to stderr
/// and its tests to stdout / --out.
int
report_suite(const mtm::Model& model, const synth::SuiteResult& suite,
             const Args& args)
{
    const std::string& axiom = suite.axiom;
    std::string status;
    if (suite.cancelled) {
        status += ", cancelled";
    }
    if (!suite.failures.empty()) {
        status += ", " + std::to_string(suite.failures.size()) +
                  " shards quarantined";
    }
    if (!suite.complete && status.empty()) {
        status = ", budget hit";
    }
    std::fprintf(stderr,
                 "[%s / %s] %zu unique minimal ELTs "
                 "(%llu programs, %llu executions, %.2fs%s)\n",
                 model.name().c_str(), axiom.c_str(), suite.tests.size(),
                 static_cast<unsigned long long>(suite.programs_considered),
                 static_cast<unsigned long long>(suite.executions_considered),
                 suite.seconds, status.c_str());
    for (const synth::ShardFailure& failure : suite.failures) {
        std::fprintf(stderr,
                     "[%s / %s] quarantined after %d attempts: %s (%s)\n",
                     model.name().c_str(), axiom.c_str(), failure.attempts,
                     failure.shard.c_str(), failure.error.c_str());
    }
    // A pass's scheduler, solver and allocation counters sit on its first
    // suite and cover all of the pass's targets: scope them by the pass.
    if (suite.pass == axiom || suite.pass.rfind(axiom + "+", 0) == 0) {
        const std::string scope = model.name() + " / " + suite.pass;
        if (args.stats) {
            print_stats(scope, suite.scheduler);
            if (suite.solver.solve_calls > 0) {
                print_solver_stats(scope, suite.solver,
                                   !args.metrics_json.empty());
            }
        }
        if (args.alloc_stats) {
            print_alloc_stats(scope, suite.allocs);
        }
    }

    for (std::size_t i = 0; i < suite.tests.size(); ++i) {
        const auto& test = suite.tests[i];
        const std::string name =
            axiom + "_" + std::to_string(i + 1);
        if (!args.quiet) {
            std::printf("\n--- %s (%d instructions; violates:", name.c_str(),
                        test.size);
            for (const auto& v : test.violated) {
                std::printf(" %s", v.c_str());
            }
            std::printf(") ---\n%s",
                        elt::program_to_litmus(test.witness.program, name)
                            .c_str());
        }
        if (!args.out_dir.empty()) {
            namespace fs = std::filesystem;
            const fs::path dir = fs::path(args.out_dir) / axiom;
            std::error_code ec;
            fs::create_directories(dir, ec);
            if (ec) {
                std::fprintf(stderr, "cannot create %s: %s\n",
                             dir.string().c_str(), ec.message().c_str());
                return 1;
            }
            std::ofstream litmus(dir / (name + ".litmus"));
            litmus << elt::program_to_litmus(test.witness.program, name);
            std::ofstream xml(dir / (name + ".xml"));
            xml << elt::execution_to_xml(test.witness, name);
        }
    }
    if (!args.quiet) {
        std::printf("\n");
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : "";
        };
        long long parsed = 0;
        if (flag == "--model") {
            args.model = value();
        } else if (flag == "--axiom") {
            args.axiom = value();
        } else if (flag == "--all") {
            args.all = true;
        } else if (flag == "--bound") {
            const std::string text = value();
            if (!parse_int(text, 1, 64, &parsed)) {
                return usage_error(flag, "a bound in 1..64", text);
            }
            args.bound = static_cast<int>(parsed);
        } else if (flag == "--threads") {
            const std::string text = value();
            if (!parse_int(text, 1, 8, &parsed)) {
                return usage_error(flag, "a core count in 1..8", text);
            }
            args.threads = static_cast<int>(parsed);
        } else if (flag == "--vas") {
            const std::string text = value();
            if (!parse_int(text, 1, 8, &parsed)) {
                return usage_error(flag, "a VA count in 1..8", text);
            }
            args.vas = static_cast<int>(parsed);
        } else if (flag == "--budget") {
            const std::string text = value();
            if (!parse_seconds(text, &args.budget)) {
                return usage_error(flag, "a non-negative seconds value",
                                   text);
            }
        } else if (flag == "--backend") {
            args.backend = value();
        } else if (flag == "--jobs") {
            const std::string text = value();
            if (!tools::parse_jobs(text, &args.jobs)) {
                return usage_error(flag, tools::kJobsExpectation, text);
            }
        } else if (flag == "--shard-depth") {
            const std::string depth = value();
            if (depth == "auto") {
                args.shard_depth = 0;
            } else if (parse_int(depth, 1, 32, &parsed)) {
                args.shard_depth = static_cast<int>(parsed);
            } else {
                return usage_error(flag, "'auto' or a fixed depth in 1..32",
                                   depth);
            }
        } else if (flag == "--checkpoint") {
            args.checkpoint_path = value();
            if (args.checkpoint_path.empty()) {
                return usage_error(flag, "a journal file path", "");
            }
        } else if (flag == "--resume") {
            args.resume = true;
        } else if (flag == "--shard-retries") {
            const std::string text = value();
            if (!parse_int(text, 0, 16, &parsed)) {
                return usage_error(flag, "a retry count in 0..16", text);
            }
            args.shard_retries = static_cast<int>(parsed);
        } else if (flag == "--sat-conflict-budget") {
            const std::string text = value();
            if (!parse_int(text, 0, std::int64_t{1} << 40, &parsed)) {
                return usage_error(
                    flag, "a conflict count in 0..2^40 (0 = unlimited)",
                    text);
            }
            args.sat_conflict_budget = parsed;
        } else if (flag == "--fault-plan") {
            args.fault_spec = value();
            if (args.fault_spec.empty()) {
                return usage_error(flag, "a fault-plan spec", "");
            }
        } else if (flag == "--stats") {
            args.stats = true;
        } else if (flag == "--progress") {
            args.progress = true;
        } else if (flag == "--alloc-stats") {
            args.alloc_stats = true;
        } else if (flag == "--trace") {
            args.trace_path = value();
            if (args.trace_path.empty()) {
                return usage_error(flag, "an output file path", "");
            }
        } else if (flag == "--metrics-json") {
            args.metrics_json = value();
            if (args.metrics_json.empty()) {
                return usage_error(flag, "an output file path", "");
            }
        } else if (flag == "--out") {
            args.out_dir = value();
        } else if (flag == "--quiet") {
            args.quiet = true;
        } else if (flag == "--list-axioms") {
            args.list_axioms = true;
        } else if (flag == "--list-models") {
            args.list_models = true;
        } else if (flag == "--spec") {
            args.emit_spec = true;
        } else if (flag == "--spec-mtm") {
            args.emit_spec_mtm = true;
        } else {
            return tools::unknown_flag(flag);
        }
    }

    if (args.list_models) {
        std::printf("%s", spec::list_models_text().c_str());
        return 0;
    }
    std::string model_error;
    const std::optional<spec::ResolvedModel> resolved =
        spec::resolve_model(args.model, &model_error);
    if (!resolved.has_value()) {
        std::fprintf(stderr, "%s\n", model_error.c_str());
        return 2;
    }
    const mtm::Model& model = resolved->model;
    if (args.emit_spec) {
        std::printf("%s", mtm::model_to_alloy(model).c_str());
        return 0;
    }
    if (args.emit_spec_mtm) {
        std::printf("%s", mtm::model_to_mtm(model).c_str());
        return 0;
    }
    if (args.list_axioms) {
        std::printf("%s axioms:\n", model.name().c_str());
        for (const auto& axiom : model.axioms()) {
            std::printf("  %-16s %s\n", axiom.name.c_str(),
                        axiom.description.c_str());
        }
        return 0;
    }

    if (!args.axiom.empty() && model.axiom(args.axiom) == nullptr) {
        std::fprintf(stderr, "model %s has no axiom '%s'\n",
                     model.name().c_str(), args.axiom.c_str());
        return 2;
    }
    if (args.resume && args.checkpoint_path.empty()) {
        return usage_error("--resume", "--checkpoint PATH to resume from",
                           "");
    }
    // Fault injection (tests/CI): flag wins, environment is the fallback
    // so harnesses can inject without plumbing argv.
    std::optional<util::FaultPlan> fault_plan;
    std::string fault_source = args.fault_spec;
    if (fault_source.empty()) {
        const char* env = std::getenv("TRANSFORM_FAULT_PLAN");
        fault_source = env == nullptr ? "" : env;
    }
    if (!fault_source.empty()) {
        fault_plan.emplace();
        std::string fault_error;
        if (!util::FaultPlan::parse(fault_source, &*fault_plan,
                                    &fault_error)) {
            return usage_error("--fault-plan", fault_error.c_str(),
                               fault_source);
        }
    }
    // Cooperative cancellation on SIGINT/SIGTERM: the partial suite is
    // still merged, printed, and (if journaling) resumable.
    const util::CancelToken cancel = util::install_signal_cancel();
    // Checkpoint journal: the fingerprint covers everything that shapes
    // the shard task list or the suites. --jobs is deliberately absent —
    // the suite and the task list are the same at every worker count (the
    // determinism contract; the default shard depth ignores --jobs), so a
    // resume may change it.
    std::unique_ptr<synth::CheckpointJournal> journal;
    if (!args.checkpoint_path.empty()) {
        const std::string fingerprint =
            "model=" + model.name() + " bound=" + std::to_string(args.bound) +
            " threads=" + std::to_string(args.threads) +
            " vas=" + std::to_string(args.vas) +
            " backend=" + args.backend +
            " shard-depth=" + std::to_string(args.shard_depth);
        std::string journal_error;
        journal = args.resume
                      ? synth::CheckpointJournal::resume(
                            args.checkpoint_path, fingerprint,
                            &journal_error)
                      : synth::CheckpointJournal::create(
                            args.checkpoint_path, fingerprint,
                            &journal_error);
        if (journal == nullptr) {
            std::fprintf(stderr, "--checkpoint: %s\n",
                         journal_error.c_str());
            return 1;
        }
        if (args.resume) {
            std::fprintf(stderr, "[checkpoint] resuming %zu journaled "
                         "shards from %s\n", journal->loaded(),
                         args.checkpoint_path.c_str());
        }
    }
    // Observability (docs/observability.md): one collector/report spans
    // every suite of the invocation; the collector is sized for the
    // resolved worker count of the synthesis call's pool.
    std::optional<obs::TraceCollector> trace;
    if (!args.trace_path.empty()) {
        trace.emplace(sched::resolve_jobs(args.jobs));
    }
    std::optional<obs::RunReport> report;
    if (!args.metrics_json.empty()) {
        report.emplace();
        report->tool = "elt_synth";
        report->model = model.name();
        report->backend = args.backend;
        report->bound = args.bound;
        report->jobs = sched::resolve_jobs(args.jobs);
    }

    // One synthesis call serves the whole invocation: with --all it
    // searches every axiom in one pass.
    synth::SynthesisOptions options = synthesis_options(
        model, args, cancel, fault_plan ? &*fault_plan : nullptr,
        journal.get(), trace ? &*trace : nullptr, report.has_value());
    if (args.progress) {
        options.progress = progress_printer(
            model.name() + " / " +
            (args.axiom.empty() ? std::string("all axioms") : args.axiom));
    }
    const std::vector<synth::SuiteResult> suites =
        args.axiom.empty()
            ? synth::synthesize_all_parallel(model, options)
            : std::vector<synth::SuiteResult>{
                  synth::synthesize_suite(model, args.axiom, options)};

    // The all-axioms aggregate is the metrics report's totals: suites sum,
    // and each pass's shared counters sit on one suite, so they count once.
    obs::SuiteReport aggregate;
    bool any_incomplete = false;
    for (const synth::SuiteResult& suite : suites) {
        const int rc = report_suite(model, suite, args);
        if (rc != 0) {
            return rc;
        }
        any_incomplete = any_incomplete || !suite.complete;
        const obs::SuiteReport counters = obs::suite_report(suite);
        aggregate.merge(counters);
        if (report) {
            report->suites.push_back(counters);
        }
    }
    if (suites.size() > 1) {
        const std::string scope = model.name() + " / all axioms";
        if (args.stats) {
            // Counters sum across suites (each pass's sit on its first
            // suite); `workers` takes the maximum — see
            // SchedulerStats::merge.
            print_stats(scope, aggregate.scheduler);
            if (aggregate.solver.solve_calls > 0) {
                print_solver_stats(scope, aggregate.solver,
                                   !args.metrics_json.empty());
            }
        }
        if (args.alloc_stats) {
            print_alloc_stats(scope, aggregate.allocs);
        }
    }
    if (args.stats) {
        const std::uint64_t rss = obs::peak_rss_bytes();
        std::fprintf(stderr, "[%s] peak RSS: %.1f MB (%llu bytes)\n",
                     model.name().c_str(),
                     static_cast<double>(rss) / (1024.0 * 1024.0),
                     static_cast<unsigned long long>(rss));
    }
    if (trace) {
        std::string error;
        if (!trace->write(args.trace_path, &error)) {
            std::fprintf(stderr, "--trace: %s\n", error.c_str());
            return 1;
        }
        std::fprintf(stderr, "[trace] %zu events -> %s\n",
                     trace->events_resident(), args.trace_path.c_str());
    }
    if (report) {
        std::string error;
        if (!obs::write_report(args.metrics_json, *report, &error)) {
            std::fprintf(stderr, "--metrics-json: %s\n", error.c_str());
            return 1;
        }
        std::fprintf(stderr, "[metrics] %zu suites -> %s\n",
                     report->suites.size(), args.metrics_json.c_str());
    }
    // Exit 3: the output is valid but at least one suite is partial
    // (budget hit, cancelled, or quarantined shards) — scripts must not
    // mistake it for a complete run.
    return any_incomplete ? 3 : 0;
}
