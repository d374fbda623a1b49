/// \file
/// elt_check — judge ELT files against a transistency model.
///
/// Reads tests (litmus text for a program, or XML for a full candidate
/// execution), derives their relations and reports the verdict. For litmus
/// input (no witnesses), enumerates the program's execution space and
/// reports how many outcomes are permitted/forbidden and which axioms can
/// be violated — i.e. whether the test can expose forbidden behaviour.
///
///   elt_check test.litmus
///   elt_check --model sc_t_elt execution.xml
///   elt_check --model examples/models/pso.mtm test.litmus
///   elt_check --jobs 0 suites/invlpg/*.litmus
///   elt_check --backend sat test.litmus
///
/// --model accepts the same names as elt_synth: a registry `.mtm` model
/// (x86t_elt by default) or a path to a `.mtm` specification file
/// (malformed files exit 2 with a file:line:col diagnostic).
///
/// --backend enum|sat picks how a litmus program's execution space is
/// swept: the explicit enumerator (default) or the AllSAT loop of the
/// assumption-based solver session the synthesis engine probes with. The
/// verdicts and counts are identical under both — the flag exists to
/// cross-check exactly that from the command line.
///
/// Several files are checked concurrently on the runtime's thread pool
/// (src/sched/; --jobs N workers, 0 = one per hardware thread); reports
/// are buffered and printed in input order, so the output does not depend
/// on --jobs.
///
/// --trace FILE records each file's check as a span on its worker's lane
/// and writes a Chrome trace-event JSON file (Perfetto /
/// chrome://tracing; see docs/observability.md).
///
/// --metrics-json FILE writes the same versioned metrics-JSON document as
/// elt_synth (obs::report_to_json, docs/observability.md): one suite row
/// per input file (axiom = the file path) carrying the execution counts,
/// wall seconds, and — on the SAT backend — the session's solver counters, plus the merged totals object. Failure parity with
/// elt_synth: a file whose check was cut short (conflict budget) or whose
/// input was unreadable/malformed lands in that suite row's "failures"
/// array ({shard, error, attempts}), exactly like a quarantined synthesis
/// shard, so downstream report consumers handle both tools uniformly.
///
/// Robustness (docs/robustness.md): --sat-conflict-budget N caps each SAT
/// solve at N conflicts (0 = unlimited); a sweep that exhausts it reports
/// the file as incomplete. SIGINT/SIGTERM cancel cooperatively — queued
/// files are skipped, the in-flight sweep stops between executions, and
/// finished reports still print.
///
/// Exit codes: 0 = every file checked and complete; 1 = I/O error writing
/// --trace/--metrics-json; 2 = usage error or unreadable/malformed input;
/// 3 = a check was cut short (cancelled or conflict budget exhausted).
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "elt/derive.h"
#include "elt/litmus.h"
#include "elt/printer.h"
#include "elt/serialize.h"
#include "mtm/incremental.h"
#include "mtm/model.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "spec/registry.h"
#include "synth/exec_enum.h"
#include "synth/minimality.h"
#include "tool_args.h"
#include "util/cancel.h"

namespace {

using namespace transform;

/// How check_program sweeps a litmus program's execution space.
struct CheckOptions {
    bool sat = false;              ///< --backend sat
    bool metrics = false;          ///< --metrics-json (enables solver timing)
    long long sat_conflict_budget = 0;  ///< per-solve cap (0 = unlimited)
    util::CancelToken cancel;      ///< SIGINT/SIGTERM (inert by default)
};

/// printf-style append to a report buffer (reports are built off-thread and
/// printed in input order once every file is checked). For short formatted
/// lines only — unbounded strings (program/execution dumps) must be
/// appended with `*out +=` to avoid the buffer limit.
__attribute__((format(printf, 2, 3))) void
appendf(std::string* out, const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buffer[4096];
    std::vsnprintf(buffer, sizeof buffer, fmt, args);
    va_end(args);
    *out += buffer;
}

int
check_program(const mtm::Model& model, const elt::Program& program,
              const std::string& name, const CheckOptions& options,
              std::string* out, obs::SuiteReport* suite)
{
    appendf(out, "test %s:\n", name.c_str());
    *out += elt::program_to_string(program);
    *out += '\n';
    int permitted = 0;
    int forbidden = 0;
    bool any_minimal = false;
    bool cancelled = false;
    std::map<std::string, int> by_axiom;
    auto consider = [&](const elt::Execution& e) {
        if (options.cancel.requested()) {
            cancelled = true;
            return false;
        }
        const auto violated = model.violated_axioms(e);
        if (violated.empty()) {
            ++permitted;
        } else {
            ++forbidden;
            for (const auto& a : violated) {
                ++by_axiom[a];
            }
            const auto verdict = synth::judge(model, e);
            any_minimal = any_minimal || verdict.minimal;
        }
        return true;
    };
    try {
        if (!options.sat) {
            synth::for_each_execution(program, model.vm_aware(), consider);
        } else {
            // The live-solver session sizes its VA/PA selector domains up
            // front; a checked program's addresses are fixed, so its own
            // maxima are the exact domains.
            int max_vas = 1;
            int max_pas = 1;
            for (int e = 0; e < program.num_events(); ++e) {
                max_vas = std::max(max_vas, program.event(e).va + 1);
                max_pas = std::max(max_pas, program.event(e).map_pa + 1);
            }
            max_pas = std::max(max_pas, max_vas);
            mtm::IncrementalEncoding session;
            session.configure(&model, "", max_vas, max_pas);
            session.set_timing(options.metrics);
            session.set_conflict_budget(options.sat_conflict_budget);
            session.enumerate(program, consider);
            suite->solver.merge(session.lifetime_stats());
        }
    } catch (const sat::BudgetExhausted& e) {
        appendf(out, "check cut short: %s\n", e.what());
        suite->complete = false;
        // Failure parity with elt_synth's quarantine records: one check
        // attempt, cut short by the budget.
        suite->failures.push_back({name, e.what(), 1});
        return 3;
    }
    if (cancelled) {
        appendf(out, "check cancelled before the sweep finished\n");
        suite->complete = false;
        suite->cancelled = true;
        return 3;
    }
    appendf(out, "under %s: %d permitted, %d forbidden execution(s)\n",
            model.name().c_str(), permitted, forbidden);
    for (const auto& [axiom, count] : by_axiom) {
        appendf(out, "  %-16s violable (%d execution(s))\n", axiom.c_str(),
                count);
    }
    if (forbidden > 0) {
        appendf(out, "spanning-set status: %s\n",
                any_minimal ? "minimal forbidden outcome exists "
                              "(TransForm would synthesize this test)"
                            : "forbidden but reducible (not minimal)");
    }
    suite->programs_considered += 1;
    suite->executions_considered +=
        static_cast<std::uint64_t>(permitted + forbidden);
    if (forbidden > 0 && any_minimal) {
        suite->tests += 1;  // a spanning-set-worthy test
    }
    return 0;
}

/// Checks one file end-to-end. Normal output goes to \p out, error lines to
/// \p err; returns the process exit code contribution.
int
check_file(const mtm::Model& model, const std::string& path,
           const CheckOptions& options, std::string* out, std::string* err,
           obs::SuiteReport* suite)
{
    std::ifstream in(path);
    if (!in) {
        appendf(err, "cannot open %s\n", path.c_str());
        suite->complete = false;
        suite->failures.push_back({path, "cannot open", 1});
        return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    if (text.find("<elt") != std::string::npos) {
        const auto execution = elt::execution_from_xml(text);
        if (!execution) {
            appendf(err, "malformed XML in %s\n", path.c_str());
            suite->complete = false;
            suite->failures.push_back({path, "malformed XML", 1});
            return 2;
        }
        const auto derived =
            elt::derive(*execution, model.derive_options());
        *out += elt::execution_to_string(*execution, derived);
        const auto violated = model.violated_axioms(*execution);
        if (violated.empty()) {
            appendf(out, "verdict under %s: PERMITTED\n",
                    model.name().c_str());
        } else {
            appendf(out, "verdict under %s: FORBIDDEN (",
                    model.name().c_str());
            for (const auto& axiom : violated) {
                appendf(out, " %s", axiom.c_str());
            }
            appendf(out, " )\n");
        }
        return 0;
    }

    std::string error;
    const auto parsed = elt::parse_litmus(text, &error);
    if (!parsed) {
        appendf(err, "%s: %s\n", path.c_str(), error.c_str());
        suite->complete = false;
        suite->failures.push_back({path, error, 1});
        return 2;
    }
    const auto problems = parsed->program.validate(model.vm_aware());
    if (!problems.empty()) {
        appendf(err, "%s: invalid program: %s\n", path.c_str(),
                problems[0].c_str());
        suite->complete = false;
        suite->failures.push_back(
            {path, "invalid program: " + problems[0], 1});
        return 2;
    }
    return check_program(model, parsed->program, parsed->name, options,
                         out, suite);
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string model_name = "x86t_elt";
    int jobs = 1;
    std::string trace_path;
    std::string metrics_path;
    CheckOptions options;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (flag == "--model") {
            model_name = value();
            if (model_name.empty()) {
                return tools::usage_error(flag, "a model name or .mtm path",
                                          "");
            }
        } else if (flag == "--backend") {
            const std::string text = value();
            if (text == "enum") {
                options.sat = false;
            } else if (text == "sat") {
                options.sat = true;
            } else {
                return tools::usage_error(flag, "'enum' or 'sat'", text);
            }
        } else if (flag == "--sat-conflict-budget") {
            const std::string text = value();
            long long parsed = 0;
            if (!tools::parse_int(text, 0, 1LL << 40, &parsed)) {
                return tools::usage_error(
                    flag, "a conflict count in 0..2^40 (0 = unlimited)",
                    text);
            }
            options.sat_conflict_budget = parsed;
        } else if (flag == "--jobs") {
            const std::string text = value();
            if (!tools::parse_jobs(text, &jobs)) {
                return tools::usage_error(flag, tools::kJobsExpectation,
                                          text);
            }
        } else if (flag == "--trace") {
            trace_path = value();
            if (trace_path.empty()) {
                return tools::usage_error(flag, "an output file path", "");
            }
        } else if (flag == "--metrics-json") {
            metrics_path = value();
            if (metrics_path.empty()) {
                return tools::usage_error(flag, "an output file path", "");
            }
        } else if (flag.starts_with("--")) {
            return tools::unknown_flag(flag);
        } else {
            paths.push_back(flag);
        }
    }
    if (paths.empty()) {
        std::fprintf(stderr,
                     "usage: elt_check [--model NAME] [--backend enum|sat] "
                     "[--jobs N] [--sat-conflict-budget N] "
                     "[--trace FILE] [--metrics-json FILE] <file>...\n");
        return 2;
    }
    std::string model_error;
    const auto resolved = spec::resolve_model(model_name, &model_error);
    if (!resolved.has_value()) {
        std::fprintf(stderr, "%s\n", model_error.c_str());
        return 2;
    }
    // One shared model: its lowered axioms are immutable, so concurrent
    // checks through a const reference are safe.
    const mtm::Model& model = resolved->model;

    options.metrics = !metrics_path.empty();
    // Cooperative cancellation: queued file jobs exit immediately, the
    // in-flight sweep stops between executions, finished reports print.
    options.cancel = util::install_signal_cancel();

    struct Report {
        int rc = 0;
        std::string out;
        std::string err;
        obs::SuiteReport suite;
    };
    std::vector<Report> reports(paths.size());
    sched::ThreadPool pool(jobs);
    std::optional<obs::TraceCollector> trace;
    if (!trace_path.empty()) {
        trace.emplace(pool.workers());
        pool.set_trace(&*trace);
    }
    std::vector<sched::ThreadPool::Job> batch;
    batch.reserve(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
        obs::TraceCollector* tc = trace ? &*trace : nullptr;
        batch.push_back([&model, &paths, &reports, &options, tc,
                         i](int worker) {
            const std::uint64_t start = obs::now_nanos();
            reports[i].suite.axiom = paths[i];
            if (options.cancel.requested()) {
                appendf(&reports[i].err, "%s: skipped (cancelled)\n",
                        paths[i].c_str());
                reports[i].rc = 3;
                reports[i].suite.cancelled = true;
                reports[i].suite.complete = false;
                return;
            }
            reports[i].rc = check_file(model, paths[i], options,
                                       &reports[i].out, &reports[i].err,
                                       &reports[i].suite);
            const std::uint64_t stop = obs::now_nanos();
            reports[i].suite.seconds =
                static_cast<double>(stop - start) * 1e-9;
            reports[i].suite.complete = reports[i].rc == 0;
            if (tc != nullptr) {
                tc->record_complete(worker, "check " + paths[i], start,
                                    stop);
            }
        });
    }
    pool.submit(std::move(batch));
    pool.wait();
    if (trace) {
        pool.set_trace(nullptr);
        std::string error;
        if (!trace->write(trace_path, &error)) {
            std::fprintf(stderr, "--trace: %s\n", error.c_str());
            return 1;
        }
    }

    if (!metrics_path.empty()) {
        obs::RunReport run;
        run.tool = "elt_check";
        run.model = model_name;
        run.backend = options.sat ? "sat" : "enum";
        run.jobs = pool.workers();
        for (const Report& report : reports) {
            run.suites.push_back(report.suite);
        }
        std::string error;
        if (!obs::write_report(metrics_path, run, &error)) {
            std::fprintf(stderr, "--metrics-json: %s\n", error.c_str());
            return 1;
        }
    }

    int rc = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        if (i > 0 && paths.size() > 1) {
            std::printf("\n");
        }
        std::fputs(reports[i].out.c_str(), stdout);
        std::fputs(reports[i].err.c_str(), stderr);
        rc = std::max(rc, reports[i].rc);
    }
    return rc;
}
