/// \file
/// perfbench_runner: one measured run per process, through the engine's
/// public API only. run.py starts one per measured run, so each run's CPU
/// time and peak RSS are its own.
///
///   perfbench_runner setup  WORKLOAD [--bound N] [--model NAME]
///   perfbench_runner engine WORKLOAD [--bound N] [--model NAME] [--metrics]
///   perfbench_runner list
///
/// `setup` resolves the model and builds the options, then prints the
/// monotonic time (CLOCK_MONOTONIC nanoseconds) at which the synthesis
/// call would start. `engine` does the same and then synthesizes;
/// --metrics turns on the engine's own phase and allocation report. Each
/// mode prints one JSON object.
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"

namespace {

using namespace transform;
using perfbench::JsonObject;

/// Scheduler counters summed over the suites (queue waits add: each is
/// time one suite's work waited).
std::string
scheduler_json(const std::vector<synth::SuiteResult>& suites)
{
    sched::SchedulerStats sum;
    double queue_wait = 0;
    for (const synth::SuiteResult& suite : suites) {
        sum.merge(suite.scheduler);
        queue_wait += suite.scheduler.queue_wait_seconds;
    }
    JsonObject o;
    o.num("workers", std::uint64_t(sum.workers))
        .num("jobs_run", sum.jobs_run)
        .num("steals", sum.steals)
        .num("lazy_resplits", sum.lazy_resplits)
        .num("closed_prefix_splits", sum.closed_prefix_splits)
        .num("skip_enumerations", sum.skip_enumerations)
        .num("dedup_hits", sum.dedup_hits)
        .num("queue_wait_s", queue_wait)
        .num("observed_cost_resplits", sum.observed_cost_resplits)
        .num("resplit_threshold_min", sum.resplit_threshold_min)
        .num("resplit_threshold_max", sum.resplit_threshold_max);
    return o.done();
}

/// The engine's own phase report, merged over the suites.
std::string
phases_json(const std::vector<synth::SuiteResult>& suites)
{
    obs::PhaseTotals phases;
    obs::AllocTotals allocs;
    for (const synth::SuiteResult& suite : suites) {
        phases.merge(suite.phases);
        allocs.merge(suite.allocs);
    }
    JsonObject o;
    for (int p = 0; p < obs::kPhaseCount; ++p) {
        const auto phase = static_cast<obs::Phase>(p);
        JsonObject slot;
        slot.num("seconds", phases.seconds(phase))
            .num("count", phases.count(phase))
            .num("allocs", allocs.phases[static_cast<std::size_t>(p)].count);
        o.raw(obs::phase_name(phase), slot.done());
    }
    return o.done();
}

int
run_engine(const perfbench::Workload& workload, perfbench::Setup setup,
           bool metrics)
{
    const mtm::Model& model = setup.resolved.model;
    setup.options.collect_metrics = metrics;
    setup.options.track_allocs = metrics;
    const std::uint64_t ready = obs::now_nanos();
    std::vector<synth::SuiteResult> suites;
    if (workload.axiom[0] != '\0') {
        suites.push_back(
            synth::synthesize_suite(model, workload.axiom, setup.options));
    } else {
        suites = synth::synthesize_all_parallel(model, setup.options);
    }
    const std::uint64_t done = obs::now_nanos();
    JsonObject o;
    o.str("mode", "engine")
        .str("workload", workload.name)
        .num("ready_ns", ready)
        .num("resolve_s", setup.resolve_seconds)
        .num("wall_s", static_cast<double>(done - ready) * 1e-9)
        .num("jobs", std::uint64_t(sched::resolve_jobs(setup.options.jobs)))
        .raw("suites", perfbench::suites_json(suites))
        .raw("scheduler", scheduler_json(suites));
    if (metrics) {
        o.raw("phases", phases_json(suites));
    }
    std::printf("%s\n", o.done().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_runner setup|engine WORKLOAD [--bound N] "
                 "[--model NAME] [--metrics]\n"
                 "       perfbench_runner list\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 1 && args[0] == "list") {
        for (const perfbench::Workload& workload : perfbench::kWorkloads) {
            std::printf("%s\n", workload.name);
        }
        return 0;
    }
    if (args.empty()) {
        return usage();
    }
    const std::string& mode = args[0];
    const std::optional<perfbench::Args> parsed = perfbench::parse_args(
        std::vector<std::string>(args.begin() + 1, args.end()));
    if (!parsed) {
        return usage();
    }
    const bool metrics =
        parsed->rest == std::vector<std::string>{"--metrics"};
    if (!parsed->rest.empty() && !(metrics && mode == "engine")) {
        return usage();
    }
    std::optional<perfbench::Setup> setup = perfbench::set_up(*parsed);
    if (!setup) {
        return 1;
    }
    if (mode == "setup") {
        JsonObject o;
        o.str("mode", "setup")
            .num("ready_ns", obs::now_nanos())
            .num("resolve_s", setup->resolve_seconds);
        std::printf("%s\n", o.done().c_str());
        return 0;
    }
    if (mode == "engine") {
        return run_engine(*parsed->workload, std::move(*setup), metrics);
    }
    return usage();
}
