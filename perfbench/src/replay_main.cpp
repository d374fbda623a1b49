/// \file
/// perfbench_replay: the sequential replay of one workload's search
/// through the layers' entry points (replay.h), in its own process.
///
///   perfbench_replay WORKLOAD [--bound N] [--model NAME] [--spans FILE]
///
/// With --spans every call is traced and a bounded span sample is written
/// to FILE; without it the same replay runs untraced. Prints one JSON
/// object. It is a separate program from perfbench_runner because it
/// calls layer internals that later refactors may remove: the end-to-end
/// runs then still build.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "replay.h"

int
main(int argc, char** argv)
{
    using perfbench::JsonObject;
    const std::optional<perfbench::Args> parsed =
        perfbench::parse_args(std::vector<std::string>(argv + 1, argv + argc));
    const bool traced = parsed && parsed->rest.size() == 2 &&
                        parsed->rest[0] == "--spans";
    if (!parsed || !(parsed->rest.empty() || traced)) {
        std::fprintf(stderr,
                     "usage: perfbench_replay WORKLOAD [--bound N] "
                     "[--model NAME] [--spans FILE]\n");
        return 2;
    }
    const std::optional<perfbench::Setup> setup = perfbench::set_up(*parsed);
    if (!setup) {
        return 1;
    }
    std::optional<perfbench::SpanTracer> tracer;
    if (traced) {
        tracer.emplace(/*sample_every=*/1000);
    }
    const perfbench::ReplayResult result =
        perfbench::replay(*parsed->workload, setup->resolved.model,
                          setup->options, tracer ? &*tracer : nullptr);
    JsonObject counts;
    counts.num("programs", result.programs)
        .num("index_hits", result.index_hits)
        .num("keys", result.keys)
        .num("executions", result.executions)
        .num("verdicts", result.verdicts)
        .num("violating", result.violating)
        .num("minimal", result.minimal)
        .num("probes_accepted", result.probes_accepted)
        .num("bases_built", result.bases_built);
    JsonObject solver;
    solver
        .num("solve_s", static_cast<double>(result.solver.solve_nanos) * 1e-9)
        .num("solve_calls", result.solver.solve_calls)
        .num("conflicts", result.solver.conflicts)
        .num("propagations", result.solver.propagations);
    JsonObject o;
    o.str("mode", "replay")
        .str("workload", parsed->workload->name)
        .flag("traced", traced)
        .num("resolve_s", setup->resolve_seconds)
        .num("wall_s", result.wall_seconds)
        .raw("suites", perfbench::suites_json(result.suites))
        .raw("counts", counts.done())
        .raw("solver", solver.done());
    if (tracer) {
        JsonObject ops;
        for (int i = 0; i < perfbench::kOpCount; ++i) {
            const auto op = static_cast<perfbench::Op>(i);
            const perfbench::OpTotals& t =
                tracer->totals()[static_cast<std::size_t>(i)];
            JsonObject slot;
            slot.str("layer", perfbench::op_layer(op))
                .num("calls", t.calls)
                .num("seconds", static_cast<double>(t.nanos) * 1e-9)
                .num("self_s", static_cast<double>(t.self_nanos) * 1e-9)
                .num("self_allocs", t.self_allocs);
            ops.raw(perfbench::op_name(op), slot.done());
        }
        o.raw("ops", ops.done());
        if (!tracer->write_sample(parsed->rest[1])) {
            std::fprintf(stderr, "perfbench_replay: cannot write %s\n",
                         parsed->rest[1].c_str());
            return 1;
        }
    }
    std::printf("%s\n", o.done().c_str());
    return 0;
}
