/// \file
/// The benchmark's fixed workloads: which model, axioms, backend, bound
/// range and worker count each one synthesizes. The engine run and the
/// sequential replay both read their configuration from here, so the two
/// search exactly the same candidate space.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "mtm/model.h"
#include "synth/engine.h"

namespace perfbench {

struct Workload {
    const char* name;
    const char* model;  ///< a spec::resolve_model name
    const char* axiom;  ///< one target axiom; empty = every axiom of the model
    transform::synth::Backend backend;
    int bound;
    int jobs;
};

inline constexpr Workload kWorkloads[] = {
    {"vm-enum-all-b8-j2", "x86t_elt", "",
     transform::synth::Backend::kEnumerative, 8, 2},
    {"vm-sat-causality-b8-j1", "x86t_elt", "causality",
     transform::synth::Backend::kSat, 8, 1},
    {"mcm-spec-all-b6-j1", "x86tso.mtm", "",
     transform::synth::Backend::kEnumerative, 6, 1},
};

/// The workload named \p name, or nullptr.
inline const Workload*
find_workload(std::string_view name)
{
    for (const Workload& workload : kWorkloads) {
        if (name == workload.name) {
            return &workload;
        }
    }
    return nullptr;
}

/// Synthesis options of \p workload: library defaults plus the workload's
/// backend, bounds and workers. The smallest bound follows elt_synth (4 for
/// VM models, 2 for plain MCMs); \p bound > 0 overrides the largest.
inline transform::synth::SynthesisOptions
workload_options(const Workload& workload, const transform::mtm::Model& model,
                 int bound)
{
    transform::synth::SynthesisOptions options;
    options.min_bound = model.vm_aware() ? 4 : 2;
    options.bound = bound > 0 ? bound : workload.bound;
    options.backend = workload.backend;
    options.jobs = workload.jobs;
    return options;
}

/// The axioms \p workload targets, in the model's axiom order.
inline std::vector<std::string>
workload_axioms(const Workload& workload, const transform::mtm::Model& model)
{
    if (workload.axiom[0] != '\0') {
        return {workload.axiom};
    }
    std::vector<std::string> names;
    for (const transform::mtm::Axiom& axiom : model.axioms()) {
        names.push_back(axiom.name);
    }
    return names;
}

}  // namespace perfbench
