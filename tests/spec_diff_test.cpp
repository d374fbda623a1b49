/// \file
/// Differential synthesis tests for the `.mtm` frontend: the hardwired
/// models and their DSL twins must synthesize byte-identical suites
/// (canonical keys + sizes) on BOTH backends and at every worker count —
/// the engine, the scheduler and the merge treat a compiled model
/// exactly like a hardwired one. Also the zoo smoke: every registry model
/// synthesizes end-to-end and the new (non-twin) models produce non-empty
/// suites.
#include <gtest/gtest.h>

#include <sstream>

#include "mtm/model.h"
#include "spec/registry.h"
#include "synth/engine.h"

namespace transform::spec {
namespace {

mtm::Model
zoo_model(const std::string& name)
{
    std::string error;
    const auto resolved = resolve_model(name, &error);
    EXPECT_TRUE(resolved.has_value()) << error;
    return resolved->model;
}

/// Canonical keys + sizes (and per-suite axiom + count) of every suite —
/// the backend-independent identity of a synthesized test set.
std::string
key_fingerprint(const std::vector<synth::SuiteResult>& suites)
{
    std::ostringstream out;
    for (const synth::SuiteResult& suite : suites) {
        out << suite.axiom << ":" << suite.tests.size() << "\n";
        for (const synth::SynthesizedTest& test : suite.tests) {
            out << test.size << " " << test.canonical_key << "\n";
        }
    }
    return out.str();
}

/// As key_fingerprint plus the violated-axiom lists — identical for the
/// enumerative backend, where twins visit executions in the same order.
std::string
full_fingerprint(const std::vector<synth::SuiteResult>& suites)
{
    std::ostringstream out;
    for (const synth::SuiteResult& suite : suites) {
        out << key_fingerprint({suite});
        for (const synth::SynthesizedTest& test : suite.tests) {
            for (const std::string& v : test.violated) {
                out << v << " ";
            }
            out << "\n";
        }
    }
    return out.str();
}

std::vector<synth::SuiteResult>
synthesize(const mtm::Model& model, synth::Backend backend, int jobs,
           int bound)
{
    synth::SynthesisOptions options;
    options.min_bound = model.vm_aware() ? 4 : 2;
    options.bound = bound;
    options.backend = backend;
    options.jobs = jobs;
    return synth::synthesize_all_parallel(model, options);
}

void
expect_twin_suites_identical(const mtm::Model& builtin,
                             const mtm::Model& twin, int bound)
{
    const auto reference =
        synthesize(builtin, synth::Backend::kEnumerative, 1, bound);
    const std::string reference_keys = key_fingerprint(reference);
    const std::string reference_full = full_fingerprint(reference);
    EXPECT_NE(reference_keys.find("\n"), std::string::npos);
    for (const synth::Backend backend :
         {synth::Backend::kEnumerative, synth::Backend::kSat}) {
        for (const int jobs : {1, 2, 4}) {
            const auto twin_suites = synthesize(twin, backend, jobs, bound);
            EXPECT_EQ(key_fingerprint(twin_suites), reference_keys)
                << "backend=" << static_cast<int>(backend)
                << " jobs=" << jobs;
            if (backend == synth::Backend::kEnumerative) {
                // Same enumeration order => the whole suite (violated
                // lists included) is byte-identical, not just the keys.
                EXPECT_EQ(full_fingerprint(twin_suites), reference_full)
                    << "jobs=" << jobs;
            }
        }
    }
    // And the builtin's SAT backend agrees with its own reference too
    // (guards the twin comparison against a backend-wide regression).
    EXPECT_EQ(key_fingerprint(
                  synthesize(builtin, synth::Backend::kSat, 2, bound)),
              reference_keys);
}

TEST(SpecDiff, X86TsoTwinSuitesIdentical)
{
    expect_twin_suites_identical(mtm::x86tso(), zoo_model("x86tso.mtm"),
                                 /*bound=*/4);
}

TEST(SpecDiff, X86tEltTwinSuitesIdentical)
{
    expect_twin_suites_identical(mtm::x86t_elt(), zoo_model("x86t_elt.mtm"),
                                 /*bound=*/4);
}

TEST(SpecDiff, ScTEltTwinSuitesIdentical)
{
    expect_twin_suites_identical(mtm::sc_t_elt(), zoo_model("sc_t_elt.mtm"),
                                 /*bound=*/4);
}

TEST(SpecDiff, ZooModelsSynthesizeNonEmptySuites)
{
    // The acceptance bar: every zoo model runs end-to-end through --model
    // resolution + the parallel engine, and the new (non-twin) models all
    // find tests. Per-axiom expectations pin the semantic deltas: a
    // weakened axiom must not grow its own suite at this bound.
    int non_twin_nonempty = 0;
    for (const RegistryEntry& entry : registry_entries()) {
        const mtm::Model model = zoo_model(entry.name);
        const auto suites =
            synthesize(model, synth::Backend::kEnumerative, 2, 4);
        EXPECT_EQ(suites.size(), model.axioms().size()) << entry.name;
        std::size_t total = 0;
        for (const synth::SuiteResult& suite : suites) {
            EXPECT_TRUE(suite.complete) << entry.name;
            total += suite.tests.size();
        }
        EXPECT_GT(total, 0u) << entry.name;
        const bool twin = std::string(entry.name) == "x86tso.mtm" ||
                          std::string(entry.name) == "x86t_elt.mtm" ||
                          std::string(entry.name) == "sc_t_elt.mtm";
        if (!twin && total > 0) {
            ++non_twin_nonempty;
        }
    }
    EXPECT_GE(non_twin_nonempty, 4);
}

TEST(SpecDiff, WeakenedModelsShrinkTheirSuites)
{
    // pso relaxes W->W on top of TSO: its causality suite is a strict
    // subset of x86tso's at the same bound.
    const auto tso = synthesize(mtm::x86tso(), synth::Backend::kEnumerative,
                                1, 4);
    const auto pso =
        synthesize(zoo_model("pso"), synth::Backend::kEnumerative, 1, 4);
    ASSERT_EQ(tso.size(), pso.size());
    for (std::size_t i = 0; i < tso.size(); ++i) {
        EXPECT_LE(pso[i].tests.size(), tso[i].tests.size()) << tso[i].axiom;
    }
    EXPECT_LT(pso[2].tests.size(), tso[2].tests.size());  // causality
}

}  // namespace
}  // namespace transform::spec
