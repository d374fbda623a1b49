/// \file
/// Differential synthesis tests for the `.mtm` frontend: the enumerative
/// and SAT backends must synthesize the same suites (canonical keys +
/// sizes) from the predefined models at every worker count — the engine,
/// the scheduler and the merge see one compiled model either way. Also the
/// zoo smoke: every registry model synthesizes end-to-end and the
/// variants beyond the predefined three produce non-empty suites.
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

/// As key_fingerprint plus the violated-axiom lists, which depend on the
/// witness: identical across enumerative runs, which visit executions in
/// one order at every worker count.
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
expect_backends_agree(const mtm::Model& model, int bound)
{
    const auto reference =
        synthesize(model, synth::Backend::kEnumerative, 1, bound);
    const std::string reference_keys = key_fingerprint(reference);
    const std::string reference_full = full_fingerprint(reference);
    EXPECT_NE(reference_keys.find("\n"), std::string::npos);
    for (const synth::Backend backend :
         {synth::Backend::kEnumerative, synth::Backend::kSat}) {
        for (const int jobs : {1, 2, 4}) {
            const auto suites = synthesize(model, backend, jobs, bound);
            EXPECT_EQ(key_fingerprint(suites), reference_keys)
                << "backend=" << static_cast<int>(backend)
                << " jobs=" << jobs;
            if (backend == synth::Backend::kEnumerative) {
                EXPECT_EQ(full_fingerprint(suites), reference_full)
                    << "jobs=" << jobs;
            }
        }
    }
}

TEST(SpecDiff, X86TsoBackendsAgree)
{
    expect_backends_agree(mtm::x86tso(), /*bound=*/4);
}

TEST(SpecDiff, X86tEltBackendsAgree)
{
    expect_backends_agree(mtm::x86t_elt(), /*bound=*/4);
}

TEST(SpecDiff, ScTEltBackendsAgree)
{
    expect_backends_agree(mtm::sc_t_elt(), /*bound=*/4);
}

TEST(SpecDiff, ZooModelsSynthesizeNonEmptySuites)
{
    // The acceptance bar: every zoo model runs end-to-end through --model
    // resolution + the parallel engine, and the variants beyond the
    // predefined three all find tests.
    int variants_nonempty = 0;
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
        const bool predefined = std::string(entry.name) == "x86tso.mtm" ||
                                std::string(entry.name) == "x86t_elt.mtm" ||
                                std::string(entry.name) == "sc_t_elt.mtm";
        if (!predefined && total > 0) {
            ++variants_nonempty;
        }
    }
    EXPECT_GE(variants_nonempty, 4);
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
