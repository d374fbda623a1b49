/// \file
/// Golden suite fingerprints: the oracle every synthesized suite is held
/// to. For each model of the embedded zoo (the predefined names resolve
/// to three of them), on both backends, every suite's tests (canonical
/// key, size, violated axioms and the full witness execution) hash into
/// one `suite` line of tests/suite_fingerprints.txt. VM models run bounds
/// 4-6, plain MCMs bounds 2-5. A change that alters a suite fails here;
/// the failure prints the recomputed lines, and the change that re-records
/// them says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "elt/serialize.h"
#include "spec/registry.h"
#include "synth/engine.h"

namespace transform::synth {
namespace {

/// 64-bit FNV-1a, extended one string at a time.
void
fnv1a(std::uint64_t* hash, const std::string& text)
{
    for (const char c : text) {
        *hash ^= static_cast<unsigned char>(c);
        *hash *= 0x100000001b3ULL;
    }
}

std::string
suite_hash(const SuiteResult& suite)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const SynthesizedTest& test : suite.tests) {
        std::string violated;
        for (const std::string& name : test.violated) {
            violated += name + ",";
        }
        fnv1a(&hash, test.canonical_key + "|" + std::to_string(test.size) +
                         "|" + violated + "|" +
                         elt::execution_to_xml(test.witness, "w") + "\n");
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

/// The `suite` lines of one model on one backend, in axiom order.
std::vector<std::string>
fingerprint_lines(const std::string& name, Backend backend)
{
    std::string error;
    const auto resolved = spec::resolve_model(name, &error);
    EXPECT_TRUE(resolved.has_value()) << error;
    if (!resolved.has_value()) {
        return {};
    }
    const mtm::Model& model = resolved->model;
    SynthesisOptions options;
    options.min_bound = model.vm_aware() ? 4 : 2;
    options.bound = model.vm_aware() ? 6 : 5;
    options.backend = backend;
    options.jobs = 4;
    std::vector<std::string> lines;
    for (const SuiteResult& suite : synthesize_all_parallel(model, options)) {
        EXPECT_TRUE(suite.complete) << name << " " << suite.axiom;
        lines.push_back("suite " + name + " " +
                        (backend == Backend::kSat ? "sat" : "enum") + " " +
                        suite.axiom + " " +
                        std::to_string(suite.tests.size()) + " " +
                        suite_hash(suite));
    }
    return lines;
}

std::vector<std::string>
committed_lines()
{
    std::ifstream in(std::string(TRANSFORM_SOURCE_ROOT) +
                     "/tests/suite_fingerprints.txt");
    EXPECT_TRUE(in.good()) << "tests/suite_fingerprints.txt is missing";
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("suite ", 0) == 0) {
            lines.push_back(line);
        }
    }
    return lines;
}

TEST(Fingerprints, EverySuiteMatchesTheCommittedFile)
{
    std::vector<std::string> names;
    for (const spec::RegistryEntry& entry : spec::registry_entries()) {
        names.push_back(entry.name);
    }

    std::vector<std::string> actual;
    for (const std::string& name : names) {
        for (const Backend backend : {Backend::kEnumerative, Backend::kSat}) {
            for (std::string& line : fingerprint_lines(name, backend)) {
                actual.push_back(std::move(line));
            }
        }
    }
    const std::vector<std::string> expected = committed_lines();
    EXPECT_EQ(actual.size(), expected.size());
    std::ostringstream recomputed;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        recomputed << actual[i] << "\n";
        if (i < expected.size()) {
            EXPECT_EQ(actual[i], expected[i]);
        }
    }
    if (HasFailure()) {
        ADD_FAILURE() << "recomputed suite lines:\n" << recomputed.str();
    }
}

}  // namespace
}  // namespace transform::synth
