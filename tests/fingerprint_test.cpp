/// \file
/// Golden suite fingerprints: the oracle every synthesized suite is held
/// to. For each model of the embedded zoo (the predefined names resolve
/// to three of them), on both backends, every suite's tests (canonical
/// key, size, violated axioms and the full witness execution) hash into
/// one `suite` line of tests/suite_fingerprints.txt. VM models run bounds
/// 4-6, plain MCMs bounds 2-5. A change that alters a suite fails here;
/// the failure prints the recomputed lines, and the change that re-records
/// them says why.
///
/// The `order` lines pin the order in which a fresh mtm::ProgramEncoding
/// streams models, over every candidate the engine's every-axiom pass
/// generates at the same bounds. SAT witnesses depend on that order, not
/// only on the first model accepted, so an encoder change that keeps the
/// suites at these bounds can still move a witness at a larger one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "elt/serialize.h"
#include "mtm/encoding.h"
#include "spec/registry.h"
#include "synth/engine.h"
#include "synth/minimality.h"
#include "synth/skeleton.h"

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

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::string
hex64(std::uint64_t value)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(value));
    return hex;
}

std::string
suite_hash(const SuiteResult& suite)
{
    std::uint64_t hash = kFnvBasis;
    for (const SynthesizedTest& test : suite.tests) {
        std::string violated;
        for (const std::string& name : test.violated) {
            violated += name + ",";
        }
        fnv1a(&hash, test.canonical_key + "|" + std::to_string(test.size) +
                         "|" + violated + "|" +
                         elt::execution_to_xml(test.witness, "w") + "\n");
    }
    return hex64(hash);
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

/// The `order` line of one model: `<programs> <models> <hash>` over the
/// candidates of the every-axiom pass that contain a write. Each candidate
/// runs the unfiltered query, then one query per axiom in axiom order,
/// each through a new ProgramEncoding; the hash covers each query's name
/// and every execution it streams, in stream order.
std::string
order_line(const std::string& name)
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
    mtm::AxiomMask every = 0;
    for (std::size_t i = 0; i < model.axioms().size(); ++i) {
        every |= mtm::AxiomMask{1} << i;
    }
    mtm::EncodingScratch scratch;
    std::uint64_t programs = 0;
    std::uint64_t models = 0;
    std::uint64_t hash = kFnvBasis;
    const auto stream = [&](const elt::Program& program,
                            const std::string& query) {
        fnv1a(&hash, query + "\n");
        mtm::ProgramEncoding encoding(program, &model, &scratch);
        encoding.enumerate(query, [&](const elt::Execution& e) {
            ++models;
            fnv1a(&hash, elt::execution_to_xml(e, "w"));
            return true;
        });
    };
    for (int size = options.min_bound; size <= options.bound; ++size) {
        for_each_skeleton(
            engine_skeleton_options(model, every, options, size),
            [&](const elt::Program& program) {
                if (!contains_write(program)) {
                    return true;
                }
                ++programs;
                stream(program, "");
                for (const mtm::Axiom& axiom : model.axioms()) {
                    stream(program, axiom.name);
                }
                return true;
            });
    }
    return "order " + name + " " + std::to_string(programs) + " " +
           std::to_string(models) + " " + hex64(hash);
}

/// The committed lines of one kind (`suite` or `order`), in file order.
std::vector<std::string>
committed_lines(const std::string& kind)
{
    std::ifstream in(std::string(TRANSFORM_SOURCE_ROOT) +
                     "/tests/suite_fingerprints.txt");
    EXPECT_TRUE(in.good()) << "tests/suite_fingerprints.txt is missing";
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind(kind + " ", 0) == 0) {
            lines.push_back(line);
        }
    }
    return lines;
}

std::vector<std::string>
registry_names()
{
    std::vector<std::string> names;
    for (const spec::RegistryEntry& entry : spec::registry_entries()) {
        names.push_back(entry.name);
    }
    return names;
}

/// Compares recomputed lines with the committed ones of \p kind and, on
/// any difference, prints the recomputed set.
void
expect_committed(const std::string& kind,
                 const std::vector<std::string>& actual)
{
    const std::vector<std::string> expected = committed_lines(kind);
    EXPECT_EQ(actual.size(), expected.size());
    std::ostringstream recomputed;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        recomputed << actual[i] << "\n";
        if (i < expected.size()) {
            EXPECT_EQ(actual[i], expected[i]);
        }
    }
    if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "recomputed " << kind << " lines:\n"
                      << recomputed.str();
    }
}

TEST(Fingerprints, EverySuiteMatchesTheCommittedFile)
{
    std::vector<std::string> actual;
    for (const std::string& name : registry_names()) {
        for (const Backend backend : {Backend::kEnumerative, Backend::kSat}) {
            for (std::string& line : fingerprint_lines(name, backend)) {
                actual.push_back(std::move(line));
            }
        }
    }
    expect_committed("suite", actual);
}

TEST(Fingerprints, FreshEncodingModelOrderMatchesTheCommittedFile)
{
    std::vector<std::string> actual;
    for (const std::string& name : registry_names()) {
        actual.push_back(order_line(name));
    }
    expect_committed("order", actual);
}

}  // namespace
}  // namespace transform::synth
