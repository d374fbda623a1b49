/// \file
/// Suite fingerprints: the benchmark's correctness oracle. A suite's
/// fingerprint hashes every test's canonical key, size and violated axioms
/// in suite order; its key hash covers keys and sizes only, so suites of
/// two backends (whose witnesses, and with them the violated-axiom lists,
/// may differ) can be compared as test sets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "synth/engine.h"

namespace perfbench {

struct SuiteFingerprint {
    std::string axiom;
    std::uint64_t tests = 0;
    std::uint64_t fingerprint = 0;  ///< keys, sizes and violated axioms
    std::uint64_t key_hash = 0;     ///< keys and sizes
};

namespace detail {

/// 64-bit FNV-1a, extended one string at a time.
inline void
fnv1a(std::uint64_t* hash, const std::string& text)
{
    for (const char c : text) {
        *hash ^= static_cast<unsigned char>(c);
        *hash *= 0x100000001b3ULL;
    }
}

}  // namespace detail

/// Fingerprints \p tests, which must be in suite order (sorted by key).
inline SuiteFingerprint
fingerprint_suite(const std::string& axiom,
                  const std::vector<transform::synth::SynthesizedTest>& tests)
{
    SuiteFingerprint out;
    out.axiom = axiom;
    out.tests = tests.size();
    out.fingerprint = 0xcbf29ce484222325ULL;
    out.key_hash = 0xcbf29ce484222325ULL;
    for (const transform::synth::SynthesizedTest& test : tests) {
        const std::string keyed =
            test.canonical_key + "|" + std::to_string(test.size) + "\n";
        detail::fnv1a(&out.key_hash, keyed);
        std::string violated;
        for (const std::string& name : test.violated) {
            violated += name + ",";
        }
        detail::fnv1a(&out.fingerprint, keyed + violated + "\n");
    }
    return out;
}

}  // namespace perfbench
