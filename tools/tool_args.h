/// \file
/// Shared strict flag parsing for the command-line tools (elt_synth,
/// elt_check). All numeric flags go through std::from_chars with
/// whole-string consumption and range validation, so trailing junk
/// ("8x"), prefixes ("0x8"), empty strings, and out-of-range values are
/// usage errors — never the silent 0 that std::atoi produced.
#pragma once

#include <charconv>
#include <cstdio>
#include <string>

namespace transform::tools {

/// Strict decimal integer parsing: the whole string must be a base-10
/// number inside [min, max].
inline bool
parse_int(const std::string& text, long long min, long long max,
          long long* out)
{
    if (text.empty()) {
        return false;
    }
    long long value = 0;
    const char* first = text.data();
    const char* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, value, 10);
    if (ec != std::errc() || ptr != last || value < min || value > max) {
        return false;
    }
    *out = value;
    return true;
}

/// Strict non-negative decimal parsing for seconds values.
inline bool
parse_seconds(const std::string& text, double* out)
{
    if (text.empty()) {
        return false;
    }
    double value = 0;
    const char* first = text.data();
    const char* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last || !(value >= 0)) {
        return false;
    }
    *out = value;
    return true;
}

/// Prints the uniform usage error and returns the tools' usage exit code.
inline int
usage_error(const std::string& flag, const char* expected,
            const std::string& got)
{
    std::fprintf(stderr, "%s takes %s, got '%s'\n", flag.c_str(), expected,
                 got.c_str());
    return 2;
}

/// Rejects a flag the tool does not know; returns the usage exit code.
inline int
unknown_flag(const std::string& flag)
{
    std::fprintf(stderr, "unknown flag '%s' (see the file header for usage)\n",
                 flag.c_str());
    return 2;
}

/// The --jobs contract shared by both tools: 0..1024, 0 = one worker per
/// hardware thread.
inline bool
parse_jobs(const std::string& text, int* out)
{
    long long value = 0;
    if (!parse_int(text, 0, 1024, &value)) {
        return false;
    }
    *out = static_cast<int>(value);
    return true;
}

inline constexpr const char* kJobsExpectation =
    "a worker count in 0..1024 (0 = hardware threads)";

}  // namespace transform::tools
