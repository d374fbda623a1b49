/// \file
/// What perfbench_runner and perfbench_replay share: argument parsing, the
/// set-up every run does before its synthesis call, and JSON output.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "fingerprint.h"
#include "obs/metrics.h"
#include "spec/registry.h"
#include "synth/engine.h"
#include "workloads.h"

namespace perfbench {

/// `WORKLOAD [--bound N] [--model NAME] REST...`: `--bound` replaces the
/// workload's largest bound and `--model` its model (the reference
/// cross-check and the benchmark's tests use them); the caller interprets
/// the remaining arguments.
struct Args {
    const Workload* workload = nullptr;
    int bound = 0;
    std::string model;
    std::vector<std::string> rest;
};

/// Parses \p args; prints the problem and returns nullopt when malformed.
inline std::optional<Args>
parse_args(const std::vector<std::string>& args)
{
    Args out;
    if (!args.empty()) {
        out.workload = find_workload(args[0]);
    }
    if (out.workload == nullptr) {
        std::fprintf(stderr, "unknown workload %s\n",
                     args.empty() ? "(none)" : args[0].c_str());
        return std::nullopt;
    }
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--bound" && i + 1 < args.size()) {
            out.bound = std::atoi(args[++i].c_str());
            if (out.bound < 1) {
                std::fprintf(stderr, "bad --bound %s\n", args[i].c_str());
                return std::nullopt;
            }
        } else if (args[i] == "--model" && i + 1 < args.size()) {
            out.model = args[++i];
        } else {
            out.rest.push_back(args[i]);
        }
    }
    return out;
}

struct Setup {
    transform::spec::ResolvedModel resolved;
    transform::synth::SynthesisOptions options;
    double resolve_seconds = 0;
};

/// Everything a run does before its synthesis call.
inline std::optional<Setup>
set_up(const Args& args)
{
    std::string error;
    const std::uint64_t start = transform::obs::now_nanos();
    std::optional<transform::spec::ResolvedModel> resolved =
        transform::spec::resolve_model(
            args.model.empty() ? args.workload->model : args.model, &error);
    const std::uint64_t resolved_at = transform::obs::now_nanos();
    if (!resolved.has_value()) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return std::nullopt;
    }
    transform::synth::SynthesisOptions options =
        workload_options(*args.workload, resolved->model, args.bound);
    return Setup{std::move(*resolved), options,
                 static_cast<double>(resolved_at - start) * 1e-9};
}

/// Appends comma-separated JSON members to a string.
class JsonObject {
  public:
    JsonObject& num(const char* key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.9g", value);
        return raw(key, buf);
    }
    JsonObject& num(const char* key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }
    JsonObject& flag(const char* key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }
    JsonObject& str(const char* key, const std::string& value)
    {
        // Values are workload, axiom, layer and function names: no quotes
        // or control characters to escape.
        return raw(key, "\"" + value + "\"");
    }
    JsonObject& raw(const char* key, const std::string& json)
    {
        text_ += text_.empty() ? "{" : ", ";
        text_ += "\"" + std::string(key) + "\": " + json;
        return *this;
    }
    std::string done() const { return text_.empty() ? "{}" : text_ + "}"; }

  private:
    std::string text_;
};

/// Each suite's fingerprint, completeness and counters, as a JSON array.
inline std::string
suites_json(const std::vector<transform::synth::SuiteResult>& suites)
{
    const auto hex = [](std::uint64_t value) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "\"%016llx\"",
                      static_cast<unsigned long long>(value));
        return std::string(buf);
    };
    std::string out = "[";
    for (const transform::synth::SuiteResult& suite : suites) {
        const SuiteFingerprint fp = fingerprint_suite(suite.axiom, suite.tests);
        JsonObject o;
        o.str("axiom", suite.axiom)
            .num("tests", fp.tests)
            .raw("fingerprint", hex(fp.fingerprint))
            .raw("key_hash", hex(fp.key_hash))
            .flag("complete", suite.complete)
            .flag("cancelled", suite.cancelled)
            .num("failures", std::uint64_t{suite.failures.size()})
            .num("programs", suite.programs_considered)
            .num("executions", suite.executions_considered)
            .num("duplicates", suite.duplicates_rejected);
        out += (out.size() > 1 ? ", " : "") + o.done();
    }
    return out + "]";
}

}  // namespace perfbench
