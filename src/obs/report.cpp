#include "obs/report.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>

namespace transform::obs {

namespace {

/// Minimal JSON string escaping for the free-form fields (model may be a
/// filesystem path).
std::string
escaped(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out.push_back(c);
        }
    }
    return out;
}

void
append_kv(std::string* out, const char* key, std::uint64_t value,
          const char* suffix = ",")
{
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "\"%s\": %" PRIu64 "%s", key, value,
                  suffix);
    *out += buffer;
}

void
append_kv(std::string* out, const char* key, double value,
          const char* suffix = ",")
{
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "\"%s\": %.9g%s", key, value,
                  suffix);
    *out += buffer;
}

void
append_scheduler(std::string* out, const std::string& indent,
                 const sched::SchedulerStats& s)
{
    *out += "{\n";
    *out += indent + "  ";
    append_kv(out, "workers", static_cast<std::uint64_t>(s.workers));
    *out += "\n" + indent + "  ";
    append_kv(out, "jobs_run", s.jobs_run);
    *out += "\n" + indent + "  ";
    append_kv(out, "steals", s.steals);
    *out += "\n" + indent + "  ";
    append_kv(out, "dedup_hits", s.dedup_hits);
    *out += "\n" + indent + "  ";
    append_kv(out, "queue_wait_seconds", s.queue_wait_seconds);
    *out += "\n" + indent + "  ";
    append_kv(out, "job_faults", s.job_faults);
    *out += "\n" + indent + "  ";
    append_kv(out, "shard_retries", s.shard_retries);
    *out += "\n" + indent + "  ";
    append_kv(out, "shards_quarantined", s.shards_quarantined);
    *out += "\n" + indent + "  ";
    append_kv(out, "checkpoint_shards_saved", s.checkpoint_shards_saved);
    *out += "\n" + indent + "  ";
    append_kv(out, "checkpoint_shards_replayed", s.checkpoint_shards_replayed,
              "");
    *out += "\n" + indent + "}";
}

void
append_solver(std::string* out, const std::string& indent,
              const sat::SolverStats& s)
{
    *out += "{\n";
    *out += indent + "  ";
    append_kv(out, "solve_calls", s.solve_calls);
    *out += "\n" + indent + "  ";
    append_kv(out, "solve_seconds",
              static_cast<double>(s.solve_nanos) * 1e-9);
    *out += "\n" + indent + "  ";
    append_kv(out, "decisions", s.decisions);
    *out += "\n" + indent + "  ";
    append_kv(out, "propagations", s.propagations);
    *out += "\n" + indent + "  ";
    append_kv(out, "conflicts", s.conflicts);
    *out += "\n" + indent + "  ";
    append_kv(out, "restarts", s.restarts);
    *out += "\n" + indent + "  ";
    append_kv(out, "learned_clauses", s.learned_clauses);
    *out += "\n" + indent + "  ";
    append_kv(out, "deleted_clauses", s.deleted_clauses);
    *out += "\n" + indent + "  ";
    append_kv(out, "max_learned", s.max_learned);
    *out += "\n" + indent + "  ";
    append_kv(out, "assumed_literals", s.assumed_literals);
    *out += "\n" + indent + "  ";
    append_kv(out, "retired_activations", s.retired_activations);
    *out += "\n" + indent + "  ";
    append_kv(out, "retained_clauses", s.retained_clauses);
    *out += "\n" + indent + "  ";
    append_kv(out, "bases_built", s.bases_built);
    *out += "\n" + indent + "  ";
    append_kv(out, "bases_reused", s.bases_reused, "");
    *out += "\n" + indent + "}";
}

void
append_phases(std::string* out, const std::string& indent,
              const PhaseTotals& phases, const AllocTotals& allocs)
{
    *out += "{\n";
    for (int p = 0; p < kPhaseCount; ++p) {
        const Phase phase = static_cast<Phase>(p);
        const LatencyHistogram& hist =
            phases.latency[static_cast<std::size_t>(p)];
        const AllocSlot& alloc = allocs.phases[static_cast<std::size_t>(p)];
        *out += indent + "  \"";
        *out += phase_name(phase);
        *out += "\": {";
        append_kv(out, "seconds", phases.seconds(phase));
        *out += " ";
        append_kv(out, "count", phases.count(phase));
        *out += " ";
        append_kv(out, "p50_ns", hist.percentile_nanos(0.5));
        *out += " ";
        append_kv(out, "p90_ns", hist.percentile_nanos(0.9));
        *out += " ";
        append_kv(out, "p99_ns", hist.percentile_nanos(0.99));
        *out += " ";
        append_kv(out, "alloc_count", alloc.count);
        *out += " ";
        append_kv(out, "alloc_bytes", alloc.bytes, "");
        *out += "}";
        *out += p + 1 < kPhaseCount ? ",\n" : "\n";
    }
    *out += indent + "}";
}

void
append_alloc_sites(std::string* out, const std::string& indent,
                   const AllocTotals& allocs)
{
    *out += "{\n";
    for (int s = 0; s < kAllocSiteCount; ++s) {
        const AllocSlot& slot = allocs.sites[static_cast<std::size_t>(s)];
        *out += indent + "  \"";
        *out += alloc_site_name(static_cast<AllocSite>(s));
        *out += "\": {";
        append_kv(out, "count", slot.count);
        *out += " ";
        append_kv(out, "bytes", slot.bytes, "");
        *out += "}";
        *out += s + 1 < kAllocSiteCount ? ",\n" : "\n";
    }
    *out += indent + "}";
}

void
append_failures(std::string* out, const std::string& indent,
                const std::vector<synth::ShardFailure>& failures)
{
    if (failures.empty()) {
        *out += "[]";
        return;
    }
    *out += "[\n";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const synth::ShardFailure& f = failures[i];
        *out += indent + "  {\"shard\": \"" + escaped(f.shard) +
                "\", \"error\": \"" + escaped(f.error) + "\", ";
        append_kv(out, "attempts", static_cast<std::uint64_t>(f.attempts),
                  "");
        *out += "}";
        *out += i + 1 < failures.size() ? ",\n" : "\n";
    }
    *out += indent + "]";
}

/// One suite object; the totals object (\p totals) has no axiom and
/// carries the process's peak RSS instead.
void
append_suite(std::string* out, const std::string& indent,
             const SuiteReport& suite, bool totals)
{
    *out += "{\n";
    if (totals) {
        *out += indent + "  ";
        append_kv(out, "peak_rss_bytes", peak_rss_bytes());
        *out += "\n";
    } else {
        *out += indent + "  \"axiom\": \"" + escaped(suite.axiom) + "\",\n";
    }
    *out += indent + "  ";
    append_kv(out, "tests", suite.tests);
    *out += "\n" + indent + "  ";
    append_kv(out, "programs_considered", suite.programs_considered);
    *out += "\n" + indent + "  ";
    append_kv(out, "executions_considered", suite.executions_considered);
    *out += "\n" + indent + "  ";
    append_kv(out, "duplicates_rejected", suite.duplicates_rejected);
    *out += "\n" + indent + "  ";
    append_kv(out, "seconds", suite.seconds);
    *out += "\n" + indent + "  \"complete\": ";
    *out += suite.complete ? "true" : "false";
    *out += ",\n" + indent + "  \"cancelled\": ";
    *out += suite.cancelled ? "true" : "false";
    *out += ",\n" + indent + "  \"scheduler\": ";
    append_scheduler(out, indent + "  ", suite.scheduler);
    *out += ",\n" + indent + "  \"solver\": ";
    append_solver(out, indent + "  ", suite.solver);
    *out += ",\n" + indent + "  \"phases\": ";
    append_phases(out, indent + "  ", suite.phases, suite.allocs);
    *out += ",\n" + indent + "  \"alloc_sites\": ";
    append_alloc_sites(out, indent + "  ", suite.allocs);
    *out += ",\n" + indent + "  \"failures\": ";
    append_failures(out, indent + "  ", suite.failures);
    *out += "\n" + indent + "}";
}

}  // namespace

std::uint64_t
peak_rss_bytes()
{
    struct rusage usage {};
    if (::getrusage(RUSAGE_SELF, &usage) != 0 || usage.ru_maxrss < 0) {
        return 0;
    }
    // Linux reports ru_maxrss in KiB.
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

void
SuiteReport::merge(const SuiteReport& other)
{
    tests += other.tests;
    programs_considered += other.programs_considered;
    executions_considered += other.executions_considered;
    duplicates_rejected += other.duplicates_rejected;
    seconds += other.seconds;
    complete = complete && other.complete;
    cancelled = cancelled || other.cancelled;
    scheduler.merge(other.scheduler);
    solver.merge(other.solver);
    phases.merge(other.phases);
    allocs.merge(other.allocs);
    failures.insert(failures.end(), other.failures.begin(),
                    other.failures.end());
}

SuiteReport
suite_report(const synth::SuiteResult& suite)
{
    SuiteReport report;
    report.axiom = suite.axiom;
    report.tests = suite.tests.size();
    report.programs_considered = suite.programs_considered;
    report.executions_considered = suite.executions_considered;
    report.duplicates_rejected = suite.duplicates_rejected;
    report.seconds = suite.seconds;
    report.complete = suite.complete;
    report.cancelled = suite.cancelled;
    report.scheduler = suite.scheduler;
    report.solver = suite.solver;
    report.phases = suite.phases;
    report.allocs = suite.allocs;
    report.failures = suite.failures;
    return report;
}

SuiteReport
RunReport::totals() const
{
    SuiteReport total;
    total.axiom = "all";
    for (const SuiteReport& suite : suites) {
        total.merge(suite);
    }
    return total;
}

std::string
report_to_json(const RunReport& report)
{
    std::string out;
    out.reserve(4096);
    out += "{\n";
    out += "  \"schema\": \"transform-metrics\",\n";
    out += "  ";
    append_kv(&out, "schema_version",
              static_cast<std::uint64_t>(kMetricsSchemaVersion));
    out += "\n  \"tool\": \"" + escaped(report.tool) + "\",\n";
    out += "  \"model\": \"" + escaped(report.model) + "\",\n";
    out += "  \"backend\": \"" + escaped(report.backend) + "\",\n";
    out += "  ";
    append_kv(&out, "bound", static_cast<std::uint64_t>(report.bound));
    out += "\n  ";
    append_kv(&out, "jobs", static_cast<std::uint64_t>(report.jobs));
    out += "\n  \"suites\": [\n";
    for (std::size_t i = 0; i < report.suites.size(); ++i) {
        out += "    ";
        append_suite(&out, "    ", report.suites[i], /*totals=*/false);
        out += i + 1 < report.suites.size() ? ",\n" : "\n";
    }
    out += "  ],\n";
    out += "  \"totals\": ";
    const SuiteReport total = report.totals();
    append_suite(&out, "  ", total, /*totals=*/true);
    out += "\n}\n";
    return out;
}

bool
write_report(const std::string& path, const RunReport& report,
             std::string* error)
{
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        if (error != nullptr) {
            *error = "cannot open " + path + " for writing";
        }
        return false;
    }
    const std::string json = report_to_json(report);
    const std::size_t written =
        std::fwrite(json.data(), 1, json.size(), file);
    const bool ok = written == json.size() && std::fclose(file) == 0;
    if (!ok && error != nullptr) {
        *error = "short write to " + path;
    }
    return ok;
}

}  // namespace transform::obs
