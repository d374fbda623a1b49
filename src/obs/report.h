/// \file
/// The machine-readable run report — one versioned JSON schema folding
/// SuiteResult counters, merged SchedulerStats, per-suite-aggregated
/// SolverStats, and the phase time breakdown, consumed by benches, CI,
/// and (eventually) the serving layer. `elt_synth --metrics-json out.json`
/// writes one; docs/observability.md documents the schema.
///
/// The schema is versioned (kMetricsSchemaVersion) so downstream
/// consumers can detect layout changes instead of silently misreading
/// fields; any key addition/removal/rename bumps it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/alloc.h"
#include "obs/metrics.h"
#include "sat/solver.h"
#include "sched/scheduler.h"
#include "synth/engine.h"

namespace transform::obs {

/// Version of the metrics-JSON layout produced by report_to_json.
/// v2: solver objects gained assumed_literals / retired_activations /
/// retained_clauses (the incremental-session counters).
/// v3: solver objects gained bases_built / bases_reused (the structure
/// base cache's hit accounting) and the phase breakdown gained "relax".
/// v4: suites gained "cancelled" (cooperative cancellation fired) and
/// scheduler objects gained job_faults, shard_retries,
/// shards_quarantined, checkpoint_shards_saved, and
/// checkpoint_shards_replayed (the fault-tolerant runtime's counters —
/// docs/robustness.md).
/// v5: phase entries gained p50_ns/p90_ns/p99_ns (log2-bucket latency
/// percentiles) and alloc_count/alloc_bytes (phase-attributed allocation
/// tracking); suites gained "alloc_sites" (call-site allocation buckets)
/// and "failures" (quarantined-shard records, elt_check parity); scheduler
/// objects gained observed_cost_resplits, resplit_threshold_min, and
/// resplit_threshold_max (the observed-cost re-split feedback).
/// v6: scheduler objects lost lazy_resplits, closed_prefix_splits,
/// skip_enumerations, observed_cost_resplits, resplit_threshold_min and
/// resplit_threshold_max (shards are static; nothing re-splits), and the
/// totals object gained peak_rss_bytes.
inline constexpr int kMetricsSchemaVersion = 6;

/// The process's peak resident set size so far, in bytes: VmHWM from
/// /proc/self/status, which covers this process's own address space, or
/// getrusage's ru_maxrss where /proc is missing (that one also counts the
/// peak of the process that exec'd this one); 0 when neither reports it.
std::uint64_t peak_rss_bytes();

/// One suite's slice of the report.
struct SuiteReport {
    std::string axiom;
    std::uint64_t tests = 0;
    std::uint64_t programs_considered = 0;
    std::uint64_t executions_considered = 0;
    std::uint64_t duplicates_rejected = 0;
    double seconds = 0.0;
    bool complete = true;
    bool cancelled = false;
    sched::SchedulerStats scheduler;
    sat::SolverStats solver;
    PhaseTotals phases;
    AllocTotals allocs;  ///< all-zero unless the run tracked allocations
    std::vector<synth::ShardFailure> failures;  ///< quarantined shards

    /// Accumulates another suite's counters (SchedulerStats/SolverStats
    /// merge semantics; seconds add, complete ANDs, cancelled ORs,
    /// failures concatenate).
    void merge(const SuiteReport& other);
};

/// Copies every reportable field out of a finished SuiteResult.
SuiteReport suite_report(const synth::SuiteResult& suite);

/// A whole run: invocation context plus one SuiteReport per suite.
struct RunReport {
    std::string tool;     ///< "elt_synth" / "elt_check" / a bench name
    std::string model;
    std::string backend;  ///< "enum" / "sat" (empty when not applicable)
    int bound = 0;
    int jobs = 0;
    std::vector<SuiteReport> suites;

    /// All suites merged into one aggregate (the report's "totals" object).
    SuiteReport totals() const;
};

/// Serializes \p report as the versioned metrics-JSON document. The totals
/// object carries peak_rss_bytes() as read at serialization time.
std::string report_to_json(const RunReport& report);

/// Writes report_to_json to \p path; false (with \p error filled when
/// non-null) when the file cannot be written.
bool write_report(const std::string& path, const RunReport& report,
                  std::string* error = nullptr);

}  // namespace transform::obs
