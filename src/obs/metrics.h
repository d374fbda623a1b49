/// \file
/// Phase-attributed metrics for the synthesis runtime — the counter/timer
/// half of the observability layer (the span half is obs/trace.h, the
/// machine-readable export obs/report.h; see docs/observability.md).
///
/// The paper's headline claims are throughput claims, so the runtime must
/// be able to answer "what fraction of a run is SAT solve vs. derivation
/// vs. judging?" without perturbing the numbers it reports. The design is
/// a MetricsRegistry of per-worker cache-line-padded cells over a FIXED
/// phase taxonomy: a worker only ever touches its own cell (relaxed atomic
/// adds, zero contention on the hot path), and totals are merged on
/// demand once the writers have quiesced. When metrics are disabled the
/// instrumentation sites compile down to one null-pointer test — no clock
/// reads, no atomic traffic (ScopedPhase below).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

namespace transform::obs {

class AllocTracker;  // obs/alloc.h

/// The phase taxonomy. Fixed and versioned with the metrics-JSON schema
/// (obs/report.h): every nanosecond a shard job spends is attributed to
/// exactly one phase, so per-phase seconds sum to shard-job wall time.
/// kDedup is the phase outside shard jobs: the engine adds it on lane 0
/// once a pass's workers are idle.
enum class Phase : int {
    kSkeletonEnum = 0,  ///< skeleton/execution enumeration + shard framing
                        ///  (a shard job's wall time not claimed below)
    kSatEncode,         ///< SAT backend: building the relational encoding
    kSatSolve,          ///< SAT backend: time inside sat::Solver::solve
    kDerive,            ///< Table-I relation derivation + axiom verdicts
    kCanonicalize,      ///< canonical key of each candidate that accepted
                        ///  a witness (the merge deduplicates on it)
    kJudge,             ///< spanning-set minimality judging (verdict side)
    kRelax,             ///< relaxation rebuilds inside the judge (one
                        ///  relaxed execution per applicable relaxation)
    kDedup,             ///< the merge's sort-and-drop of each target's
                        ///  accepted tests: one sample per target
    kQueueWait,         ///< always 0: a pass has its call's pool to
                        ///  itself, so nothing queues ahead of it. Kept
                        ///  for the metrics-JSON v6 schema until the next
                        ///  benchmark change (ROADMAP item 1)
};

/// Number of phases in the taxonomy (kQueueWait is the last).
inline constexpr int kPhaseCount = static_cast<int>(Phase::kQueueWait) + 1;

/// Stable lower_snake_case name of a phase — the spelling used by the
/// metrics-JSON schema and docs/observability.md.
const char* phase_name(Phase phase);

/// One phase's merged totals.
struct PhaseSlot {
    std::uint64_t count = 0;  ///< instrumented sections entered
    std::uint64_t nanos = 0;  ///< wall nanoseconds attributed
};

/// Number of log2 latency buckets. Bucket i (i >= 1) holds samples whose
/// nanosecond value has bit-width i, i.e. [2^(i-1), 2^i - 1]; bucket 0
/// holds exact zeros. 40 buckets cover up to ~9 minutes per sample.
inline constexpr int kLatencyBucketCount = 40;

/// The bucket index a latency sample lands in.
inline int
latency_bucket(std::uint64_t nanos)
{
    const int width = std::bit_width(nanos);
    return width < kLatencyBucketCount ? width : kLatencyBucketCount - 1;
}

/// A log2-bucket latency distribution. Merging across workers is exact
/// (bucket counts add); percentiles are resolved to the owning bucket's
/// upper edge, so merged percentiles equal the percentile of the merged
/// sample multiset at bucket resolution.
struct LatencyHistogram {
    std::array<std::uint64_t, kLatencyBucketCount> buckets{};

    void record(std::uint64_t nanos)
    {
        ++buckets[static_cast<std::size_t>(latency_bucket(nanos))];
    }
    void merge(const LatencyHistogram& other);
    /// Total samples recorded.
    std::uint64_t total() const;
    /// Upper edge (in nanos) of the bucket holding the p-quantile sample
    /// (p in [0, 1]); 0 when the histogram is empty.
    std::uint64_t percentile_nanos(double p) const;
};

/// Totals across every worker, merged on demand by MetricsRegistry or
/// accumulated across suites by tools.
struct PhaseTotals {
    std::array<PhaseSlot, kPhaseCount> phases{};
    /// Per-phase latency distribution of the *scoped* sections (one
    /// sample per ScopedPhase / explicit record_latency; subtract-based
    /// add() attributions contribute no samples — they are aggregates,
    /// not per-item latencies).
    std::array<LatencyHistogram, kPhaseCount> latency{};

    void merge(const PhaseTotals& other);
    double seconds(Phase phase) const;
    std::uint64_t count(Phase phase) const;
    /// Sum of nanos over all phases.
    std::uint64_t total_nanos() const;
};

/// Reads the process-wide monotonic clock, in nanoseconds. All obs
/// timestamps (metrics and trace spans) come from this one clock so phase
/// totals and span durations agree.
std::uint64_t now_nanos();

/// A registry of per-worker metric cells. Construction fixes the worker
/// count; worker w may call add(w, ...) concurrently with every other
/// worker at zero contention (each cell owns its cache lines). merged()
/// may run concurrently with writers (relaxed reads — totals are only
/// "settled" once the writers have quiesced, e.g. after the owning job
/// group has been waited).
class MetricsRegistry {
  public:
    /// One cell per worker in [0, workers); out-of-range worker ids are
    /// dropped (counted in dropped()) rather than asserting, so callers
    /// with extra lanes degrade gracefully.
    explicit MetricsRegistry(int workers);

    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    int workers() const { return static_cast<int>(cells_.size()); }

    /// Attributes \p nanos (and \p count sections) to \p phase on
    /// \p worker's cell. Relaxed; wait-free.
    void add(int worker, Phase phase, std::uint64_t nanos,
             std::uint64_t count = 1);

    /// Records one latency sample of \p nanos into \p phase's histogram
    /// on \p worker's cell. Kept separate from add(): totals sum every
    /// attribution (including subtract-based aggregates), histograms only
    /// take genuine per-section/per-solve samples.
    void record_latency(int worker, Phase phase, std::uint64_t nanos);

    /// Sum of nanos across every phase of \p worker's cell. Used by the
    /// engine to attribute a shard job's *unclaimed* wall time to
    /// kSkeletonEnum: snapshot before the job, subtract after.
    std::uint64_t worker_nanos(int worker) const;

    /// Nanos of one phase on one worker's cell.
    std::uint64_t worker_phase_nanos(int worker, Phase phase) const;

    /// Merged totals across all workers.
    PhaseTotals merged() const;

    /// add() calls that named an out-of-range worker.
    std::uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

  private:
    /// One worker's counters, padded to whole cache lines so neighbouring
    /// workers never false-share. The histogram block is cold relative to
    /// count/nanos (one extra fetch_add per scoped section) and lives in
    /// the same single-writer cell, so merging stays exact.
    struct alignas(64) Cell {
        std::atomic<std::uint64_t> count[kPhaseCount];
        std::atomic<std::uint64_t> nanos[kPhaseCount];
        std::atomic<std::uint64_t> hist[kPhaseCount][kLatencyBucketCount];

        Cell()
        {
            for (int p = 0; p < kPhaseCount; ++p) {
                count[p].store(0, std::memory_order_relaxed);
                nanos[p].store(0, std::memory_order_relaxed);
                for (int b = 0; b < kLatencyBucketCount; ++b) {
                    hist[p][b].store(0, std::memory_order_relaxed);
                }
            }
        }
    };

    std::vector<Cell> cells_;
    std::atomic<std::uint64_t> dropped_{0};
};

namespace detail {

/// The thread-local binding consulted by the interposed operator new
/// (obs/alloc.cpp) and maintained by ScopedPhase. Plain zero-initialized
/// POD: no dynamic initialization or destruction order to worry about, so
/// it is safe to read from allocations at any point in a thread's life.
/// Lives here (not obs/alloc.h) so ScopedPhase can swap the phase without
/// a header cycle.
struct AllocBinding {
    AllocTracker* tracker;
    int worker;
    int phase;  ///< static_cast<int>(Phase), maintained by ScopedPhase
    int site;   ///< static_cast<int>(AllocSite), by ScopedAllocSite
};

extern thread_local constinit AllocBinding t_alloc_binding;

/// Swaps the calling thread's active allocation phase, returning the
/// previous one. Unconditional (two thread-local int moves): when no
/// tracker is bound the value is simply never read.
inline int
exchange_alloc_phase(int phase)
{
    const int previous = t_alloc_binding.phase;
    t_alloc_binding.phase = phase;
    return previous;
}

}  // namespace detail

/// RAII phase section: times construction-to-destruction and attributes it
/// to (worker, phase), records the duration as one latency sample, and
/// keeps the thread-local *allocation* phase in sync so a bound
/// AllocTracker (obs/alloc.h) attributes this section's allocations to the
/// same phase. A null registry is the disabled fast path — no clock read
/// on either end, one branch plus two thread-local int moves.
class ScopedPhase {
  public:
    ScopedPhase(MetricsRegistry* registry, int worker, Phase phase)
        : registry_(registry), worker_(worker), phase_(phase),
          saved_alloc_phase_(
              detail::exchange_alloc_phase(static_cast<int>(phase))),
          start_(registry != nullptr ? now_nanos() : 0)
    {
    }

    ~ScopedPhase()
    {
        detail::t_alloc_binding.phase = saved_alloc_phase_;
        if (registry_ != nullptr) {
            const std::uint64_t elapsed = now_nanos() - start_;
            registry_->add(worker_, phase_, elapsed);
            registry_->record_latency(worker_, phase_, elapsed);
        }
    }

    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

  private:
    MetricsRegistry* registry_;
    int worker_;
    Phase phase_;
    int saved_alloc_phase_;
    std::uint64_t start_;
};

/// RAII allocation-phase-only section: swaps the thread-local allocation
/// phase without touching timers — for regions whose *time* is attributed
/// by subtraction (e.g. the SAT-encode shell around a witness search) but
/// whose allocations should still land in a named phase.
class ScopedAllocPhase {
  public:
    explicit ScopedAllocPhase(Phase phase)
        : saved_(detail::exchange_alloc_phase(static_cast<int>(phase)))
    {
    }

    ~ScopedAllocPhase() { detail::t_alloc_binding.phase = saved_; }

    ScopedAllocPhase(const ScopedAllocPhase&) = delete;
    ScopedAllocPhase& operator=(const ScopedAllocPhase&) = delete;

  private:
    int saved_;
};

}  // namespace transform::obs
