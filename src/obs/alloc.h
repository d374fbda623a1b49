/// \file
/// Phase-attributed heap-allocation tracking — the allocation half of the
/// observability layer (obs/metrics.h counts time, this counts operator
/// new; see docs/observability.md, "Allocation tracking").
///
/// The library interposes the global operator new/new[] family (alloc.cpp)
/// behind two tiers:
///
///  - A process-wide allocation counter that is ALWAYS on (one relaxed
///    fetch_add per allocation). This is the proxy the substrate bench has
///    graded the zero-allocation hot path on since PR 4; it moved here so
///    tools and tests share it (alloc_count()).
///  - An opt-in thread-local binding (bind_alloc_tracker) that attributes
///    each allocation's count and bytes to the thread's ACTIVE PHASE and
///    ACTIVE SITE on a per-worker padded cell of an AllocTracker — the
///    same single-writer/relaxed-merge design as MetricsRegistry. With no
///    binding the hot path is one thread-local pointer test.
///
/// The active phase follows obs::ScopedPhase sections automatically
/// (metrics.h swaps the thread-local phase whenever a tracker is bound),
/// so allocation attribution reuses the exact taxonomy the time metrics
/// already pin. Allocations outside any scoped section land in
/// kSkeletonEnum, mirroring the engine's "unclaimed shard wall time"
/// convention — which is what makes per-phase counts SUM EXACTLY to the
/// process-wide proxy delta over an instrumented region (tested in
/// tests/obs_test.cpp).
///
/// Attribution never perturbs synthesis output: suites are byte-identical
/// with tracking bound or not (the on/off matrix in tests/obs_test.cpp).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace transform::obs {

/// Allocations performed by the whole process so far (the always-on
/// proxy). Monotonic; diff two reads around a workload to grade it.
std::uint64_t alloc_count();

/// Call-site buckets for the allocation hunt: a ScopedAllocSite names the
/// code region so per-phase totals can be split by suspect
/// (ROADMAP "finish the allocation story"). kSiteOther is everything
/// untagged.
enum class AllocSite : int {
    kSiteOther = 0,       ///< no ScopedAllocSite active
    kSiteCanonicalKey,    ///< canonical keys of accepted candidates
    kSiteSuiteGrowth,     ///< suite-result/test accumulation
    kSiteBlockingClause,  ///< AllSAT blocking-clause construction
    kSiteJudgeVerdict,    ///< minimality judge verdict-side allocations
};

/// Number of call-site buckets (kSiteJudgeVerdict is the last).
inline constexpr int kAllocSiteCount =
    static_cast<int>(AllocSite::kSiteJudgeVerdict) + 1;

/// Stable lower_snake_case name of a call-site bucket (JSON/report
/// spelling).
const char* alloc_site_name(AllocSite site);

/// One bucket's merged allocation totals.
struct AllocSlot {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

/// Merged allocation totals across every worker of an AllocTracker:
/// per-phase and per-site breakdowns of the same allocations (each
/// allocation lands in exactly one phase bucket AND exactly one site
/// bucket, so both tables sum to the same grand total).
struct AllocTotals {
    std::array<AllocSlot, kPhaseCount> phases{};
    std::array<AllocSlot, kAllocSiteCount> sites{};

    void merge(const AllocTotals& other);
    /// Sum of count over all phase buckets.
    std::uint64_t total_count() const;
    /// Sum of bytes over all phase buckets.
    std::uint64_t total_bytes() const;
};

/// A registry of per-worker allocation cells, written from inside
/// operator new by whichever threads are bound to it. Same concurrency
/// contract as MetricsRegistry: worker w's bound thread writes cell w at
/// zero contention; merged() is settled once writers have quiesced.
class AllocTracker {
  public:
    /// One cell per worker in [0, workers); out-of-range worker ids are
    /// dropped (counted in dropped()).
    explicit AllocTracker(int workers);

    AllocTracker(const AllocTracker&) = delete;
    AllocTracker& operator=(const AllocTracker&) = delete;

    int workers() const { return static_cast<int>(cells_.size()); }

    /// Attributes one allocation of \p bytes to (\p phase, \p site) on
    /// \p worker's cell. Called from operator new; must not allocate.
    void add(int worker, int phase, int site, std::uint64_t bytes);

    /// Merged totals across all workers.
    AllocTotals merged() const;

    /// Allocation count attributed to one worker's cell (all phases).
    std::uint64_t worker_count(int worker) const;

    /// add() calls that named an out-of-range worker/phase/site.
    std::uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

  private:
    /// One worker's counters, padded so neighbouring workers never
    /// false-share.
    struct alignas(64) Cell {
        std::atomic<std::uint64_t> phase_count[kPhaseCount];
        std::atomic<std::uint64_t> phase_bytes[kPhaseCount];
        std::atomic<std::uint64_t> site_count[kAllocSiteCount];
        std::atomic<std::uint64_t> site_bytes[kAllocSiteCount];

        Cell()
        {
            for (int p = 0; p < kPhaseCount; ++p) {
                phase_count[p].store(0, std::memory_order_relaxed);
                phase_bytes[p].store(0, std::memory_order_relaxed);
            }
            for (int s = 0; s < kAllocSiteCount; ++s) {
                site_count[s].store(0, std::memory_order_relaxed);
                site_bytes[s].store(0, std::memory_order_relaxed);
            }
        }
    };

    std::vector<Cell> cells_;
    std::atomic<std::uint64_t> dropped_{0};
};

/// Binds the calling thread's allocations to \p tracker as \p worker,
/// starting in phase kSkeletonEnum / site kSiteOther. Passing nullptr
/// unbinds. A thread has at most one binding; bindings never cross
/// threads. (The binding POD itself lives in metrics.h's detail namespace
/// so ScopedPhase can keep the phase in sync.)
void bind_alloc_tracker(AllocTracker* tracker, int worker);

/// True when the calling thread currently has a tracker bound.
inline bool
alloc_tracking_bound()
{
    return detail::t_alloc_binding.tracker != nullptr;
}

/// RAII call-site tag: allocations on this thread between construction
/// and destruction land in \p site's bucket (in addition to the active
/// phase's). Nests by save/restore. No-op overhead when unbound: two
/// thread-local int writes, no atomics, no branches on the alloc path.
class ScopedAllocSite {
  public:
    explicit ScopedAllocSite(AllocSite site)
        : saved_(detail::t_alloc_binding.site)
    {
        detail::t_alloc_binding.site = static_cast<int>(site);
    }

    ~ScopedAllocSite() { detail::t_alloc_binding.site = saved_; }

    ScopedAllocSite(const ScopedAllocSite&) = delete;
    ScopedAllocSite& operator=(const ScopedAllocSite&) = delete;

  private:
    int saved_;
};

}  // namespace transform::obs
