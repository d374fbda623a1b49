/// \file
/// Sharded concurrent canonical-key index — formerly the deduplication
/// point of the parallel synthesis runtime. The engine no longer uses it:
/// it canonicalizes only accepted candidates and deduplicates at the merge
/// (DESIGN.md, "Deduplication at the merge"). The class stays because the
/// benchmark's replay program (perfbench/src/replay.cpp) still links
/// against it; ROADMAP item 1 deletes both together.
///
/// The index stripes the key space over N independently-locked hash maps
/// so concurrent record() calls only contend when their keys hash to the
/// same stripe. Each key stores the minimum *ticket* (global enumeration
/// position) seen so far; the returned claim says whether the caller holds
/// the current minimum.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace transform::sched {

/// A mutex-striped hash map from canonical key to minimum ticket.
///
/// Thread-safety contract: record() may be called from any number of
/// scheduler workers concurrently (each call locks only its key's stripe).
/// The read-side accessors (min_ticket, hits, size) are themselves
/// thread-safe but return settled values only after every writer has
/// finished — after ThreadPool::wait() on the pool whose jobs record.
class ShardedKeyIndex {
  public:
    /// Outcome of one record() call.
    struct Claim {
        bool inserted = false;   ///< the key was not in the index before
        bool is_min = false;     ///< this ticket is the minimum recorded yet
        std::uint64_t min_ticket = 0;  ///< minimum ticket after the call
    };

    /// Creates an index with \p stripes independently-locked shards
    /// (clamped to at least 1).
    explicit ShardedKeyIndex(int stripes = 64);
    ~ShardedKeyIndex();

    ShardedKeyIndex(const ShardedKeyIndex&) = delete;
    ShardedKeyIndex& operator=(const ShardedKeyIndex&) = delete;

    /// Records \p ticket for \p key, keeping the per-key minimum. Thread
    /// safe; locks only the key's stripe.
    Claim record(const std::string& key, std::uint64_t ticket);

    /// The minimum ticket recorded for \p key. Must only be called for
    /// recorded keys (the engine's merge step runs after all workers have
    /// finished recording).
    std::uint64_t min_ticket(const std::string& key) const;

    /// record() calls that found their key already present — the number of
    /// candidate programs rejected as duplicates of an earlier candidate.
    std::uint64_t hits() const;

    /// Distinct keys recorded.
    std::size_t size() const;

    /// Stripe count (exposed for tests).
    int stripes() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace transform::sched
