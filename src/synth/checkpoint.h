/// \file
/// Crash-safe checkpoint journal for synthesis runs (docs/robustness.md,
/// "Checkpoint/resume").
///
/// `elt_synth --checkpoint <path>` journals every *completed* shard-search
/// task that visited at least one candidate: per target axiom of its pass,
/// the suite counters and synthesized tests (witnesses serialized through
/// the exact-round-trip XML form). `--resume` replays journaled tasks
/// instead of re-searching them; tasks missing from the journal (in flight
/// when the process died, quarantined, or empty) are searched normally —
/// an empty shard costs nothing to enumerate again. Because the shard task
/// list and the min-ticket merge are pure functions of the options, the
/// resumed suite is byte-identical to an uninterrupted run — proven by the
/// kill-mid-run test in tests/fault_test.cpp.
///
/// Durability: the header is written to a temp file, fsync'ed, and
/// atomically renamed into place; each record append is length-and-
/// checksum framed and fsync'ed, so a crash can at worst truncate the
/// final record — resume() drops any malformed tail and the affected
/// shard is simply re-searched.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "synth/engine.h"

namespace transform::synth {

/// One run's append-only journal of completed shard tasks. Thread-safe:
/// append() serializes under a mutex; find() reads the immutable
/// load-time index (appends never touch it). One journal serves every
/// pass of a run — the task id includes the pass's target set.
class CheckpointJournal {
  public:
    /// One target axiom's share of a completed task: its suite counters
    /// and the accepted tests with their merge tickets.
    struct TargetRecord {
        std::string axiom;
        std::uint64_t programs = 0;
        std::uint64_t executions = 0;
        std::vector<std::pair<SynthesizedTest, std::uint64_t>> tests;
    };

    /// A completed shard-search task, exactly as the engine executed it.
    struct ShardRecord {
        std::uint64_t task_id = 0;
        /// One entry per target of the task's pass, in axiom order.
        std::vector<TargetRecord> targets;
    };

    ~CheckpointJournal();
    CheckpointJournal(const CheckpointJournal&) = delete;
    CheckpointJournal& operator=(const CheckpointJournal&) = delete;

    /// Starts a fresh journal at \p path, overwriting any previous one.
    /// \p fingerprint identifies the run configuration (model, bounds,
    /// backend — anything that changes the task tree or the suites);
    /// resume() refuses a journal whose fingerprint differs. Returns
    /// nullptr and fills \p error on I/O failure.
    static std::unique_ptr<CheckpointJournal> create(
        const std::string& path, const std::string& fingerprint,
        std::string* error);

    /// Opens an existing journal for resume: verifies the format version
    /// (a journal of another version is refused with a message naming it)
    /// and the fingerprint, loads every intact record (a truncated or corrupt tail is dropped
    /// and the file truncated back to the last good record), and reopens
    /// for appending. Returns nullptr and fills \p error when the file is
    /// missing, unreadable, or was written by a different configuration.
    static std::unique_ptr<CheckpointJournal> resume(
        const std::string& path, const std::string& fingerprint,
        std::string* error);

    /// The loaded record for \p task_id, or nullptr. Only records loaded
    /// by resume() are visible — same-run appends are never re-queried.
    const ShardRecord* find(std::uint64_t task_id) const;

    /// Durably appends one completed-task record (fsync before return).
    void append(const ShardRecord& record);

    /// Records loaded by resume() (0 for a fresh journal).
    std::size_t loaded() const;

  private:
    CheckpointJournal();
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Stable identity of one shard task within a run: a hash of the pass's
/// target set (its '+'-joined axiom names, in axiom order), the shard's
/// event bound and prefix, and the task's first ticket. Stable across
/// processes, scheduling and worker counts (the task list is a pure
/// function of the options), which is what lets --resume match journaled
/// records to the tasks it re-creates.
std::uint64_t checkpoint_task_id(const std::string& targets,
                                 const SkeletonShard& shard,
                                 std::uint64_t ticket_base);

}  // namespace transform::synth
