/// \file
/// The thread pool of the parallel synthesis runtime (see
/// docs/scheduler.md and DESIGN.md, "Parallel synthesis runtime").
///
/// One mutex guards one queue of jobs and the counters of every job group;
/// worker threads start once and block on a condition variable until there
/// is work. A run dispatches some thousands of shard jobs that each run
/// for far longer than a lock round trip, so the lock costs nothing
/// measurable. A running job may submit follow-up jobs into its own group
/// — the synthesis engine's fault retries do. Those jobs go to the front
/// of the queue, so they run next, in submission order, and the passes
/// sharing a pool (one per axiom on the SAT backend) stay contiguous
/// instead of interleaving.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace transform::obs {
class TraceCollector;
}

namespace transform::sched {

/// Aggregate counters for a job group (the scheduler analogue of
/// sat::SolverStats). The pool fills the scheduling fields; the
/// synthesis engine adds the dedup / queue-wait / robustness fields before
/// surfacing the struct through SuiteResult and `elt_synth --stats`.
struct SchedulerStats {
    int workers = 0;                 ///< worker threads in the pool
    std::uint64_t jobs_run = 0;      ///< jobs executed
    /// Jobs that ran on a different worker than the job that submitted
    /// them (jobs submitted from outside the pool never count).
    std::uint64_t steals = 0;
    /// Distinct candidates whose accepted tests the engine's merge dropped
    /// as isomorphic to an earlier candidate's.
    std::uint64_t dedup_hits = 0;
    /// Wall time a suite's jobs spent queued on a shared pool before the
    /// first one ran (its deadline armed); excluded from
    /// SuiteResult::seconds (engine).
    double queue_wait_seconds = 0.0;
    /// Jobs whose closure escaped with an exception and were contained by
    /// the pool's job-boundary backstop. The synthesis engine catches and
    /// retries its own shard faults before they reach the pool, so a
    /// nonzero count here means a fault outside the engine's guarded
    /// region (pool).
    std::uint64_t job_faults = 0;
    /// Fault containment (engine, docs/robustness.md): shard jobs
    /// re-enqueued after a contained fault, and shard jobs quarantined
    /// once the retry budget ran out (their structured errors are in
    /// SuiteResult::failures).
    std::uint64_t shard_retries = 0;
    std::uint64_t shards_quarantined = 0;
    /// Checkpointing (engine): completed shard records appended to the
    /// `--checkpoint` journal, and shards replayed from it on `--resume`
    /// instead of re-searched.
    std::uint64_t checkpoint_shards_saved = 0;
    std::uint64_t checkpoint_shards_replayed = 0;
    /// Always zero: the engine shards each pass statically and never
    /// re-splits a shard, so nothing counts these. They stay declared only
    /// because the benchmark runner (perfbench/src/runner.cpp) prints them,
    /// and the benchmark changes in a change of its own; delete them with
    /// it (ROADMAP item 1).
    std::uint64_t lazy_resplits = 0;
    std::uint64_t closed_prefix_splits = 0;
    std::uint64_t skip_enumerations = 0;
    std::uint64_t observed_cost_resplits = 0;
    std::uint64_t resplit_threshold_min = 0;
    std::uint64_t resplit_threshold_max = 0;

    /// Accumulates another group's counters (per-suite totals in
    /// synthesize_all; `workers` and `queue_wait_seconds` — which overlap
    /// across groups rather than add — take the maximum).
    void merge(const SchedulerStats& other);
};

/// Resolves a user-facing jobs knob: any non-positive value means "one
/// worker per hardware thread".
int resolve_jobs(int jobs);

/// A persistent thread pool with one locked job queue.
///
/// Work is organized in *job groups*: a group is a wait-able set of jobs.
/// One synthesis pass submits one group; the SAT backend's multi-axiom
/// calls submit one pass per axiom to a single pool. Jobs of different
/// groups share the workers, and each group carries its own counters so a
/// pass's stats stay attributable on a shared pool.
///
/// Queue order: jobs submitted from outside the pool go to the back; jobs
/// submitted from inside a running job go to the front, as one batch in
/// submission order. Suites never depend on the order (merge tickets
/// decide them); it only keeps each pass's work together.
///
/// Thread-safety contract: make_group/submit/wait/group_stats are safe
/// from any thread; submit is also safe from inside a running job. The
/// destructor joins the workers; every group must be wait()ed before the
/// pool is destroyed.
class ThreadPool {
  public:
    /// A job receives the index of the worker executing it (in
    /// [0, workers())); useful for worker-local accumulation.
    using Job = std::function<void(int worker)>;

    /// A wait-able set of jobs. Opaque: created by make_group(), passed
    /// back to submit()/wait()/group_stats().
    class JobGroup;

    /// Shared ownership so the engine can capture the handle in job
    /// closures that outlive the submitting scope.
    using GroupHandle = std::shared_ptr<JobGroup>;

    /// Starts \p workers persistent worker threads (resolved via
    /// resolve_jobs; 0 = one per hardware thread).
    explicit ThreadPool(int workers);

    /// Joins the workers. Undefined if a group still has pending jobs —
    /// wait() for every submitted group first.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Creates an empty job group. Thread-safe.
    GroupHandle make_group();

    /// Submits one job to \p group. Thread-safe. A job submitted from
    /// inside a job of the same group is counted before the submitting job
    /// finishes, so wait() cannot observe the group complete early.
    void submit(const GroupHandle& group, Job job);

    /// Submits a batch of jobs to \p group under one lock acquisition;
    /// from inside a running job the batch keeps its order at the front of
    /// the queue. Same semantics as the single-job overload otherwise.
    void submit(const GroupHandle& group, std::vector<Job> jobs);

    /// Blocks until every job submitted to \p group — including jobs
    /// spawned by the group's own jobs — has finished. Must not be called
    /// from inside a job (a worker waiting on its own pool can deadlock).
    /// Returns immediately for a group with no jobs.
    void wait(const GroupHandle& group);

    /// Convenience for one-shot callers (elt_check, tests):
    /// make_group() + submit() + wait().
    void run_batch(std::vector<Job> jobs);

    /// Worker count the pool was built with.
    int workers() const;

    /// Attaches (or detaches, nullptr) a span collector: every job
    /// executed afterwards is recorded as a complete "job" span on the
    /// executing worker's trace lane, so gaps between job spans expose
    /// dispatch overhead in the timeline. The collector must outlive the
    /// pool or be detached first; when none is attached the cost is one
    /// relaxed load per job.
    void set_trace(obs::TraceCollector* trace);

    /// Counters attributed to one group. The pool fills only `workers`,
    /// `jobs_run`, `steals`, and `job_faults`; the engine-owned fields —
    /// `dedup_hits`, `queue_wait_seconds`, `shard_retries`,
    /// `shards_quarantined`, and the checkpoint counters — stay 0 here and
    /// are filled by the synthesis engine into SuiteResult::scheduler.
    /// Thread-safe; settled once wait(group) has returned.
    SchedulerStats group_stats(const GroupHandle& group) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace transform::sched
