/// \file
/// The thread pool of the parallel synthesis runtime (see
/// docs/scheduler.md and DESIGN.md, "Parallel synthesis runtime").
///
/// One mutex guards one queue of jobs and the pool's counters; worker
/// threads start once and block on a condition variable until there is
/// work. A run dispatches some thousands of shard jobs that each run for
/// far longer than a lock round trip, so the lock costs nothing
/// measurable. A running job may submit follow-up jobs — the synthesis
/// engine's fault retries do. Those jobs go to the front of the queue, so
/// a retried shard runs next, in submission order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace transform::obs {
class TraceCollector;
}

namespace transform::sched {

/// Aggregate counters for a pool (the scheduler analogue of
/// sat::SolverStats). The pool fills the scheduling fields; the
/// synthesis engine adds the dedup / robustness fields before surfacing
/// the struct through SuiteResult and `elt_synth --stats`.
struct SchedulerStats {
    int workers = 0;                 ///< worker threads in the pool
    std::uint64_t jobs_run = 0;      ///< jobs executed
    /// Jobs that ran on a different worker than the job that submitted
    /// them (jobs submitted from outside the pool never count).
    std::uint64_t steals = 0;
    /// Distinct candidates whose accepted tests the engine's merge dropped
    /// as isomorphic to an earlier candidate's.
    std::uint64_t dedup_hits = 0;
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
    /// Always zero: a synthesis call runs one pass on a pool of its own,
    /// so no pass waits in a queue behind another (the wait was measured
    /// while the SAT backend ran one pass per axiom on a shared pool), and
    /// the engine shards each pass statically and never re-splits a
    /// shard. They stay declared only because the benchmark runner
    /// (perfbench/src/runner.cpp) prints them, and the benchmark changes
    /// in a change of its own; delete them with it (ROADMAP item 1).
    double queue_wait_seconds = 0.0;
    std::uint64_t lazy_resplits = 0;
    std::uint64_t closed_prefix_splits = 0;
    std::uint64_t skip_enumerations = 0;
    std::uint64_t observed_cost_resplits = 0;
    std::uint64_t resplit_threshold_min = 0;
    std::uint64_t resplit_threshold_max = 0;

    /// Accumulates another pass's counters (the all-axiom aggregate of
    /// `elt_synth --stats`); `workers` and `queue_wait_seconds`, which
    /// overlap across passes rather than add, take the maximum.
    void merge(const SchedulerStats& other);
};

/// Resolves a user-facing jobs knob: any non-positive value means "one
/// worker per hardware thread".
int resolve_jobs(int jobs);

/// A persistent thread pool with one locked job queue.
///
/// Queue order: jobs submitted from outside the pool go to the back; jobs
/// submitted from inside a running job go to the front, as one batch in
/// submission order. Suites never depend on the order (merge tickets
/// decide them); it only makes a retried shard run next.
///
/// Thread-safety contract: submit/wait/stats are safe from any thread;
/// submit is also safe from inside a running job. The destructor joins the
/// workers; wait() for every submitted job before the pool is destroyed.
class ThreadPool {
  public:
    /// A job receives the index of the worker executing it (in
    /// [0, workers())); useful for worker-local accumulation.
    using Job = std::function<void(int worker)>;

    /// Starts \p workers persistent worker threads (resolved via
    /// resolve_jobs; 0 = one per hardware thread).
    explicit ThreadPool(int workers);

    /// Joins the workers. Undefined while jobs are pending — wait()
    /// first.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Submits one job. Thread-safe. A job submitted from inside a running
    /// job is counted before the submitting job finishes, so wait() cannot
    /// observe the pool idle early.
    void submit(Job job);

    /// Submits a batch of jobs under one lock acquisition; from inside a
    /// running job the batch keeps its order at the front of the queue.
    /// Same semantics as the single-job overload otherwise.
    void submit(std::vector<Job> jobs);

    /// Blocks until every job submitted so far — including jobs spawned
    /// by running jobs — has finished. Must not be called from inside a
    /// job (a worker waiting on its own pool can deadlock). Returns
    /// immediately when nothing is pending.
    void wait();

    /// Worker count the pool was built with.
    int workers() const;

    /// Attaches (or detaches, nullptr) a span collector: every job
    /// executed afterwards is recorded as a complete "job" span on the
    /// executing worker's trace lane, so gaps between job spans expose
    /// dispatch overhead in the timeline. The collector must outlive the
    /// pool or be detached first; when none is attached the cost is one
    /// relaxed load per job.
    void set_trace(obs::TraceCollector* trace);

    /// The pool's counters since construction. The pool fills only
    /// `workers`, `jobs_run`, `steals`, and `job_faults`; the engine-owned
    /// fields — `dedup_hits`, `shard_retries`, `shards_quarantined`, and
    /// the checkpoint counters — stay 0 here and are filled by the
    /// synthesis engine into SuiteResult::scheduler. Thread-safe; settled
    /// once wait() has returned.
    SchedulerStats stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace transform::sched
