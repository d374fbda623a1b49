#include "sched/scheduler.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace transform::sched {

void
SchedulerStats::merge(const SchedulerStats& other)
{
    workers = std::max(workers, other.workers);
    jobs_run += other.jobs_run;
    steals += other.steals;
    lazy_resplits += other.lazy_resplits;
    closed_prefix_splits += other.closed_prefix_splits;
    skip_enumerations += other.skip_enumerations;
    dedup_hits += other.dedup_hits;
    queue_wait_seconds = std::max(queue_wait_seconds,
                                  other.queue_wait_seconds);
    job_faults += other.job_faults;
    shard_retries += other.shard_retries;
    shards_quarantined += other.shards_quarantined;
    checkpoint_shards_saved += other.checkpoint_shards_saved;
    checkpoint_shards_replayed += other.checkpoint_shards_replayed;
    observed_cost_resplits += other.observed_cost_resplits;
    if (other.resplit_threshold_min > 0) {
        resplit_threshold_min =
            resplit_threshold_min == 0
                ? other.resplit_threshold_min
                : std::min(resplit_threshold_min,
                           other.resplit_threshold_min);
    }
    resplit_threshold_max =
        std::max(resplit_threshold_max, other.resplit_threshold_max);
}

int
resolve_jobs(int jobs)
{
    if (jobs > 0) {
        return jobs;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

/// A wait-able set of jobs with per-group counters, all guarded by the
/// pool's mutex. `pending` counts submitted-but-unfinished jobs; a job's
/// spawns increment it before the job's own decrement, so `pending == 0`
/// is only observable once the whole spawn tree has finished.
class ThreadPool::JobGroup {
  public:
    std::uint64_t pending = 0;
    std::uint64_t jobs_run = 0;
    std::uint64_t steals = 0;
    std::uint64_t job_faults = 0;
};

namespace {

/// One queued job: the closure, its group, and the worker whose job
/// submitted it (-1 = submitted from outside the pool).
struct QueuedJob {
    ThreadPool::Job fn;
    ThreadPool::GroupHandle group;
    int submitter = -1;
};

/// Runs \p fn behind the job-boundary fault backstop: a job closure that
/// throws must never unwind into the worker thread (the std::jthread body
/// would std::terminate the whole process). The synthesis engine catches
/// and retries its own shard faults before they reach this point; the
/// backstop contains everything else and reports it. Returns false when
/// the job escaped with an exception.
bool
run_contained(const ThreadPool::Job& fn, int worker)
{
    try {
        fn(worker);
        return true;
    } catch (const std::exception& e) {
        TF_LOG_WARN("scheduler: job raised uncontained exception: "
                    << e.what());
    } catch (...) {
        TF_LOG_WARN("scheduler: job raised uncontained non-std exception");
    }
    return false;
}

}  // namespace

struct ThreadPool::Impl {
    explicit Impl(int workers) : worker_count(workers)
    {
        threads.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w) {
            threads.emplace_back([this, w] { work(w); });
        }
    }

    ~Impl()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            stop = true;
        }
        work_cv.notify_all();
        threads.clear();  // std::jthread joins on destruction
    }

    /// Queues \p jobs for \p group: at the back from outside the pool, at
    /// the front (keeping their order) from inside a job running on it.
    void
    enqueue(const GroupHandle& group, std::vector<Job>& jobs)
    {
        TF_ASSERT(group != nullptr);
        if (jobs.empty()) {
            return;
        }
        const int submitter = tls_pool == this ? tls_worker : -1;
        {
            std::lock_guard<std::mutex> lock(mu);
            group->pending += jobs.size();
            if (submitter < 0) {
                for (Job& job : jobs) {
                    queue.push_back({std::move(job), group, submitter});
                }
            } else {
                for (auto job = jobs.rbegin(); job != jobs.rend(); ++job) {
                    queue.push_front({std::move(*job), group, submitter});
                }
            }
        }
        if (jobs.size() == 1) {
            work_cv.notify_one();
        } else {
            work_cv.notify_all();
        }
    }

    /// The worker loop: take the front job, run it outside the lock, then
    /// settle its group's counters; block while the queue is empty.
    void
    work(int self)
    {
        tls_pool = this;
        tls_worker = self;
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            work_cv.wait(lock, [this] { return stop || !queue.empty(); });
            if (stop) {
                return;
            }
            QueuedJob job = std::move(queue.front());
            queue.pop_front();
            lock.unlock();
            obs::TraceCollector* tc = trace.load(std::memory_order_relaxed);
            const std::uint64_t start = tc != nullptr ? obs::now_nanos() : 0;
            const bool ok = run_contained(job.fn, self);
            if (tc != nullptr) {
                tc->record_complete(self, "job", start, obs::now_nanos());
            }
            job.fn = nullptr;  // release the closure outside the lock
            lock.lock();
            JobGroup& group = *job.group;
            ++group.jobs_run;
            if (job.submitter >= 0 && job.submitter != self) {
                ++group.steals;
            }
            if (!ok) {
                ++group.job_faults;
            }
            if (--group.pending == 0) {
                done_cv.notify_all();
            }
        }
    }

    const int worker_count;
    std::mutex mu;  ///< guards queue, stop and every group's counters
    std::condition_variable work_cv;  ///< idle workers wait for jobs
    std::condition_variable done_cv;  ///< wait() callers wait for groups
    std::deque<QueuedJob> queue;
    bool stop = false;
    /// Optional span collector (set_trace); jobs are recorded as complete
    /// spans on the executing worker's lane.
    std::atomic<obs::TraceCollector*> trace{nullptr};
    std::vector<std::jthread> threads;  ///< last: joined before the rest dies

    /// The pool and worker index of the current thread, so submissions
    /// from inside a running job can go to the front of the queue.
    static thread_local const Impl* tls_pool;
    static thread_local int tls_worker;
};

thread_local const ThreadPool::Impl* ThreadPool::Impl::tls_pool = nullptr;
thread_local int ThreadPool::Impl::tls_worker = -1;

ThreadPool::ThreadPool(int workers)
    : impl_(std::make_unique<Impl>(resolve_jobs(workers)))
{
}

ThreadPool::~ThreadPool() = default;

ThreadPool::GroupHandle
ThreadPool::make_group()
{
    return std::make_shared<JobGroup>();
}

void
ThreadPool::submit(const GroupHandle& group, Job job)
{
    std::vector<Job> jobs;
    jobs.push_back(std::move(job));
    impl_->enqueue(group, jobs);
}

void
ThreadPool::submit(const GroupHandle& group, std::vector<Job> jobs)
{
    impl_->enqueue(group, jobs);
}

void
ThreadPool::wait(const GroupHandle& group)
{
    TF_ASSERT(group != nullptr);
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->done_cv.wait(lock, [&group] { return group->pending == 0; });
}

void
ThreadPool::run_batch(std::vector<Job> jobs)
{
    const GroupHandle group = make_group();
    submit(group, std::move(jobs));
    wait(group);
}

int
ThreadPool::workers() const
{
    return impl_->worker_count;
}

void
ThreadPool::set_trace(obs::TraceCollector* trace)
{
    impl_->trace.store(trace, std::memory_order_relaxed);
}

SchedulerStats
ThreadPool::group_stats(const GroupHandle& group) const
{
    TF_ASSERT(group != nullptr);
    SchedulerStats stats;
    stats.workers = workers();
    std::lock_guard<std::mutex> lock(impl_->mu);
    stats.jobs_run = group->jobs_run;
    stats.steals = group->steals;
    stats.job_faults = group->job_faults;
    return stats;
}

}  // namespace transform::sched
