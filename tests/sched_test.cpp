/// \file
/// Tests for the parallel synthesis runtime: the thread pool (in-job
/// spawning, queue order, reuse across batches, its counters), the sharded
/// canonical-key index, and the engine-level determinism contract — a
/// multi-threaded synthesize_suite run yields the exact same canonical
/// suite (keys, order, witnesses) as jobs=1, on both backends, at every
/// shard depth, the default static rule included, whose job list does not
/// depend on the worker count. This binary also runs under
/// ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "elt/serialize.h"
#include "mtm/model.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "sched/sharded_index.h"
#include "spec/registry.h"
#include "synth/engine.h"

namespace transform {
namespace {

TEST(ResolveJobs, ZeroMeansHardwareConcurrency)
{
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(sched::resolve_jobs(0), hw == 0 ? 1 : static_cast<int>(hw));
    EXPECT_EQ(sched::resolve_jobs(1), 1);
    EXPECT_EQ(sched::resolve_jobs(7), 7);
    EXPECT_EQ(sched::resolve_jobs(-3), sched::resolve_jobs(0));
}

TEST(ThreadPool, RunsEveryJobExactlyOnce)
{
    for (const int workers : {1, 2, 4, 8}) {
        sched::ThreadPool pool(workers);
        EXPECT_EQ(pool.workers(), workers);
        constexpr int kJobs = 500;
        std::vector<std::atomic<int>> runs(kJobs);
        std::vector<sched::ThreadPool::Job> jobs;
        for (int i = 0; i < kJobs; ++i) {
            jobs.push_back([&runs, i, workers](int worker) {
                EXPECT_GE(worker, 0);
                EXPECT_LT(worker, workers);
                runs[static_cast<std::size_t>(i)].fetch_add(1);
            });
        }
        pool.submit(std::move(jobs));
        pool.wait();
        for (int i = 0; i < kJobs; ++i) {
            EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << i;
        }
        const sched::SchedulerStats stats = pool.stats();
        EXPECT_EQ(stats.workers, workers);
        EXPECT_EQ(stats.jobs_run, static_cast<std::uint64_t>(kJobs));
        // Jobs submitted from outside the pool never count as steals.
        EXPECT_EQ(stats.steals, 0u);
    }
}

TEST(ThreadPool, EmptyBatchIsANoOp)
{
    sched::ThreadPool pool(4);
    pool.submit(std::vector<sched::ThreadPool::Job>{});
    pool.wait();
    EXPECT_EQ(pool.stats().jobs_run, 0u);
}

TEST(ThreadPool, UnevenJobsAllComplete)
{
    // A few heavy jobs among many light ones: completion on every worker
    // count is the contract, not which worker ran what.
    sched::ThreadPool pool(4);
    std::atomic<std::uint64_t> total{0};
    std::vector<sched::ThreadPool::Job> jobs;
    for (int i = 0; i < 64; ++i) {
        jobs.push_back([&total, i](int) {
            std::uint64_t spins = (i % 16 == 0) ? 200000 : 100;
            volatile std::uint64_t sink = 0;
            for (std::uint64_t s = 0; s < spins; ++s) {
                sink = sink + s;
            }
            total.fetch_add(1);
        });
    }
    pool.submit(std::move(jobs));
    pool.wait();
    EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPool, PersistsAcrossBatches)
{
    // Workers block between batches and serve any number of them; the
    // counters accumulate over the pool's lifetime.
    sched::ThreadPool pool(2);
    std::atomic<int> total{0};
    for (int batch = 0; batch < 5; ++batch) {
        std::vector<sched::ThreadPool::Job> jobs;
        for (int i = 0; i < 20; ++i) {
            jobs.push_back([&total](int) { total.fetch_add(1); });
        }
        pool.submit(std::move(jobs));
        pool.wait();
        EXPECT_EQ(total.load(), 20 * (batch + 1));
        EXPECT_EQ(pool.stats().jobs_run,
                  static_cast<std::uint64_t>(20 * (batch + 1)));
    }
}

TEST(ThreadPool, JobsCanSpawnJobs)
{
    // The mechanism behind the engine's fault retries: a job submits
    // follow-up jobs, and wait() only returns once the whole spawn tree
    // has drained.
    sched::ThreadPool pool(3);
    std::atomic<int> leaves{0};
    std::function<void(int, int)> fan_out = [&](int depth, int) {
        if (depth == 0) {
            leaves.fetch_add(1);
            return;
        }
        for (int c = 0; c < 3; ++c) {
            pool.submit([&fan_out, depth](int worker) {
                fan_out(depth - 1, worker);
            });
        }
    };
    pool.submit([&fan_out](int worker) { fan_out(3, worker); });
    pool.wait();
    EXPECT_EQ(leaves.load(), 27);  // 3^3 leaves
    const sched::SchedulerStats stats = pool.stats();
    EXPECT_EQ(stats.jobs_run, 1u + 3u + 9u + 27u);
    EXPECT_LE(stats.steals, stats.jobs_run);
}

TEST(ThreadPool, JobsSubmittedFromAJobRunNextInSubmissionOrder)
{
    // One worker makes the order observable. While the parent job runs,
    // two external jobs queue behind it; the parent then submits a batch
    // of children, which must run before the external jobs, in submission
    // order (how a shard's fault retry runs next, before the shards
    // queued behind it).
    sched::ThreadPool pool(1);
    std::vector<std::string> order;  // only the one worker writes it
    const auto note = [&order](std::string name) {
        return [&order, name](int) { order.push_back(name); };
    };
    std::atomic<bool> externals_queued{false};
    pool.submit([&](int) {
        while (!externals_queued.load()) {
            std::this_thread::yield();
        }
        std::vector<sched::ThreadPool::Job> children;
        for (const char* name : {"child0", "child1", "child2"}) {
            children.push_back(note(name));
        }
        pool.submit(std::move(children));
    });
    pool.submit(note("external0"));
    pool.submit(note("external1"));
    externals_queued.store(true);
    pool.wait();
    const std::vector<std::string> expected = {
        "child0", "child1", "child2", "external0", "external1"};
    EXPECT_EQ(order, expected);
    const sched::SchedulerStats stats = pool.stats();
    EXPECT_EQ(stats.jobs_run, 6u);
    EXPECT_EQ(stats.steals, 0u);  // one worker: nothing ran elsewhere
}

TEST(ThreadPool, WaitWithNothingPendingReturnsImmediately)
{
    sched::ThreadPool pool(2);
    pool.wait();
    EXPECT_EQ(pool.stats().jobs_run, 0u);
}

TEST(SchedStats, MergeSumsCountersAndMaxesOverlappingFields)
{
    sched::SchedulerStats a;
    a.workers = 2;
    a.jobs_run = 10;
    a.steals = 3;
    a.dedup_hits = 7;
    a.queue_wait_seconds = 0.5;
    sched::SchedulerStats b;
    b.workers = 4;
    b.jobs_run = 5;
    b.steals = 2;
    b.dedup_hits = 1;
    b.queue_wait_seconds = 0.25;
    a.merge(b);
    EXPECT_EQ(a.workers, 4);  // same-pool maximum, not a sum
    EXPECT_EQ(a.jobs_run, 15u);
    EXPECT_EQ(a.steals, 5u);
    EXPECT_EQ(a.dedup_hits, 8u);
    EXPECT_EQ(a.queue_wait_seconds, 0.5);  // waits overlap: maximum
}

TEST(ShardedKeyIndex, RecordKeepsMinimumTicket)
{
    sched::ShardedKeyIndex index(8);
    EXPECT_EQ(index.stripes(), 8);

    auto first = index.record("k", 42);
    EXPECT_TRUE(first.inserted);
    EXPECT_TRUE(first.is_min);
    EXPECT_EQ(first.min_ticket, 42u);

    auto higher = index.record("k", 99);
    EXPECT_FALSE(higher.inserted);
    EXPECT_FALSE(higher.is_min);
    EXPECT_EQ(higher.min_ticket, 42u);

    auto lower = index.record("k", 7);
    EXPECT_FALSE(lower.inserted);
    EXPECT_TRUE(lower.is_min);
    EXPECT_EQ(lower.min_ticket, 7u);

    EXPECT_EQ(index.min_ticket("k"), 7u);
    EXPECT_EQ(index.hits(), 2u);
    EXPECT_EQ(index.size(), 1u);
}

TEST(ShardedKeyIndex, ConcurrentRecordsConvergeToGlobalMinimum)
{
    sched::ShardedKeyIndex index(16);
    constexpr int kKeys = 50;
    constexpr int kThreads = 8;
    {
        std::vector<std::jthread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&index, t] {
                for (int k = 0; k < kKeys; ++k) {
                    index.record("key" + std::to_string(k),
                                 static_cast<std::uint64_t>(100 * k + t));
                }
            });
        }
    }
    EXPECT_EQ(index.size(), static_cast<std::size_t>(kKeys));
    EXPECT_EQ(index.hits(),
              static_cast<std::uint64_t>(kKeys * (kThreads - 1)));
    for (int k = 0; k < kKeys; ++k) {
        EXPECT_EQ(index.min_ticket("key" + std::to_string(k)),
                  static_cast<std::uint64_t>(100 * k));
    }
}

synth::SynthesisOptions
suite_options(int bound, int jobs, synth::Backend backend)
{
    synth::SynthesisOptions opt;
    opt.min_bound = 4;
    opt.bound = bound;
    opt.jobs = jobs;
    opt.backend = backend;
    return opt;
}

/// Serializes a suite to the parts the determinism contract covers: keys,
/// order, witnesses, sizes, violated lists (not counters or timing).
std::string
suite_fingerprint(const synth::SuiteResult& suite)
{
    std::string fp;
    for (const synth::SynthesizedTest& test : suite.tests) {
        fp += test.canonical_key;
        fp += '|';
        fp += std::to_string(test.size);
        for (const std::string& axiom : test.violated) {
            fp += ',';
            fp += axiom;
        }
        fp += '|';
        fp += elt::execution_to_xml(test.witness, "w");
        fp += '\n';
    }
    return fp;
}

TEST(SchedDeterminism, EnumerativeSuiteIdenticalAcrossJobCounts)
{
    const mtm::Model model = mtm::x86t_elt();
    for (const std::string axiom : {"sc_per_loc", "invlpg", "tlb_causality"}) {
        const synth::SuiteResult reference = synth::synthesize_suite(
            model, axiom, suite_options(5, 1, synth::Backend::kEnumerative));
        EXPECT_TRUE(reference.complete);
        EXPECT_FALSE(reference.tests.empty()) << axiom;
        for (const int jobs : {2, 4}) {
            const synth::SuiteResult parallel = synth::synthesize_suite(
                model, axiom,
                suite_options(5, jobs, synth::Backend::kEnumerative));
            EXPECT_EQ(suite_fingerprint(reference),
                      suite_fingerprint(parallel))
                << axiom << " with jobs=" << jobs;
        }
    }
}

TEST(SchedDeterminism, SatBackendSuiteIdenticalAcrossJobCounts)
{
    const mtm::Model model = mtm::x86t_elt();
    const synth::SuiteResult reference = synth::synthesize_suite(
        model, "invlpg", suite_options(4, 1, synth::Backend::kSat));
    EXPECT_FALSE(reference.tests.empty());
    const synth::SuiteResult parallel = synth::synthesize_suite(
        model, "invlpg", suite_options(4, 4, synth::Backend::kSat));
    EXPECT_EQ(suite_fingerprint(reference), suite_fingerprint(parallel));
}

TEST(SchedDeterminism, BackendsAgreeUnderParallelism)
{
    const mtm::Model model = mtm::x86t_elt();
    const synth::SuiteResult enumerative = synth::synthesize_suite(
        model, "invlpg", suite_options(4, 4, synth::Backend::kEnumerative));
    const synth::SuiteResult sat = synth::synthesize_suite(
        model, "invlpg", suite_options(4, 4, synth::Backend::kSat));
    std::set<std::string> enum_keys;
    std::set<std::string> sat_keys;
    for (const auto& t : enumerative.tests) {
        enum_keys.insert(t.canonical_key);
    }
    for (const auto& t : sat.tests) {
        sat_keys.insert(t.canonical_key);
    }
    EXPECT_EQ(enum_keys, sat_keys);
}

TEST(SchedDeterminism, SuiteIsSortedByCanonicalKey)
{
    const mtm::Model model = mtm::x86t_elt();
    const synth::SuiteResult suite = synth::synthesize_suite(
        model, "sc_per_loc",
        suite_options(5, 4, synth::Backend::kEnumerative));
    for (std::size_t i = 1; i < suite.tests.size(); ++i) {
        EXPECT_LT(suite.tests[i - 1].canonical_key,
                  suite.tests[i].canonical_key);
    }
}

TEST(SchedDeterminism, HardwareConcurrencyJobsProducesSameSuite)
{
    const mtm::Model model = mtm::x86t_elt();
    const synth::SuiteResult reference = synth::synthesize_suite(
        model, "rmw_atomicity",
        suite_options(5, 1, synth::Backend::kEnumerative));
    const synth::SuiteResult parallel = synth::synthesize_suite(
        model, "rmw_atomicity",
        suite_options(5, 0, synth::Backend::kEnumerative));
    EXPECT_EQ(suite_fingerprint(reference), suite_fingerprint(parallel));
    EXPECT_EQ(parallel.scheduler.workers, sched::resolve_jobs(0));
}

TEST(SchedDeterminism, ObservabilityOnIsByteIdenticalAtEveryShardDepth)
{
    // The observability layer (metrics + trace) must be purely
    // observational: same fingerprint as the uninstrumented jobs=1 run at
    // every shard depth, the default included. tests/obs_test.cpp sweeps the
    // jobs axis; this covers the shard-depth axis.
    const mtm::Model model = mtm::x86t_elt();
    const synth::SuiteResult reference = synth::synthesize_suite(
        model, "invlpg", suite_options(5, 1, synth::Backend::kEnumerative));
    for (const int depth : {0, 1, 2}) {
        synth::SynthesisOptions options =
            suite_options(5, 4, synth::Backend::kEnumerative);
        options.shard_depth = depth;
        options.collect_metrics = true;
        obs::TraceCollector trace(4);
        options.trace = &trace;
        const synth::SuiteResult observed =
            synth::synthesize_suite(model, "invlpg", options);
        EXPECT_EQ(suite_fingerprint(reference), suite_fingerprint(observed))
            << "shard_depth=" << depth;
    }
}

TEST(SchedStats, CountersAreFilledAndJobsIndependent)
{
    const mtm::Model model = mtm::x86t_elt();
    const synth::SuiteResult one = synth::synthesize_suite(
        model, "invlpg", suite_options(5, 1, synth::Backend::kEnumerative));
    const synth::SuiteResult four = synth::synthesize_suite(
        model, "invlpg", suite_options(5, 4, synth::Backend::kEnumerative));
    EXPECT_EQ(one.scheduler.workers, 1);
    EXPECT_EQ(four.scheduler.workers, 4);
    EXPECT_GT(one.scheduler.jobs_run, 0u);
    EXPECT_EQ(one.scheduler.jobs_run, four.scheduler.jobs_run)
        << "the shard list must not depend on the worker count";
    // Candidate enumeration is shard-local, so the programs counter is a
    // pure function of the options.
    EXPECT_EQ(one.programs_considered, four.programs_considered);
}

TEST(AdaptiveSharding, FixedDepthsAndAdaptiveProduceIdenticalSuites)
{
    const mtm::Model model = mtm::x86t_elt();
    synth::SynthesisOptions by_default =
        suite_options(5, 2, synth::Backend::kEnumerative);
    by_default.shard_depth = 0;
    const std::string reference = suite_fingerprint(
        synth::synthesize_suite(model, "sc_per_loc", by_default));
    EXPECT_FALSE(reference.empty());
    for (const int depth : {1, 2, 3}) {
        synth::SynthesisOptions fixed = by_default;
        fixed.shard_depth = depth;
        EXPECT_EQ(reference,
                  suite_fingerprint(
                      synth::synthesize_suite(model, "sc_per_loc", fixed)))
            << "shard_depth=" << depth;
    }
}

TEST(AdaptiveSharding, SuiteMatrixMatchesEagerProbeFixture)
{
    // The byte-identical-suite contract across the full sweep matrix. The
    // fixture expectation is the jobs=1 / shard-depth=1 run: a single
    // worker searching the fixed depth-1 shards in submission order
    // performs exactly the sequential enumeration the eager-probe engine
    // (and the paper's serial loop) performed, so its suite is that
    // engine's fixture. The default depth (0) and every fixed depth must
    // reproduce it at every worker count.
    const mtm::Model model = mtm::x86t_elt();
    for (const std::string axiom : {"sc_per_loc", "invlpg"}) {
        synth::SynthesisOptions fixture =
            suite_options(5, 1, synth::Backend::kEnumerative);
        fixture.shard_depth = 1;
        const synth::SuiteResult reference =
            synth::synthesize_suite(model, axiom, fixture);
        EXPECT_TRUE(reference.complete);
        EXPECT_FALSE(reference.tests.empty()) << axiom;
        for (const int jobs : {1, 2, 4}) {
            for (const int depth : {0, 1, 3}) {
                synth::SynthesisOptions opt = fixture;
                opt.jobs = jobs;
                opt.shard_depth = depth;
                const synth::SuiteResult swept =
                    synth::synthesize_suite(model, axiom, opt);
                EXPECT_EQ(suite_fingerprint(reference),
                          suite_fingerprint(swept))
                    << axiom << " jobs=" << jobs << " depth=" << depth;
                // Every candidate is searched exactly once whatever the
                // partition, so the programs counter matches the
                // sequential fixture.
                EXPECT_EQ(reference.programs_considered,
                          swept.programs_considered)
                    << axiom << " jobs=" << jobs << " depth=" << depth;
            }
        }
    }
}

TEST(AdaptiveSharding, SharedPoolSweepMatchesSerialDriver)
{
    // synthesize_all_parallel searches every axiom in ONE pass on one pool;
    // the result must be indistinguishable from the serial per-axiom
    // synthesize_all.
    const mtm::Model model = mtm::x86t_elt();
    const synth::SynthesisOptions opt =
        suite_options(5, 4, synth::Backend::kEnumerative);
    const auto serial = synth::synthesize_all(model, opt);
    const auto shared = synth::synthesize_all_parallel(model, opt);
    ASSERT_EQ(serial.size(), shared.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].axiom, shared[i].axiom);
        EXPECT_EQ(suite_fingerprint(serial[i]), suite_fingerprint(shared[i]))
            << serial[i].axiom;
    }
}

/// Jobs run by a synthesis call: every pass's count, once each.
std::uint64_t
total_jobs_run(const std::vector<synth::SuiteResult>& suites)
{
    std::uint64_t jobs = 0;
    for (const synth::SuiteResult& suite : suites) {
        jobs += suite.scheduler.jobs_run;
    }
    return jobs;
}

/// suite_fingerprint over every suite of a call, with axiom names.
std::string
call_fingerprint(const std::vector<synth::SuiteResult>& suites)
{
    std::string fp;
    for (const synth::SuiteResult& suite : suites) {
        fp += "== " + suite.axiom + '\n' + suite_fingerprint(suite);
    }
    return fp;
}

TEST(Sharding, DefaultJobTreeIsAFunctionOfTheOptions)
{
    // The default depth is a pure function of each pass's skeleton
    // options, never of the worker count: the job list — jobs_run, and
    // with it every checkpoint task id — is the same at every jobs value
    // and equals the list of the fixed depth the rule picks, and the
    // suites equal those of every fixed depth.
    for (const std::string name : {"x86t_elt", "x86tso.mtm"}) {
        std::string error;
        const std::optional<spec::ResolvedModel> resolved =
            spec::resolve_model(name, &error);
        ASSERT_TRUE(resolved.has_value()) << error;
        const mtm::Model& model = resolved->model;
        const mtm::AxiomMask every =
            (mtm::AxiomMask{1} << model.axioms().size()) - 1;
        for (const synth::Backend backend :
             {synth::Backend::kEnumerative, synth::Backend::kSat}) {
            const std::string label =
                name + (backend == synth::Backend::kSat ? " sat" : " enum");
            synth::SynthesisOptions opt = suite_options(5, 1, backend);
            opt.min_bound = model.vm_aware() ? 4 : 2;
            const auto reference = synth::synthesize_all_parallel(model, opt);
            const std::string fp = call_fingerprint(reference);
            const std::uint64_t jobs_run = total_jobs_run(reference);
            EXPECT_GT(jobs_run, 0u) << label;
            for (const int jobs : {2, 4}) {
                synth::SynthesisOptions parallel = opt;
                parallel.jobs = jobs;
                const auto suites =
                    synth::synthesize_all_parallel(model, parallel);
                EXPECT_EQ(total_jobs_run(suites), jobs_run)
                    << label << " jobs=" << jobs;
                EXPECT_EQ(call_fingerprint(suites), fp)
                    << label << " jobs=" << jobs;
            }
            synth::SynthesisOptions picked = opt;
            picked.shard_depth = synth::pass_shard_depth(model, every, opt);
            EXPECT_EQ(total_jobs_run(
                          synth::synthesize_all_parallel(model, picked)),
                      jobs_run)
                << label << " depth=" << picked.shard_depth;
            for (int depth = 1; depth <= 5; ++depth) {
                synth::SynthesisOptions fixed = opt;
                fixed.jobs = 2;
                fixed.shard_depth = depth;
                EXPECT_EQ(call_fingerprint(
                              synth::synthesize_all_parallel(model, fixed)),
                          fp)
                    << label << " depth=" << depth;
            }
        }
    }
}

}  // namespace
}  // namespace transform
