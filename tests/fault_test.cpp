/// \file
/// Tests for the fault-tolerant synthesis runtime (docs/robustness.md):
/// the deterministic fault-injection plan, the solver's persistent
/// conflict budget and interrupt hook, cooperative cancellation, the
/// fault matrix (injected faults at every site, across jobs counts and
/// shard depths, must leave the synthesized suite byte-identical after
/// retries), quarantine of deterministic faults, and the crash-safe
/// checkpoint journal — including a real SIGKILL mid-run followed by a
/// byte-identical resume.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "elt/serialize.h"
#include "mtm/model.h"
#include "sat/solver.h"
#include "sched/scheduler.h"
#include "synth/checkpoint.h"
#include "synth/engine.h"
#include "synth/skeleton.h"
#include "util/cancel.h"
#include "util/fault.h"

#if defined(__linux__)
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace transform {
namespace {

synth::SynthesisOptions
small_options(int min_bound, int bound)
{
    synth::SynthesisOptions opt;
    opt.min_bound = min_bound;
    opt.bound = bound;
    opt.max_threads = 2;
    opt.max_vas = 2;
    opt.max_fresh_pas = 1;
    return opt;
}

/// Byte-level identity of a suite: canonical keys, sizes, violated axiom
/// lists, and the exact witness XML (same comparator obs_test.cpp uses).
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

/// Byte-level identity of a pass: each suite's axiom and fingerprint.
std::string
pass_fingerprint(const std::vector<synth::SuiteResult>& suites)
{
    std::string fp;
    for (const synth::SuiteResult& suite : suites) {
        fp += "== " + suite.axiom + '\n' + suite_fingerprint(suite);
    }
    return fp;
}

/// The target sets the fault and checkpoint tests run: one axiom, and one
/// pass over every axiom of the model.
std::vector<mtm::AxiomMask>
target_sets(const mtm::Model& model)
{
    return {mtm::AxiomMask{1} << model.axiom_index("invlpg"),
            (mtm::AxiomMask{1} << model.axioms().size()) - 1};
}

/// Positions, in the engine's job order, of the shards of \p targets'
/// default-depth partition that hold at least one candidate — the shards
/// a checkpointed run journals.
std::vector<std::size_t>
non_empty_shards(const mtm::Model& model, mtm::AxiomMask targets,
                 const synth::SynthesisOptions& opt)
{
    const int depth = synth::pass_shard_depth(model, targets, opt);
    std::vector<std::size_t> positions;
    std::size_t position = 0;
    for (int size = opt.min_bound; size <= opt.bound; ++size) {
        for (const synth::SkeletonShard& shard :
             synth::partition_skeletons_at_depth(
                 synth::engine_skeleton_options(model, targets, opt, size),
                 depth)) {
            if (!synth::for_each_skeleton(
                    shard, [](const elt::Program&) { return false; })) {
                positions.push_back(position);
            }
            ++position;
        }
    }
    return positions;
}

std::string
temp_path(const std::string& name)
{
    return ::testing::TempDir() + "transform_fault_" + name;
}

sat::Lit
pos(sat::Var v)
{
    return sat::Lit(v, false);
}

sat::Lit
neg(sat::Var v)
{
    return sat::Lit(v, true);
}

/// Builds the classically hard UNSAT pigeonhole instance (holes + 1
/// pigeons into `holes` holes) into \p s.
void
add_pigeonhole(sat::Solver* s, int holes)
{
    const int pigeons = holes + 1;
    std::vector<std::vector<sat::Var>> in(pigeons,
                                          std::vector<sat::Var>(holes));
    for (auto& row : in) {
        for (auto& v : row) {
            v = s->new_var();
        }
    }
    for (int p = 0; p < pigeons; ++p) {
        sat::Clause clause;
        for (int h = 0; h < holes; ++h) {
            clause.push_back(pos(in[p][h]));
        }
        s->add_clause(clause);
    }
    for (int h = 0; h < holes; ++h) {
        for (int p1 = 0; p1 < pigeons; ++p1) {
            for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
                s->add_binary(neg(in[p1][h]), neg(in[p2][h]));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// FaultPlan: grammar and deterministic firing.

TEST(FaultPlan, ParsesFullSpec)
{
    util::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(util::FaultPlan::parse(
        "seed=7,site=sat_solve,kind=alloc,rate=64,mode=sticky,after=3",
        &plan, &error))
        << error;
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_EQ(plan.site, util::FaultSite::kSatSolve);
    EXPECT_EQ(plan.kind, util::FaultPlan::Kind::kBadAlloc);
    EXPECT_EQ(plan.rate, 64u);
    EXPECT_GT(plan.attempts, 1000);  // sticky = survives every retry
    EXPECT_EQ(plan.after, 3u);
}

TEST(FaultPlan, DefaultsAndTransientMode)
{
    util::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(util::FaultPlan::parse("site=judge", &plan, &error)) << error;
    EXPECT_EQ(plan.site, util::FaultSite::kJudge);
    EXPECT_EQ(plan.kind, util::FaultPlan::Kind::kThrow);
    EXPECT_EQ(plan.rate, 1u);
    EXPECT_EQ(plan.attempts, 1);  // transient is the default
    EXPECT_EQ(plan.after, 0u);
}

TEST(FaultPlan, RejectsBadSpecs)
{
    util::FaultPlan plan;
    std::string error;
    EXPECT_FALSE(util::FaultPlan::parse("bogus=1", &plan, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(util::FaultPlan::parse("site=nowhere", &plan, &error));
    EXPECT_FALSE(util::FaultPlan::parse("kind=sparkle", &plan, &error));
    EXPECT_FALSE(util::FaultPlan::parse("rate=0", &plan, &error));
    EXPECT_FALSE(util::FaultPlan::parse("mode=maybe", &plan, &error));
}

TEST(FaultPlan, FiringIsAPureFunctionOfSeedSiteKeyAttempt)
{
    util::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(util::FaultPlan::parse("seed=9,site=derive,rate=4", &plan,
                                       &error))
        << error;
    const auto fired_keys = [&plan](int attempt) {
        std::set<std::uint64_t> keys;
        for (std::uint64_t key = 0; key < 512; ++key) {
            try {
                plan.maybe_fire(util::FaultSite::kDerive, key, attempt);
            } catch (const util::InjectedFault&) {
                keys.insert(key);
            }
        }
        return keys;
    };
    const std::set<std::uint64_t> first = fired_keys(0);
    EXPECT_FALSE(first.empty());
    EXPECT_LT(first.size(), 512u);            // rate=4 selects a subset
    EXPECT_EQ(fired_keys(0), first);          // replay: same keys fire
    EXPECT_TRUE(fired_keys(1).empty());       // transient: retry succeeds
    // Probes at a different site never fire.
    for (std::uint64_t key = 0; key < 512; ++key) {
        EXPECT_NO_THROW(
            plan.maybe_fire(util::FaultSite::kJudge, key, 0));
    }
    EXPECT_EQ(plan.fired(), first.size() * 2);
}

TEST(FaultPlan, AllocKindThrowsBadAlloc)
{
    util::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(util::FaultPlan::parse("site=derive,kind=alloc,rate=1",
                                       &plan, &error))
        << error;
    EXPECT_THROW(plan.maybe_fire(util::FaultSite::kDerive, 0, 0),
                 std::bad_alloc);
}

TEST(FaultPlan, AfterSkipsTheFirstSelectedProbes)
{
    util::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(util::FaultPlan::parse("site=derive,rate=1,after=2", &plan,
                                       &error))
        << error;
    EXPECT_NO_THROW(plan.maybe_fire(util::FaultSite::kDerive, 0, 0));
    EXPECT_NO_THROW(plan.maybe_fire(util::FaultSite::kDerive, 1, 0));
    EXPECT_THROW(plan.maybe_fire(util::FaultSite::kDerive, 2, 0),
                 util::InjectedFault);
    EXPECT_EQ(plan.fired(), 1u);
}

// ---------------------------------------------------------------------------
// Solver: persistent conflict budget and interrupt hook.

TEST(SolverBudget, PersistentConflictBudgetAnswersUnknown)
{
    sat::Solver s;
    add_pigeonhole(&s, 8);
    s.set_conflict_budget(5);
    EXPECT_EQ(s.solve(), sat::SolveResult::kUnknown);
    EXPECT_EQ(s.unknown_cause(), sat::UnknownCause::kConflictBudget);
    // 0 restores the unlimited default and the instance is decidable again.
    s.set_conflict_budget(0);
    EXPECT_EQ(s.solve(), sat::SolveResult::kUnsat);
    EXPECT_EQ(s.unknown_cause(), sat::UnknownCause::kNone);
}

TEST(SolverBudget, InterruptHookStopsTheSearch)
{
    sat::Solver s;
    add_pigeonhole(&s, 9);  // needs far more than one poll interval
    s.set_interrupt([] { return true; });
    EXPECT_EQ(s.solve(), sat::SolveResult::kUnknown);
    EXPECT_EQ(s.unknown_cause(), sat::UnknownCause::kInterrupt);
}

// ---------------------------------------------------------------------------
// Pool backstop: a throwing job must not take the process down.

TEST(PoolFaults, ThrowingJobIsContainedAndCounted)
{
    sched::ThreadPool pool(2);
    pool.submit({[](int) { throw std::runtime_error("job boom"); },
                 [](int) { /* healthy sibling */ }});
    pool.wait();
    EXPECT_EQ(pool.stats().job_faults, 1u);
    EXPECT_EQ(pool.stats().jobs_run, 2u);
    // The pool stays serviceable afterwards, and healthy jobs add no
    // faults.
    std::atomic<int> ran{0};
    pool.submit({[&ran](int) { ran.fetch_add(1); },
                 [&ran](int) { ran.fetch_add(1); }});
    pool.wait();
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(pool.stats().job_faults, 1u);
    EXPECT_EQ(pool.stats().jobs_run, 4u);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation.

TEST(Cancellation, PreRequestedTokenYieldsEmptyCancelledSuite)
{
    const mtm::Model model = mtm::x86t_elt();
    util::CancelSource source;
    source.request();
    synth::SynthesisOptions opt = small_options(4, 4);
    opt.cancel = source.token();
    opt.jobs = 2;
    const auto called = std::chrono::steady_clock::now();
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "invlpg", opt);
    const std::chrono::duration<double> call =
        std::chrono::steady_clock::now() - called;
    EXPECT_TRUE(suite.cancelled);
    EXPECT_FALSE(suite.complete);
    EXPECT_TRUE(suite.tests.empty());
    // Every shard job returned before searching, and the pass's clock ran
    // from its launch inside the call until its jobs drained.
    EXPECT_EQ(suite.programs_considered, 0u);
    EXPECT_LE(suite.seconds, call.count());
}

TEST(Cancellation, MidRunRequestStopsWithinTheRun)
{
    const mtm::Model model = mtm::x86t_elt();
    util::CancelSource source;
    synth::SynthesisOptions opt = small_options(4, 7);
    opt.cancel = source.token();
    opt.jobs = 2;
    std::thread trigger([&source] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        source.request();
    });
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "sc_per_loc", opt);
    trigger.join();
    EXPECT_TRUE(suite.cancelled);
    EXPECT_FALSE(suite.complete);
}

// ---------------------------------------------------------------------------
// The fault matrix: a rate=1 transient fault at every site, across jobs
// counts and shard depths, must be absorbed by retries into a suite
// byte-identical to the fault-free baseline.

TEST(FaultMatrix, TransientFaultsPreserveTheSuiteAtEverySite)
{
    const mtm::Model model = mtm::x86t_elt();
    for (const mtm::AxiomMask targets : target_sets(model)) {
        const std::string baseline = pass_fingerprint(
            synth::synthesize_pass(model, targets, small_options(4, 4)));
        ASSERT_FALSE(baseline.empty());
        const char* sites[] = {"shard_boundary", "derive", "judge"};
        for (const char* site : sites) {
            for (const int jobs : {1, 2, 4}) {
                for (const int depth : {0, 2}) {
                    util::FaultPlan plan;
                    std::string error;
                    ASSERT_TRUE(util::FaultPlan::parse(
                        std::string("seed=7,site=") + site +
                            ",rate=1,mode=transient",
                        &plan, &error))
                        << error;
                    synth::SynthesisOptions opt = small_options(4, 4);
                    opt.jobs = jobs;
                    opt.shard_depth = depth;
                    opt.fault_plan = &plan;
                    const std::vector<synth::SuiteResult> suites =
                        synth::synthesize_pass(model, targets, opt);
                    const std::string label =
                        std::string(site) + " targets=" +
                        std::to_string(targets) +
                        " jobs=" + std::to_string(jobs) +
                        " depth=" + std::to_string(depth);
                    for (const synth::SuiteResult& suite : suites) {
                        EXPECT_TRUE(suite.complete) << label;
                        EXPECT_FALSE(suite.cancelled) << label;
                        EXPECT_TRUE(suite.failures.empty()) << label;
                    }
                    EXPECT_GT(plan.fired(), 0u) << label;
                    EXPECT_GT(suites.front().scheduler.shard_retries, 0u)
                        << label;
                    EXPECT_EQ(pass_fingerprint(suites), baseline) << label;
                }
            }
        }
    }
}

TEST(FaultMatrix, TransientSatSolveFaultPreservesTheSuite)
{
    // The SAT backend on one target and on every target. A sat_solve fault
    // fires before the candidate's first query; a derive fault fires inside
    // a probe session's enumeration, which the retry must not inherit:
    // recovery reconfigures every target's session of the worker.
    const mtm::Model model = mtm::x86t_elt();
    synth::SynthesisOptions base = small_options(4, 4);
    base.backend = synth::Backend::kSat;
    for (const mtm::AxiomMask targets : target_sets(model)) {
        const std::string baseline = pass_fingerprint(
            synth::synthesize_pass(model, targets, base));
        ASSERT_FALSE(baseline.empty());
        for (const char* site : {"sat_solve", "derive"}) {
            for (const int jobs : {1, 2}) {
                util::FaultPlan plan;
                std::string error;
                ASSERT_TRUE(util::FaultPlan::parse(
                    std::string("seed=7,site=") + site +
                        ",rate=1,mode=transient",
                    &plan, &error))
                    << error;
                synth::SynthesisOptions opt = base;
                opt.jobs = jobs;
                opt.fault_plan = &plan;
                const std::vector<synth::SuiteResult> suites =
                    synth::synthesize_pass(model, targets, opt);
                const std::string label =
                    std::string(site) + " targets=" +
                    std::to_string(targets) + " jobs=" +
                    std::to_string(jobs);
                for (const synth::SuiteResult& suite : suites) {
                    EXPECT_TRUE(suite.complete) << label;
                }
                EXPECT_GT(plan.fired(), 0u) << label;
                EXPECT_GT(suites.front().scheduler.shard_retries, 0u)
                    << label;
                EXPECT_EQ(pass_fingerprint(suites), baseline) << label;
            }
        }
    }
}

TEST(FaultMatrix, AllocationFaultIsContainedLikeAnyOther)
{
    const mtm::Model model = mtm::x86t_elt();
    const std::string baseline =
        suite_fingerprint(synth::synthesize_suite(model, "invlpg",
                                                  small_options(4, 4)));
    util::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(util::FaultPlan::parse(
        "seed=3,site=derive,kind=alloc,rate=1,mode=transient", &plan,
        &error))
        << error;
    synth::SynthesisOptions opt = small_options(4, 4);
    opt.jobs = 2;
    opt.fault_plan = &plan;
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "invlpg", opt);
    EXPECT_TRUE(suite.complete);
    EXPECT_GT(plan.fired(), 0u);
    EXPECT_EQ(suite_fingerprint(suite), baseline);
}

TEST(FaultMatrix, StickyFaultExhaustsRetriesAndQuarantines)
{
    const mtm::Model model = mtm::x86t_elt();
    util::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(util::FaultPlan::parse(
        "seed=5,site=derive,rate=1,mode=sticky", &plan, &error))
        << error;
    synth::SynthesisOptions opt = small_options(4, 4);
    opt.jobs = 2;
    opt.fault_plan = &plan;
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "invlpg", opt);
    EXPECT_FALSE(suite.complete);
    EXPECT_FALSE(suite.cancelled);
    ASSERT_FALSE(suite.failures.empty());
    EXPECT_EQ(suite.scheduler.shards_quarantined, suite.failures.size());
    for (const synth::ShardFailure& failure : suite.failures) {
        EXPECT_EQ(failure.attempts, opt.shard_retry_limit + 1);
        EXPECT_FALSE(failure.shard.empty());
        EXPECT_NE(failure.error.find("injected"), std::string::npos)
            << failure.error;
    }
}

TEST(FaultMatrix, ConflictBudgetExhaustionIsARetryableFault)
{
    const mtm::Model model = mtm::x86t_elt();
    synth::SynthesisOptions opt = small_options(4, 5);
    opt.backend = synth::Backend::kSat;
    opt.sat_conflict_budget = 1;  // deterministically too small
    opt.jobs = 1;
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "sc_per_loc", opt);
    EXPECT_FALSE(suite.complete);
    EXPECT_FALSE(suite.cancelled);
    ASSERT_FALSE(suite.failures.empty());
    EXPECT_GT(suite.scheduler.shards_quarantined, 0u);
    EXPECT_NE(suite.failures.front().error.find("budget"),
              std::string::npos)
        << suite.failures.front().error;
}

// ---------------------------------------------------------------------------
// Checkpoint/resume.

TEST(Checkpoint, ResumeReplaysJournaledShardsByteIdentically)
{
    const mtm::Model model = mtm::x86t_elt();
    for (const mtm::AxiomMask targets : target_sets(model)) {
        const std::string path = temp_path("roundtrip.journal");
        const std::string fingerprint = "fault_test roundtrip v1";
        const std::string label = "targets=" + std::to_string(targets);
        std::string error;

        auto journal =
            synth::CheckpointJournal::create(path, fingerprint, &error);
        ASSERT_NE(journal, nullptr) << error;
        synth::SynthesisOptions opt = small_options(4, 4);
        opt.jobs = 2;
        opt.checkpoint = journal.get();
        const std::vector<synth::SuiteResult> first =
            synth::synthesize_pass(model, targets, opt);
        EXPECT_TRUE(first.front().complete) << label;
        EXPECT_GT(first.front().scheduler.checkpoint_shards_saved, 0u)
            << label;
        journal.reset();

        auto resumed =
            synth::CheckpointJournal::resume(path, fingerprint, &error);
        ASSERT_NE(resumed, nullptr) << error;
        EXPECT_GT(resumed->loaded(), 0u) << label;
        opt.checkpoint = resumed.get();
        const std::vector<synth::SuiteResult> second =
            synth::synthesize_pass(model, targets, opt);
        ASSERT_EQ(second.size(), first.size()) << label;
        EXPECT_GT(second.front().scheduler.checkpoint_shards_replayed, 0u)
            << label;
        EXPECT_EQ(pass_fingerprint(second), pass_fingerprint(first))
            << label;
        for (std::size_t i = 0; i < first.size(); ++i) {
            EXPECT_TRUE(second[i].complete) << label;
            EXPECT_EQ(second[i].programs_considered,
                      first[i].programs_considered)
                << label << " " << first[i].axiom;
            EXPECT_EQ(second[i].executions_considered,
                      first[i].executions_considered)
                << label << " " << first[i].axiom;
            EXPECT_EQ(second[i].duplicates_rejected,
                      first[i].duplicates_rejected)
                << label << " " << first[i].axiom;
        }
        std::remove(path.c_str());
    }
}

TEST(Checkpoint, OnlyShardsThatVisitedACandidateAreJournaled)
{
    // Most shards of a default-depth partition hold no candidate, and each
    // journaled shard costs an fsync; so only shards that visited a
    // candidate are journaled, and a resume enumerates the empty ones
    // again, for nothing.
    const mtm::Model model = mtm::x86t_elt();
    for (const mtm::AxiomMask targets : target_sets(model)) {
        const std::string path = temp_path("nonempty.journal");
        const std::string fingerprint = "fault_test nonempty v1";
        const std::string label = "targets=" + std::to_string(targets);
        synth::SynthesisOptions opt = small_options(4, 5);
        opt.jobs = 2;
        const std::uint64_t non_empty =
            non_empty_shards(model, targets, opt).size();
        std::string error;
        auto journal =
            synth::CheckpointJournal::create(path, fingerprint, &error);
        ASSERT_NE(journal, nullptr) << error;
        opt.checkpoint = journal.get();
        const std::vector<synth::SuiteResult> first =
            synth::synthesize_pass(model, targets, opt);
        const sched::SchedulerStats& stats = first.front().scheduler;
        EXPECT_GT(non_empty, 0u) << label;
        EXPECT_EQ(stats.checkpoint_shards_saved, non_empty) << label;
        EXPECT_LT(stats.checkpoint_shards_saved, stats.jobs_run) << label;
        journal.reset();

        auto resumed =
            synth::CheckpointJournal::resume(path, fingerprint, &error);
        ASSERT_NE(resumed, nullptr) << error;
        EXPECT_EQ(resumed->loaded(), non_empty) << label;
        opt.checkpoint = resumed.get();
        const std::vector<synth::SuiteResult> second =
            synth::synthesize_pass(model, targets, opt);
        EXPECT_EQ(second.front().scheduler.checkpoint_shards_replayed,
                  non_empty)
            << label;
        EXPECT_EQ(second.front().scheduler.checkpoint_shards_saved, 0u)
            << label;
        EXPECT_EQ(pass_fingerprint(second), pass_fingerprint(first))
            << label;
        for (std::size_t i = 0; i < first.size(); ++i) {
            EXPECT_TRUE(second[i].complete) << label;
            EXPECT_EQ(second[i].programs_considered,
                      first[i].programs_considered)
                << label << " " << first[i].axiom;
        }
        std::remove(path.c_str());
    }
}

TEST(Checkpoint, ResumeRefusesAMismatchedFingerprint)
{
    const std::string path = temp_path("fingerprint.journal");
    std::string error;
    auto journal =
        synth::CheckpointJournal::create(path, "configuration A", &error);
    ASSERT_NE(journal, nullptr) << error;
    journal.reset();
    auto resumed =
        synth::CheckpointJournal::resume(path, "configuration B", &error);
    EXPECT_EQ(resumed, nullptr);
    EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeRefusesAnOlderJournalFormatByName)
{
    const std::string path = temp_path("v3.journal");
    {
        std::ofstream old(path, std::ios::binary);
        old << "transform-checkpoint v3\nfingerprint 3\nabc\n";
    }
    std::string error;
    auto resumed = synth::CheckpointJournal::resume(path, "abc", &error);
    EXPECT_EQ(resumed, nullptr);
    EXPECT_NE(error.find("format v3"), std::string::npos) << error;
    EXPECT_NE(error.find("v4"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeDropsATornTail)
{
    const mtm::Model model = mtm::x86t_elt();
    const std::string path = temp_path("torn.journal");
    const std::string fingerprint = "fault_test torn v1";
    std::string error;

    auto journal =
        synth::CheckpointJournal::create(path, fingerprint, &error);
    ASSERT_NE(journal, nullptr) << error;
    synth::SynthesisOptions opt = small_options(4, 4);
    opt.checkpoint = journal.get();
    const synth::SuiteResult first =
        synth::synthesize_suite(model, "invlpg", opt);
    const std::uint64_t saved = first.scheduler.checkpoint_shards_saved;
    ASSERT_GT(saved, 0u);
    journal.reset();

    {
        // A crash mid-append: a record header with no payload behind it.
        std::ofstream torn(path, std::ios::app | std::ios::binary);
        torn << "shard 12345 1 1 0";
    }
    auto resumed =
        synth::CheckpointJournal::resume(path, fingerprint, &error);
    ASSERT_NE(resumed, nullptr) << error;
    EXPECT_EQ(resumed->loaded(), saved);
    opt.checkpoint = resumed.get();
    const synth::SuiteResult second =
        synth::synthesize_suite(model, "invlpg", opt);
    EXPECT_EQ(suite_fingerprint(second), suite_fingerprint(first));
    std::remove(path.c_str());
}

#if defined(__linux__)
/// The acceptance test for crash safety: SIGKILL the process mid-run (via
/// the kill-kind fault plan), then resume from the journal and get a
/// byte-identical suite and the same counters. Bound 6 is the smallest at
/// which the merge drops isomorphic tests (of `invlpg`), so the resumed
/// merge must reproduce those drops from half-replayed, half-searched
/// shards.
TEST(Checkpoint, KillMidRunThenResumeIsByteIdentical)
{
    const mtm::Model model = mtm::x86t_elt();
    for (const mtm::AxiomMask targets : target_sets(model)) {
        const std::string path = temp_path("kill.journal");
        const std::string fingerprint = "fault_test kill v1";
        const std::string label = "targets=" + std::to_string(targets);
        const std::vector<synth::SuiteResult> uninterrupted =
            synth::synthesize_pass(model, targets, small_options(4, 6));
        const std::string baseline = pass_fingerprint(uninterrupted);
        ASSERT_FALSE(baseline.empty());
        std::uint64_t dropped = 0;
        for (const synth::SuiteResult& suite : uninterrupted) {
            dropped += suite.duplicates_rejected;
        }
        EXPECT_GT(dropped, 0u) << label;
        // Die at the boundary of the middle shard that holds a candidate,
        // so half of the journaled shards finished before the kill (empty
        // shards are not journaled).
        const std::vector<std::size_t> journaled =
            non_empty_shards(model, targets, small_options(4, 6));
        ASSERT_GE(journaled.size(), 2u) << label;
        const std::string kill_plan =
            "seed=1,site=shard_boundary,kind=kill,rate=1,after=" +
            std::to_string(journaled[journaled.size() / 2]);

        const pid_t child = fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            // In the child: journal the run and die at that boundary.
            // jobs=1 keeps the process-wide `after` skip counter
            // deterministic.
            std::string error;
            auto journal =
                synth::CheckpointJournal::create(path, fingerprint, &error);
            util::FaultPlan plan;
            if (journal == nullptr ||
                !util::FaultPlan::parse(kill_plan, &plan, &error)) {
                _exit(10);
            }
            synth::SynthesisOptions opt = small_options(4, 6);
            opt.jobs = 1;
            opt.checkpoint = journal.get();
            opt.fault_plan = &plan;
            (void)synth::synthesize_pass(model, targets, opt);
            _exit(11);  // the kill plan should never let us get here
        }
        int status = 0;
        ASSERT_EQ(waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFSIGNALED(status))
            << label << ": child exited with " << WEXITSTATUS(status)
            << " instead of dying by signal";
        EXPECT_EQ(WTERMSIG(status), SIGKILL) << label;

        std::string error;
        auto resumed =
            synth::CheckpointJournal::resume(path, fingerprint, &error);
        ASSERT_NE(resumed, nullptr) << error;
        // The shards finished before the kill.
        EXPECT_EQ(resumed->loaded(), journaled.size() / 2) << label;
        synth::SynthesisOptions opt = small_options(4, 6);
        opt.jobs = 1;
        opt.checkpoint = resumed.get();
        const std::vector<synth::SuiteResult> suites =
            synth::synthesize_pass(model, targets, opt);
        ASSERT_EQ(suites.size(), uninterrupted.size()) << label;
        for (std::size_t i = 0; i < suites.size(); ++i) {
            const synth::SuiteResult& want = uninterrupted[i];
            EXPECT_TRUE(suites[i].complete) << label;
            EXPECT_EQ(suites[i].tests.size(), want.tests.size())
                << label << " " << want.axiom;
            EXPECT_EQ(suites[i].duplicates_rejected, want.duplicates_rejected)
                << label << " " << want.axiom;
            EXPECT_EQ(suites[i].programs_considered, want.programs_considered)
                << label << " " << want.axiom;
            EXPECT_EQ(suites[i].executions_considered,
                      want.executions_considered)
                << label << " " << want.axiom;
        }
        EXPECT_EQ(suites.front().scheduler.checkpoint_shards_replayed,
                  journaled.size() / 2)
            << label;
        EXPECT_EQ(suites.front().scheduler.dedup_hits,
                  uninterrupted.front().scheduler.dedup_hits)
            << label;
        EXPECT_EQ(pass_fingerprint(suites), baseline) << label;
        std::remove(path.c_str());
    }
}
#endif  // __linux__

}  // namespace
}  // namespace transform
