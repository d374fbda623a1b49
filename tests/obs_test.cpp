/// \file
/// Tests for the observability layer (src/obs/): the phase-attributed
/// MetricsRegistry (exact merges under concurrent hammering, out-of-range
/// drops), the TraceCollector (valid Chrome trace JSON, every event kind,
/// bounded rings), the metrics-JSON report, the scheduler's job and pass
/// spans — and the layer's central promise: turning observability on
/// changes NOTHING about the synthesized suites (byte-identical
/// fingerprints across backends and job counts, obs on vs off).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "elt/serialize.h"
#include "mtm/model.h"
#include "obs/alloc.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "synth/engine.h"

namespace transform {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON well-formedness checker, so the trace/report tests can
// assert "any JSON consumer parses this" without a JSON dependency.

struct JsonCursor {
    const std::string& text;
    std::size_t pos = 0;

    void
    skip_ws()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        skip_ws();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    parse_string()
    {
        skip_ws();
        if (pos >= text.size() || text[pos] != '"') {
            return false;
        }
        ++pos;
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\') {
                ++pos;  // escape: skip the escaped character blindly
            }
            ++pos;
        }
        return consume('"');
    }

    bool
    parse_value()
    {
        skip_ws();
        if (pos >= text.size()) {
            return false;
        }
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            if (consume('}')) {
                return true;
            }
            do {
                if (!parse_string() || !consume(':') || !parse_value()) {
                    return false;
                }
            } while (consume(','));
            return consume('}');
        }
        if (c == '[') {
            ++pos;
            if (consume(']')) {
                return true;
            }
            do {
                if (!parse_value()) {
                    return false;
                }
            } while (consume(','));
            return consume(']');
        }
        if (c == '"') {
            return parse_string();
        }
        if (c == 't') {
            return text.compare(pos, 4, "true") == 0 && (pos += 4, true);
        }
        if (c == 'f') {
            return text.compare(pos, 5, "false") == 0 && (pos += 5, true);
        }
        if (c == 'n') {
            return text.compare(pos, 4, "null") == 0 && (pos += 4, true);
        }
        // Number: accept any [-+0-9.eE] run (validity of the digits is the
        // producer's problem; structure is what we check here).
        std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
                text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
        }
        return pos > start;
    }
};

bool
is_valid_json(const std::string& text)
{
    JsonCursor cursor{text};
    if (!cursor.parse_value()) {
        return false;
    }
    cursor.skip_ws();
    return cursor.pos == text.size();
}

int
count_occurrences(const std::string& text, const std::string& needle)
{
    int n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size())) {
        ++n;
    }
    return n;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistry, ConcurrentHammeringMergesExactly)
{
    constexpr int kThreads = 8;
    constexpr int kIterations = 50000;
    obs::MetricsRegistry registry(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        // Two threads share each cell on purpose: adds must not lose
        // updates even when the per-worker ownership convention is broken.
        threads.emplace_back([&registry, t] {
            const int worker = t % 4;
            const obs::Phase phase =
                static_cast<obs::Phase>(t % obs::kPhaseCount);
            for (int i = 0; i < kIterations; ++i) {
                registry.add(worker, phase, 3);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    const obs::PhaseTotals totals = registry.merged();
    std::uint64_t count = 0;
    std::uint64_t nanos = 0;
    for (int p = 0; p < obs::kPhaseCount; ++p) {
        count += totals.count(static_cast<obs::Phase>(p));
        nanos += totals.phases[static_cast<std::size_t>(p)].nanos;
    }
    EXPECT_EQ(count, static_cast<std::uint64_t>(kThreads) * kIterations);
    EXPECT_EQ(nanos, static_cast<std::uint64_t>(kThreads) * kIterations * 3);
    EXPECT_EQ(totals.total_nanos(), nanos);
    EXPECT_EQ(registry.dropped(), 0u);
}

TEST(MetricsRegistry, OutOfRangeWorkersAreDroppedNotCrashed)
{
    obs::MetricsRegistry registry(2);
    registry.add(-1, obs::Phase::kDerive, 10);
    registry.add(2, obs::Phase::kDerive, 10);
    registry.add(1, obs::Phase::kDerive, 10);
    EXPECT_EQ(registry.dropped(), 2u);
    EXPECT_EQ(registry.merged().count(obs::Phase::kDerive), 1u);
}

TEST(MetricsRegistry, WorkerNanosSnapshotsSupportUnclaimedAttribution)
{
    obs::MetricsRegistry registry(1);
    registry.add(0, obs::Phase::kDerive, 100);
    registry.add(0, obs::Phase::kJudge, 50);
    EXPECT_EQ(registry.worker_nanos(0), 150u);
    EXPECT_EQ(registry.worker_phase_nanos(0, obs::Phase::kDerive), 100u);
    EXPECT_EQ(registry.worker_phase_nanos(0, obs::Phase::kJudge), 50u);
    EXPECT_EQ(registry.worker_phase_nanos(0, obs::Phase::kDedup), 0u);
}

TEST(MetricsRegistry, ScopedPhaseNullRegistryIsANoop)
{
    // The disabled fast path must not crash (and must not read the clock,
    // though that is asserted by the benchmarks, not here).
    obs::ScopedPhase phase(nullptr, 0, obs::Phase::kSatSolve);
}

TEST(MetricsRegistry, ScopedPhaseAttributesOneSection)
{
    obs::MetricsRegistry registry(1);
    {
        obs::ScopedPhase phase(&registry, 0, obs::Phase::kCanonicalize);
    }
    EXPECT_EQ(registry.merged().count(obs::Phase::kCanonicalize), 1u);
}

TEST(MetricsRegistry, PhaseNamesAreStable)
{
    // The metrics-JSON schema spells phases with these names; renames are
    // schema changes and must bump kMetricsSchemaVersion.
    EXPECT_STREQ(obs::phase_name(obs::Phase::kSkeletonEnum),
                 "skeleton_enum");
    EXPECT_STREQ(obs::phase_name(obs::Phase::kSatEncode), "sat_encode");
    EXPECT_STREQ(obs::phase_name(obs::Phase::kSatSolve), "sat_solve");
    EXPECT_STREQ(obs::phase_name(obs::Phase::kDerive), "derive");
    EXPECT_STREQ(obs::phase_name(obs::Phase::kCanonicalize), "canonicalize");
    EXPECT_STREQ(obs::phase_name(obs::Phase::kJudge), "judge");
    EXPECT_STREQ(obs::phase_name(obs::Phase::kRelax), "relax");
    EXPECT_STREQ(obs::phase_name(obs::Phase::kDedup), "dedup");
    EXPECT_STREQ(obs::phase_name(obs::Phase::kQueueWait), "queue_wait");
}

// ---------------------------------------------------------------------------
// TraceCollector

TEST(TraceCollector, ChromeJsonIsValidAndCarriesEveryKind)
{
    obs::TraceCollector trace(2);
    const std::uint64_t t0 = obs::now_nanos();
    trace.record_complete(0, "span \"quoted\"", t0, t0 + 1000,
                          {{"visited", 7}});
    trace.record_instant(1, "marker", t0 + 500);
    trace.record_counter(trace.main_lane(), "latency_us x", t0 + 2000,
                         {{"p50", 3}, {"p90", 5}});

    const std::string json = trace.chrome_json();
    EXPECT_TRUE(is_valid_json(json)) << json;
    // One metadata record per lane (2 workers + main).
    EXPECT_EQ(count_occurrences(json, "\"ph\":\"M\""), 3);
    EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 1);
    EXPECT_EQ(count_occurrences(json, "\"ph\":\"i\""), 1);
    EXPECT_EQ(count_occurrences(json, "\"ph\":\"C\""), 1);
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\"visited\":7"), std::string::npos);
    EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceCollector, RingsAreBoundedAndCountDrops)
{
    obs::TraceCollector trace(1, 4);
    const std::uint64_t t0 = obs::now_nanos();
    for (int i = 0; i < 10; ++i) {
        trace.record_instant(0, "e" + std::to_string(i), t0 + i);
    }
    trace.record_instant(99, "invalid lane", t0);
    EXPECT_EQ(trace.events_resident(), 4u);
    EXPECT_EQ(trace.dropped(), 7u);  // 6 overwritten + 1 invalid lane
    // The survivors are the newest four.
    const std::string json = trace.chrome_json();
    EXPECT_TRUE(is_valid_json(json));
    EXPECT_EQ(json.find("\"e0\""), std::string::npos);
    EXPECT_NE(json.find("\"e9\""), std::string::npos);
}

TEST(TraceCollector, ConcurrentLanesRecordIndependently)
{
    constexpr int kLanes = 4;
    constexpr int kEvents = 2000;
    obs::TraceCollector trace(kLanes, 4096);
    std::vector<std::thread> threads;
    for (int lane = 0; lane < kLanes; ++lane) {
        threads.emplace_back([&trace, lane] {
            for (int i = 0; i < kEvents; ++i) {
                const std::uint64_t now = obs::now_nanos();
                trace.record_complete(lane, "w", now, now + 10);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(trace.events_resident(),
              static_cast<std::size_t>(kLanes) * kEvents);
    EXPECT_EQ(trace.dropped(), 0u);
    EXPECT_TRUE(is_valid_json(trace.chrome_json()));
}

TEST(SchedulerTrace, PoolRecordsJobSpansWhenAttached)
{
    sched::ThreadPool pool(2);
    obs::TraceCollector trace(pool.workers());
    pool.set_trace(&trace);
    std::atomic<int> ran{0};
    std::vector<sched::ThreadPool::Job> jobs;
    for (int i = 0; i < 16; ++i) {
        jobs.push_back([&ran](int) { ++ran; });
    }
    pool.submit(std::move(jobs));
    pool.wait();
    pool.set_trace(nullptr);
    EXPECT_EQ(ran.load(), 16);
    const std::string json = trace.chrome_json();
    EXPECT_TRUE(is_valid_json(json));
    EXPECT_EQ(count_occurrences(json, "\"name\":\"job\""), 16);
    // Detached: further jobs record nothing.
    pool.submit([](int) {});
    pool.wait();
    EXPECT_EQ(count_occurrences(trace.chrome_json(), "\"name\":\"job\""),
              16);
}

// ---------------------------------------------------------------------------
// Engine integration: metrics/trace fill SuiteResult without perturbing it.

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

synth::SynthesisOptions
obs_options(int jobs, synth::Backend backend)
{
    synth::SynthesisOptions opt;
    opt.min_bound = 4;
    opt.bound = backend == synth::Backend::kSat ? 4 : 5;
    opt.jobs = jobs;
    opt.backend = backend;
    return opt;
}

TEST(ObsDeterminism, SuitesAreByteIdenticalWithObservabilityOnOrOff)
{
    const mtm::Model model = mtm::x86t_elt();
    for (const synth::Backend backend :
         {synth::Backend::kEnumerative, synth::Backend::kSat}) {
        const synth::SuiteResult reference = synth::synthesize_suite(
            model, "invlpg", obs_options(1, backend));
        EXPECT_FALSE(reference.tests.empty());
        for (const int jobs : {1, 2, 4}) {
            synth::SynthesisOptions instrumented =
                obs_options(jobs, backend);
            instrumented.collect_metrics = true;
            obs::TraceCollector trace(sched::resolve_jobs(jobs));
            instrumented.trace = &trace;
            const synth::SuiteResult observed = synth::synthesize_suite(
                model, "invlpg", instrumented);
            EXPECT_EQ(suite_fingerprint(reference),
                      suite_fingerprint(observed))
                << "backend=" << static_cast<int>(backend)
                << " jobs=" << jobs;
            EXPECT_TRUE(is_valid_json(trace.chrome_json()));
        }
    }
}

TEST(ObsDeterminism, SuitesAreByteIdenticalAcrossInstrumentationMatrix)
{
    // The wider on/off contract: alloc tracking is purely
    // observational too. The reference is a bare 1-job run; every (jobs,
    // shard-depth, backend) cell runs with metrics + alloc tracking armed.
    const mtm::Model model = mtm::x86t_elt();
    for (const synth::Backend backend :
         {synth::Backend::kEnumerative, synth::Backend::kSat}) {
        const synth::SuiteResult reference = synth::synthesize_suite(
            model, "invlpg", obs_options(1, backend));
        EXPECT_FALSE(reference.tests.empty());
        for (const int jobs : {1, 2, 4}) {
            for (const int depth : {0, 1, 2}) {
                synth::SynthesisOptions instrumented =
                    obs_options(jobs, backend);
                instrumented.shard_depth = depth;
                instrumented.collect_metrics = true;
                instrumented.track_allocs = true;
                const synth::SuiteResult observed =
                    synth::synthesize_suite(model, "invlpg",
                                            instrumented);
                EXPECT_EQ(suite_fingerprint(reference),
                          suite_fingerprint(observed))
                    << "backend=" << static_cast<int>(backend)
                    << " jobs=" << jobs << " depth=" << depth;
                EXPECT_GT(observed.allocs.total_count(), 0u);
            }
        }
    }
}

TEST(ObsEngine, CollectMetricsFillsPhaseTotals)
{
    const mtm::Model model = mtm::x86t_elt();
    synth::SynthesisOptions options =
        obs_options(2, synth::Backend::kEnumerative);
    options.collect_metrics = true;
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "sc_per_loc", options);
    EXPECT_GT(suite.phases.total_nanos(), 0u);
    EXPECT_GT(suite.phases.count(obs::Phase::kSkeletonEnum), 0u);
    // skeleton_enum is the residual of each shard job's wall time: it has
    // seconds but, like every residual attribution, no latency samples.
    EXPECT_GT(suite.phases.seconds(obs::Phase::kSkeletonEnum), 0.0);
    EXPECT_EQ(suite.phases
                  .latency[static_cast<std::size_t>(
                      obs::Phase::kSkeletonEnum)]
                  .total(),
              0u);
    EXPECT_GT(suite.phases.count(obs::Phase::kDerive), 0u);
    // Only accepted candidates are canonicalized: in a one-target pass
    // each becomes one test, which the merge keeps or drops as a duplicate.
    EXPECT_GT(suite.tests.size(), 0u);
    EXPECT_EQ(suite.phases.count(obs::Phase::kCanonicalize),
              suite.tests.size() + suite.duplicates_rejected);
    EXPECT_LT(suite.phases.count(obs::Phase::kCanonicalize),
              suite.programs_considered);
    // The merge's sort-and-drop: one sample per target.
    EXPECT_EQ(suite.phases.count(obs::Phase::kDedup), 1u);
    // Enumerative backend: no SAT phases, no solver calls.
    EXPECT_EQ(suite.phases.count(obs::Phase::kSatSolve), 0u);
    EXPECT_EQ(suite.solver.solve_calls, 0u);

    // Metrics off: the breakdown stays all-zero.
    options.collect_metrics = false;
    const synth::SuiteResult off =
        synth::synthesize_suite(model, "sc_per_loc", options);
    EXPECT_EQ(off.phases.total_nanos(), 0u);
}

TEST(ObsEngine, SatBackendAggregatesSolverStatsPerSuite)
{
    const mtm::Model model = mtm::x86t_elt();
    // Solver counters surface even WITHOUT collect_metrics (satellite
    // contract: `--stats` works with no obs flags) — only solve_nanos
    // needs the metrics switch, which gates the solver's clock reads.
    synth::SynthesisOptions options = obs_options(2, synth::Backend::kSat);
    const synth::SuiteResult plain =
        synth::synthesize_suite(model, "invlpg", options);
    EXPECT_GT(plain.solver.solve_calls, 0u);
    EXPECT_GT(plain.solver.propagations, 0u);
    EXPECT_EQ(plain.solver.solve_nanos, 0u);

    options.collect_metrics = true;
    const synth::SuiteResult timed =
        synth::synthesize_suite(model, "invlpg", options);
    EXPECT_EQ(timed.solver.solve_calls, plain.solver.solve_calls)
        << "solver work must not depend on the metrics switch";
    EXPECT_GT(timed.solver.solve_nanos, 0u);
    EXPECT_GT(timed.phases.count(obs::Phase::kSatSolve), 0u);
    EXPECT_GT(timed.phases.count(obs::Phase::kSatEncode), 0u);
}

TEST(ObsEngine, OnePassIsOneSpanOnTheMainLane)
{
    // Every target of a call shares one pass on either backend, so the
    // trace holds one complete span for it, named after its targets.
    const mtm::Model model = mtm::x86t_elt();
    for (const synth::Backend backend :
         {synth::Backend::kEnumerative, synth::Backend::kSat}) {
        synth::SynthesisOptions options = obs_options(2, backend);
        options.bound = 4;
        obs::TraceCollector trace(2);
        options.trace = &trace;
        const std::vector<synth::SuiteResult> suites =
            synth::synthesize_all_parallel(model, options);
        const std::string json = trace.chrome_json();
        EXPECT_TRUE(is_valid_json(json));
        const std::string span = "{\"ph\":\"X\",\"cat\":\"synth\","
                                 "\"name\":\"suite " +
                                 suites.front().pass + "\",\"pid\":1,"
                                 "\"tid\":" +
                                 std::to_string(trace.main_lane()) + ",";
        EXPECT_EQ(count_occurrences(json, span), 1)
            << "backend=" << static_cast<int>(backend);
        EXPECT_EQ(count_occurrences(json, "\"name\":\"suite "), 1)
            << "backend=" << static_cast<int>(backend);
    }
}

// ---------------------------------------------------------------------------
// Metrics-JSON report

TEST(ObsReport, ReportJsonIsValidVersionedAndTotalled)
{
    const mtm::Model model = mtm::x86t_elt();
    obs::RunReport report;
    report.tool = "obs_test";
    report.model = "path/with \"quotes\" and\nnewlines";
    report.backend = "enum";
    report.bound = 5;
    report.jobs = 2;
    for (const std::string axiom : {"sc_per_loc", "invlpg"}) {
        synth::SynthesisOptions options =
            obs_options(2, synth::Backend::kEnumerative);
        options.collect_metrics = true;
        report.suites.push_back(obs::suite_report(
            synth::synthesize_suite(model, axiom, options)));
    }
    const std::string json = obs::report_to_json(report);
    EXPECT_TRUE(is_valid_json(json)) << json;
    EXPECT_NE(json.find("\"schema\": \"transform-metrics\""),
              std::string::npos);
    EXPECT_NE(
        json.find("\"schema_version\": " +
                  std::to_string(obs::kMetricsSchemaVersion)),
        std::string::npos);
    for (int p = 0; p < obs::kPhaseCount; ++p) {
        EXPECT_NE(json.find(obs::phase_name(static_cast<obs::Phase>(p))),
                  std::string::npos);
    }

    const obs::SuiteReport totals = report.totals();
    EXPECT_EQ(totals.tests,
              report.suites[0].tests + report.suites[1].tests);
    EXPECT_EQ(totals.programs_considered,
              report.suites[0].programs_considered +
                  report.suites[1].programs_considered);
}

// ---------------------------------------------------------------------------
// Probe-session counters: one live solver spanning many candidates must
// surface its assumption/retirement/retention economy through the
// SuiteResult.solver accumulator (and metrics-JSON).

TEST(ObsReport, MultiTargetPassCountsSharedWorkOnce)
{
    // One enumerative pass serves every axiom. Its scheduler, phase and
    // allocation counters sit on the pass's first suite, so the
    // metrics-JSON totals count the pass's work once — as does the
    // `elt_synth --stats` all-axioms aggregate, which is the same merge of
    // obs::suite_report over the suites.
    const mtm::Model model = mtm::x86t_elt();
    synth::SynthesisOptions options =
        obs_options(2, synth::Backend::kEnumerative);
    options.collect_metrics = true;
    options.track_allocs = true;
    const std::vector<synth::SuiteResult> suites =
        synth::synthesize_all_parallel(model, options);
    ASSERT_EQ(suites.size(), model.axioms().size());
    obs::RunReport report;
    for (const synth::SuiteResult& suite : suites) {
        report.suites.push_back(obs::suite_report(suite));
    }
    const obs::SuiteReport totals = report.totals();
    const synth::SuiteResult& lead = suites.front();

    EXPECT_GT(lead.scheduler.jobs_run, 0u);
    EXPECT_GT(lead.phases.total_nanos(), 0u);
    EXPECT_GT(lead.allocs.total_count(), 0u);
    std::uint64_t executions_sum = 0;
    std::uint64_t executions_max = 0;
    for (std::size_t i = 0; i < suites.size(); ++i) {
        const synth::SuiteResult& suite = suites[i];
        EXPECT_EQ(suite.pass, lead.pass) << suite.axiom;
        EXPECT_EQ(suite.seconds, lead.seconds) << suite.axiom;
        EXPECT_TRUE(suite.complete) << suite.axiom;
        executions_sum += suite.executions_considered;
        executions_max =
            std::max(executions_max, suite.executions_considered);
        if (i == 0) {
            continue;
        }
        EXPECT_EQ(suite.scheduler.jobs_run, 0u) << suite.axiom;
        EXPECT_EQ(suite.scheduler.dedup_hits, 0u) << suite.axiom;
        EXPECT_EQ(suite.phases.total_nanos(), 0u) << suite.axiom;
        EXPECT_EQ(suite.allocs.total_count(), 0u) << suite.axiom;
    }
    EXPECT_EQ(totals.scheduler.jobs_run, lead.scheduler.jobs_run);
    EXPECT_EQ(totals.scheduler.steals, lead.scheduler.steals);
    EXPECT_EQ(totals.scheduler.dedup_hits, lead.scheduler.dedup_hits);
    for (int p = 0; p < obs::kPhaseCount; ++p) {
        const auto phase = static_cast<obs::Phase>(p);
        EXPECT_EQ(totals.phases.count(phase), lead.phases.count(phase))
            << obs::phase_name(phase);
    }
    EXPECT_EQ(totals.allocs.total_count(), lead.allocs.total_count());

    // The shared work itself is done once: each accepted candidate is
    // canonicalized once for the whole pass, however many suites its tests
    // join. The merge keeps the first candidate of each key and drops the
    // rest (dedup_hits counts the distinct dropped candidates), so the
    // accepted candidates are the unique tests plus the dropped ones. The
    // merge takes one kDedup sample per target. Each execution is derived
    // once, however many suites count it.
    EXPECT_EQ(totals.phases.count(obs::Phase::kCanonicalize),
              static_cast<std::uint64_t>(synth::unique_test_count(suites)) +
                  lead.scheduler.dedup_hits);
    EXPECT_EQ(totals.phases.count(obs::Phase::kDedup), suites.size());
    const std::uint64_t derived = totals.phases.count(obs::Phase::kDerive);
    EXPECT_GE(derived, executions_max);
    EXPECT_LT(derived, executions_sum);
}

TEST(ObsEngine, IncrementalSatSurfacesSessionCounters)
{
    const mtm::Model model = mtm::x86t_elt();
    synth::SynthesisOptions options = obs_options(1, synth::Backend::kSat);
    // Bound 5: at bound 4 every model-bearing invlpg candidate accepts at
    // its first model, so no blocking clause (hence no guard) is ever
    // spent; one bound up the enumeration visits non-qualifying models
    // and the retirement path actually runs.
    options.bound = 5;
    const synth::SuiteResult live =
        synth::synthesize_suite(model, "invlpg", options);
    // Per-candidate work is pure assumptions; candidate advances retire
    // the spent guards; learned clauses survive those advances.
    EXPECT_GT(live.solver.assumed_literals, 0u);
    EXPECT_GT(live.solver.retired_activations, 0u);
    EXPECT_GT(live.solver.retained_clauses, 0u);
    // Structure bases are session-built.
    EXPECT_GT(live.solver.bases_built, 0u);
    // Base-cache hits need a structure-key revisit, which the invlpg
    // workload's require_wpte pruning squeezes out at this bound (every
    // rmw-markable pair is pinned to one VA assignment). sc_per_loc at
    // bound 5 keeps free-VA (R, W) pairs, so its rmw-marking stage
    // alternates the key under a fixed placement prefix and the cache
    // demonstrably absorbs the revisits.
    synth::SynthesisOptions reuse_options = options;
    reuse_options.bound = 5;
    const synth::SuiteResult reuse =
        synth::synthesize_suite(model, "sc_per_loc", reuse_options);
    EXPECT_GT(reuse.solver.bases_reused, 0u);
}

TEST(ObsReport, SolverSessionCountersAppearInSchemaV6Json)
{
    // The three incremental counters moved the schema to v2; the base
    // cache's bases_built/bases_reused (and the "relax" phase) moved it
    // to v3; the fault-tolerant runtime's counters and "cancelled" moved
    // it to v4; the latency percentiles, allocation breakdowns and
    // failures array moved it to v5; dropping the re-split counters and
    // adding the totals' peak_rss_bytes moved it to v6. Pin the version
    // and the exact keys so a silent rename or removal fails here rather
    // than in a downstream consumer.
    EXPECT_EQ(obs::kMetricsSchemaVersion, 6);

    const mtm::Model model = mtm::x86t_elt();
    obs::RunReport report;
    report.tool = "obs_test";
    report.model = "x86t_elt";
    report.backend = "sat";
    report.bound = 4;
    report.jobs = 1;
    synth::SynthesisOptions options = obs_options(1, synth::Backend::kSat);
    options.bound = 5;  // deep enough for guard retirement to occur
    options.collect_metrics = true;
    report.suites.push_back(obs::suite_report(
        synth::synthesize_suite(model, "invlpg", options)));

    const std::string json = obs::report_to_json(report);
    EXPECT_TRUE(is_valid_json(json)) << json;
    EXPECT_NE(json.find("\"schema_version\": 6"), std::string::npos);
    // Each solver object (one per suite, one in totals) carries the keys.
    EXPECT_EQ(count_occurrences(json, "\"assumed_literals\""), 2);
    EXPECT_EQ(count_occurrences(json, "\"retired_activations\""), 2);
    EXPECT_EQ(count_occurrences(json, "\"retained_clauses\""), 2);
    EXPECT_EQ(count_occurrences(json, "\"bases_built\""), 2);
    EXPECT_EQ(count_occurrences(json, "\"bases_reused\""), 2);
    EXPECT_EQ(count_occurrences(json, "\"relax\""), 2);
    // v4: the robustness keys, in every suite and scheduler object.
    EXPECT_EQ(count_occurrences(json, "\"cancelled\""), 2);
    EXPECT_EQ(count_occurrences(json, "\"job_faults\""), 2);
    EXPECT_EQ(count_occurrences(json, "\"shard_retries\""), 2);
    EXPECT_EQ(count_occurrences(json, "\"shards_quarantined\""), 2);
    EXPECT_EQ(count_occurrences(json, "\"checkpoint_shards_saved\""), 2);
    EXPECT_EQ(count_occurrences(json, "\"checkpoint_shards_replayed\""), 2);
    // v5: every phase entry (9 per phases object, 2 phases objects)
    // carries the latency percentiles and the allocation slot.
    EXPECT_EQ(count_occurrences(json, "\"p50_ns\""), 2 * obs::kPhaseCount);
    EXPECT_EQ(count_occurrences(json, "\"p90_ns\""), 2 * obs::kPhaseCount);
    EXPECT_EQ(count_occurrences(json, "\"p99_ns\""), 2 * obs::kPhaseCount);
    EXPECT_EQ(count_occurrences(json, "\"alloc_count\""),
              2 * obs::kPhaseCount);
    EXPECT_EQ(count_occurrences(json, "\"alloc_bytes\""),
              2 * obs::kPhaseCount);
    // v5: the site table and the failures array, once per suite object.
    EXPECT_EQ(count_occurrences(json, "\"alloc_sites\""), 2);
    EXPECT_EQ(count_occurrences(json, "\"failures\""), 2);
    // v6: no re-split counter in any scheduler object, and the process's
    // peak RSS once, in the totals object.
    for (const char* removed :
         {"lazy_resplits", "closed_prefix_splits", "skip_enumerations",
          "observed_cost_resplits", "resplit_threshold_min",
          "resplit_threshold_max"}) {
        EXPECT_EQ(json.find(removed), std::string::npos) << removed;
    }
    EXPECT_EQ(count_occurrences(json, "\"peak_rss_bytes\""), 1);
    const std::size_t totals_at = json.find("\"totals\": {");
    const std::size_t rss_at = json.find("\"peak_rss_bytes\": ");
    ASSERT_NE(totals_at, std::string::npos);
    ASSERT_NE(rss_at, std::string::npos);
    EXPECT_GT(rss_at, totals_at);
    EXPECT_GT(std::stoull(json.substr(rss_at + 18)), 0u);
    EXPECT_GT(obs::peak_rss_bytes(), 0u);
    for (int s = 0; s < obs::kAllocSiteCount; ++s) {
        EXPECT_NE(json.find(obs::alloc_site_name(
                      static_cast<obs::AllocSite>(s))),
                  std::string::npos);
    }
    // The collected run carries real per-solve latency samples.
    EXPECT_NE(json.find("\"sat_solve\": {"), std::string::npos);
    EXPECT_GT(report.suites[0].phases
                  .latency[static_cast<std::size_t>(obs::Phase::kSatSolve)]
                  .total(),
              0u);
    // And the totals really accumulate the session's counters.
    EXPECT_GT(report.totals().solver.retired_activations, 0u);
}

// ---------------------------------------------------------------------------
// Latency histograms: log2 buckets, exact concurrent merges.

/// Run only as the child of PeakRssExcludesTheSpawnersPeak, which reads
/// the line it prints.
TEST(ObsPeakRss, DISABLED_PrintOwnPeak)
{
    std::printf("peak_rss_bytes=%llu\n",
                static_cast<unsigned long long>(obs::peak_rss_bytes()));
}

TEST(ObsPeakRss, PeakRssExcludesTheSpawnersPeak)
{
    // A parent holding 128 MiB spawns a small child: the child's report is
    // its own peak, not the parent's (getrusage's ru_maxrss keeps the
    // larger image exec replaced).
    constexpr std::size_t kBallast = std::size_t{128} << 20;
    std::vector<char> ballast(kBallast, 1);
    char self[] = "/proc/self/exe";
    char also_disabled[] = "--gtest_also_run_disabled_tests";
    char filter[] = "--gtest_filter=ObsPeakRss.DISABLED_PrintOwnPeak";
    char* argv[] = {self, also_disabled, filter, nullptr};
    int out[2];
    ASSERT_EQ(::pipe(out), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::dup2(out[1], STDOUT_FILENO);
        ::close(out[0]);
        ::close(out[1]);
        ::execv(self, argv);
        ::_exit(127);
    }
    ::close(out[1]);
    std::string text;
    char buffer[4096];
    for (ssize_t got; (got = ::read(out[0], buffer, sizeof buffer)) > 0;) {
        text.append(buffer, static_cast<std::size_t>(got));
    }
    ::close(out[0]);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << text;
    const std::size_t at = text.find("peak_rss_bytes=");
    ASSERT_NE(at, std::string::npos) << text;
    const unsigned long long child_peak = std::stoull(text.substr(at + 15));
    EXPECT_GT(child_peak, 0u);
    EXPECT_LT(child_peak, kBallast / 2);
    EXPECT_GE(obs::peak_rss_bytes(), kBallast);
    EXPECT_EQ(ballast[kBallast / 2], 1);
}

TEST(LatencyHistogram, BucketEdgesAndPercentiles)
{
    EXPECT_EQ(obs::latency_bucket(0), 0);
    EXPECT_EQ(obs::latency_bucket(1), 1);
    EXPECT_EQ(obs::latency_bucket(2), 2);
    EXPECT_EQ(obs::latency_bucket(3), 2);
    EXPECT_EQ(obs::latency_bucket(4), 3);
    EXPECT_EQ(obs::latency_bucket(~std::uint64_t{0}),
              obs::kLatencyBucketCount - 1);

    obs::LatencyHistogram hist;
    EXPECT_EQ(hist.percentile_nanos(0.5), 0u);  // empty
    hist.record(0);
    hist.record(1);
    hist.record(1000);  // bit-width 10: bucket upper edge 1023
    EXPECT_EQ(hist.total(), 3u);
    EXPECT_EQ(hist.percentile_nanos(0.0), 0u);
    EXPECT_EQ(hist.percentile_nanos(0.5), 1u);
    EXPECT_EQ(hist.percentile_nanos(1.0), 1023u);
}

TEST(LatencyHistogram, ConcurrentRecordingMergesExactly)
{
    // 8 threads hammer 4 worker cells (two threads per cell, breaking the
    // single-writer convention on purpose) with a deterministic sample
    // stream; the merged per-bucket counts must equal a serial replay of
    // the same stream — the histogram merge is exact, not approximate.
    constexpr int kThreads = 8;
    constexpr int kSamples = 20000;
    obs::MetricsRegistry registry(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry, t] {
            const obs::Phase phase =
                static_cast<obs::Phase>(t % obs::kPhaseCount);
            for (int i = 0; i < kSamples; ++i) {
                registry.record_latency(
                    t % 4, phase,
                    static_cast<std::uint64_t>(i) * 37 % 100000);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    obs::LatencyHistogram expected;
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kSamples; ++i) {
            expected.record(static_cast<std::uint64_t>(i) * 37 % 100000);
        }
    }
    const obs::PhaseTotals totals = registry.merged();
    for (int b = 0; b < obs::kLatencyBucketCount; ++b) {
        std::uint64_t merged = 0;
        for (int p = 0; p < obs::kPhaseCount; ++p) {
            merged += totals.latency[static_cast<std::size_t>(p)]
                          .buckets[static_cast<std::size_t>(b)];
        }
        EXPECT_EQ(merged, expected.buckets[static_cast<std::size_t>(b)])
            << "bucket " << b;
    }
    EXPECT_EQ(registry.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Allocation tracking: per-phase/per-site sums equal the process-wide
// operator-new proxy over the bound region.

TEST(AllocTracker, SumsMatchTheProcessWideProxy)
{
    obs::AllocTracker tracker(2);
    EXPECT_FALSE(obs::alloc_tracking_bound());
    const std::uint64_t before = obs::alloc_count();
    obs::bind_alloc_tracker(&tracker, 1);
    {
        // Untagged region: lands in kSkeletonEnum / kSiteOther.
        auto* spill = new std::vector<int>(100);
        delete spill;
    }
    {
        obs::ScopedAllocPhase phase(obs::Phase::kDerive);
        std::vector<std::string> rows;
        for (int i = 0; i < 16; ++i) {
            rows.emplace_back(static_cast<std::size_t>(64 + i), 'x');
        }
    }
    {
        obs::ScopedAllocPhase phase(obs::Phase::kJudge);
        const obs::ScopedAllocSite site(
            obs::AllocSite::kSiteJudgeVerdict);
        auto* verdict = new std::string(256, 'y');
        delete verdict;
    }
    obs::bind_alloc_tracker(nullptr, 0);
    const std::uint64_t proxy_delta = obs::alloc_count() - before;

    const obs::AllocTotals totals = tracker.merged();
    EXPECT_GT(totals.total_count(), 0u);
    // THE sum contract: every allocation of the bound region was
    // attributed, so the per-phase table sums exactly to the process-wide
    // proxy delta (this test body is the only thread allocating).
    EXPECT_EQ(totals.total_count(), proxy_delta);
    std::uint64_t site_count = 0;
    std::uint64_t site_bytes = 0;
    for (const obs::AllocSlot& slot : totals.sites) {
        site_count += slot.count;
        site_bytes += slot.bytes;
    }
    // ... and the site table covers the same allocations.
    EXPECT_EQ(site_count, totals.total_count());
    EXPECT_EQ(site_bytes, totals.total_bytes());
    EXPECT_EQ(tracker.worker_count(1), proxy_delta);
    EXPECT_EQ(tracker.worker_count(0), 0u);
    EXPECT_EQ(tracker.dropped(), 0u);
    using Idx = std::size_t;
    EXPECT_GT(totals.phases[static_cast<Idx>(obs::Phase::kSkeletonEnum)]
                  .count, 0u);
    EXPECT_GT(totals.phases[static_cast<Idx>(obs::Phase::kDerive)].count,
              0u);
    EXPECT_GT(totals.phases[static_cast<Idx>(obs::Phase::kJudge)].count,
              0u);
    EXPECT_GT(totals.sites[static_cast<Idx>(
                  obs::AllocSite::kSiteJudgeVerdict)].count, 0u);
    // After unbinding, allocations flow past the tracker again.
    const std::uint64_t settled = tracker.merged().total_count();
    auto* untracked = new std::string(512, 'z');
    delete untracked;
    EXPECT_EQ(tracker.merged().total_count(), settled);
}

TEST(AllocTracker, OutOfRangeWorkersAreDroppedNotCrashed)
{
    obs::AllocTracker tracker(1);
    tracker.add(-1, 0, 0, 8);
    tracker.add(1, 0, 0, 8);
    tracker.add(0, obs::kPhaseCount, 0, 8);
    tracker.add(0, 0, obs::kAllocSiteCount, 8);
    tracker.add(0, 0, 0, 8);
    EXPECT_EQ(tracker.dropped(), 4u);
    EXPECT_EQ(tracker.merged().total_count(), 1u);
}

TEST(ObsEngine, TrackAllocsFillsSuiteAllocTotals)
{
    const mtm::Model model = mtm::x86t_elt();
    synth::SynthesisOptions options =
        obs_options(2, synth::Backend::kEnumerative);
    options.collect_metrics = true;
    options.track_allocs = true;
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "sc_per_loc", options);
    EXPECT_GT(suite.allocs.total_count(), 0u);
    std::uint64_t site_count = 0;
    for (const obs::AllocSlot& slot : suite.allocs.sites) {
        site_count += slot.count;
    }
    EXPECT_EQ(site_count, suite.allocs.total_count())
        << "phase and site tables must cover the same allocations";
    using Idx = std::size_t;
    EXPECT_GT(suite.allocs
                  .phases[static_cast<Idx>(obs::Phase::kSkeletonEnum)]
                  .count, 0u);
    EXPECT_GT(suite.allocs
                  .sites[static_cast<Idx>(
                      obs::AllocSite::kSiteCanonicalKey)].count, 0u);

    // Off (the default): the breakdown stays all-zero.
    options.track_allocs = false;
    const synth::SuiteResult off =
        synth::synthesize_suite(model, "sc_per_loc", options);
    EXPECT_EQ(off.allocs.total_count(), 0u);
    EXPECT_EQ(off.allocs.total_bytes(), 0u);
}

}  // namespace
}  // namespace transform
