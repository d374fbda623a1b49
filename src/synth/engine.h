/// \file
/// The synthesis engine (section IV): given an MTM and a set of target
/// axioms, enumerate candidate executions up to an instruction bound, keep
/// the interesting + minimal ones, and deduplicate them into one suite of
/// unique ELT programs per target axiom. Two backends produce the same
/// suites: the explicit enumerator (default, fast) and the SAT/relational
/// backend mirroring the paper's Alloy pipeline (used for cross-checking
/// and per-program queries).
///
/// One pass serves every target (synthesize_pass). It walks one candidate
/// stream; each candidate carries per-axiom eligibility bits (the
/// structural features a violation of the axiom requires, see
/// eligible_axioms), less the targets it is proven barren for (an event
/// whose isolated removal keeps every violation, see barren_axioms), and
/// each execution of a candidate with a target left is derived and masked
/// once. An execution is judged only when it violates an eligible target
/// that has no witness yet; minimality does not depend on the axiom, so a
/// minimal execution becomes the witness of every such target, and the
/// candidate stops once all of its eligible targets are settled. Each
/// per-axiom suite is a projection of the pass: the same tests, witnesses
/// and counters a search for that axiom alone finds.
/// The SAT backend walks the same one stream; its witness query names one
/// axiom, so an eligible candidate runs one query per eligible target, in
/// axiom order, each through that target's own probe session.
///
/// A pass runs on the parallel synthesis runtime (src/sched/): the
/// (event-bound, skeleton-prefix) space is partitioned into independent
/// shards, one thread pool with a single locked job queue searches them
/// concurrently, and each target's accepted tests are merged by one sort on
/// (canonical key, ticket) that keeps the first test of each key. Only
/// accepted candidates are canonicalized, so a run holds keys for its tests,
/// not for its candidates. The partition is static: one prefix depth per
/// pass (pass_shard_depth), chosen from the pass's skeleton options alone,
/// and each shard is one job that searches its whole shard (see
/// docs/scheduler.md, "Static sharding").
///
/// Determinism contract: for a run that completes within its time budget,
/// each merged suite (tests, their order, and their witnesses) is identical
/// for every `jobs` value, every shard-depth setting, and every target set
/// that contains its axiom — the suite is sorted by canonical key and every
/// cross-shard duplicate is resolved toward the candidate earliest in the
/// sequential enumeration order (see DESIGN.md, "Parallel synthesis
/// runtime" and "Determinism contract").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "elt/execution.h"
#include "mtm/model.h"
#include "obs/alloc.h"
#include "obs/metrics.h"
#include "sat/solver.h"
#include "sched/scheduler.h"
#include "synth/skeleton.h"
#include "util/cancel.h"

namespace transform::obs {
class TraceCollector;
}

namespace transform::util {
class FaultPlan;
}

namespace transform::synth {

class CheckpointJournal;

/// Which execution-space backend drives the per-program search.
enum class Backend {
    kEnumerative,  ///< explicit backtracking (synth/exec_enum.h)
    kSat,          ///< relational SAT encoding (mtm/encoding.h)
};

/// A point-in-time view of an in-flight synthesis run, sampled by the
/// engine's heartbeat thread for SynthesisOptions::progress. Counters are
/// relaxed snapshots — internally consistent enough for a status line, not
/// for asserting invariants (use SuiteResult for settled numbers).
struct SynthesisProgress {
    std::uint64_t shards_done = 0;       ///< shard jobs completed
    std::uint64_t shards_submitted = 0;  ///< grows only with retries
    std::uint64_t candidates = 0;        ///< stream candidates visited so far
    std::uint64_t tests_found = 0;       ///< pre-merge accepted witnesses
    std::uint64_t checkpoint_shards_saved = 0;
    std::uint64_t checkpoint_shards_replayed = 0;
    int suites_done = 0;   ///< suites whose pass fully drained
    int suites_total = 0;  ///< suites in this synthesis call
    double seconds = 0.0;  ///< wall time since the synthesis call started
};

/// Synthesis knobs.
struct SynthesisOptions {
    int min_bound = 2;         ///< smallest event count to try
    /// Largest event count (inclusive). At most elt::kMaxBitEvents (64):
    /// larger programs are invalid (Program::validate), so a bigger bound
    /// finds nothing new; elt_synth rejects --bound above 64.
    int bound = 5;
    int max_threads = 2;
    int max_vas = 2;
    int max_fresh_pas = 1;
    bool allow_rmw = true;
    bool allow_fences = true;
    bool allow_full_flush = false;   ///< extension: INVLPGALL events
    bool dirty_bit_as_rmw = false;   ///< section III-A2 ablation
    bool require_minimal = true;     ///< spanning-set minimality pruning
    /// Canonical-program deduplication at the merge: keep the earliest
    /// candidate's test of each canonical key. Off keeps every accepted
    /// test (the symmetry ablation); the search itself is the same.
    bool dedup = true;
    /// Wall-time budget of the synthesis call, which is one pass over
    /// every target on either backend; 0 = unlimited (the paper used one
    /// week).
    double time_budget_seconds = 0;
    Backend backend = Backend::kEnumerative;

    /// SAT backend only: how many structure bases each probe session
    /// (mtm/incremental.h) caches, the live one included (see
    /// mtm::IncrementalEncoding::set_base_cache_capacity; 0 and 1 both
    /// disable caching). Purely a performance knob — the synthesized suite
    /// is byte-identical for every capacity (the differential tests sweep
    /// 0 vs the default).
    int sat_base_cache_capacity = 8;

    int jobs = 1;  ///< scheduler workers; 0 = one per hardware thread

    /// Shard granularity: the skeleton-prefix depth every event bound of a
    /// pass is partitioned at, one job per shard. 0 (default) = the static
    /// rule of pass_shard_depth; N >= 1 = fixed depth N. The synthesized
    /// suite is identical for every setting.
    int shard_depth = 0;

    /// Observability (src/obs/, docs/observability.md). Both knobs are
    /// purely observational: they never influence search order, tickets, or
    /// the merge, so the determinism contract holds with them on or off
    /// (asserted by tests/obs_test.cpp).
    ///
    /// When true the run carries a per-worker obs::MetricsRegistry and
    /// attributes candidate-evaluation time to the fixed phase taxonomy
    /// (SuiteResult::phases); solver wall-timing is enabled on the
    /// per-worker solvers. Off (default) costs one null check per
    /// instrumentation point and zero clock reads.
    bool collect_metrics = false;

    /// When true the run carries a per-pass obs::AllocTracker and every
    /// shard job binds its worker thread to it, so operator-new calls are
    /// attributed to the active phase / call-site bucket
    /// (SuiteResult::allocs). Off (default) costs one thread-local pointer
    /// test per allocation (the process-wide proxy counter is always on).
    bool track_allocs = false;

    /// Progress heartbeat: when set, a sampling thread inside the
    /// synthesis call invokes this roughly every
    /// progress_interval_seconds with a SynthesisProgress snapshot (and
    /// once more when the run drains). The callback runs on that sampling
    /// thread — keep it cheap and thread-safe. Purely observational.
    std::function<void(const SynthesisProgress&)> progress;
    double progress_interval_seconds = 2.0;

    /// When non-null, shard jobs are recorded as spans on their workers'
    /// lanes and the pass as one span on the main lane. The collector must
    /// have at least resolve_jobs(jobs) worker lanes plus the main lane
    /// and must outlive the synthesis call. nullptr (default) disables
    /// recording.
    obs::TraceCollector* trace = nullptr;

    /// Robustness knobs (docs/robustness.md). All default to off / inert,
    /// and when inert cost at most a relaxed load per candidate — the
    /// fault-tolerant runtime is always compiled in but never perturbs a
    /// fault-free run.

    /// Cooperative cancellation: shard jobs, the candidate loop, and the
    /// SAT search poll this token and stop within milliseconds of a
    /// request, still merging the deterministic partial suite
    /// (SuiteResult::cancelled / complete report the early exit). The
    /// default token is inert (never cancels); the CancelSource behind a
    /// real one must outlive the synthesis call.
    util::CancelToken cancel;

    /// Fault containment: how many times a shard job whose search escaped
    /// with an exception is re-enqueued before being quarantined into
    /// SuiteResult::failures. Retries re-search the identical shard with a
    /// rebuilt solver; the min-ticket merge makes a retried shard's
    /// contribution byte-identical, so transient faults never change the
    /// suite.
    int shard_retry_limit = 2;

    /// SAT backend only: per-solve conflict budget (0 = unlimited). A
    /// solve that exhausts the budget without a decisive verdict raises
    /// sat::BudgetExhausted, which the engine treats as a retryable shard
    /// fault — deterministic, so it quarantines once the retry budget runs
    /// out rather than looping.
    std::int64_t sat_conflict_budget = 0;

    /// Deterministic fault injection (tests / CI only): when non-null,
    /// probes at each fault site ask the plan whether to throw. Firing is a
    /// pure function of (seed, site, candidate key, attempt), so injected
    /// faults reproduce across jobs counts and scheduling. Must outlive the
    /// synthesis call.
    const util::FaultPlan* fault_plan = nullptr;

    /// Crash-safe checkpointing: when non-null, every completed shard task
    /// that visited a candidate is journaled, and tasks found in the
    /// journal (from a previous run of the same configuration) are replayed
    /// instead of re-searched. Must outlive the synthesis call.
    CheckpointJournal* checkpoint = nullptr;
};

/// A shard job that kept faulting past the retry budget: its identity and
/// the error that quarantined it, surfaced in SuiteResult::failures so a
/// partial suite is diagnosable rather than silently short.
struct ShardFailure {
    std::string shard;   ///< human-readable task identity (pass + prefix)
    std::string error;   ///< what() of the final attempt's exception
    int attempts = 0;    ///< total attempts made (initial + retries)
};

/// One synthesized ELT.
struct SynthesizedTest {
    elt::Execution witness;             ///< a forbidden execution of the test
    std::string canonical_key;
    int size = 0;                       ///< event count (instruction bound)
    std::vector<std::string> violated;  ///< axioms the witness violates
};

/// A per-axiom suite: one target's projection of the pass that searched
/// it.
///
/// The counters keep their per-axiom meaning whatever the pass's target
/// set: programs_considered counts the candidates searched for this axiom
/// (eligible for it and, under require_minimal, not barren for it: see
/// barren_axioms), executions_considered the executions visited before
/// this axiom settled on each of them, and duplicates_rejected the
/// accepted tests the merge dropped because an earlier candidate's test
/// has the same canonical key.
/// All three are the same at every worker count and shard depth.
/// Work the pass shares between its targets — scheduler, solver, phases,
/// allocs — is reported once, on the pass's first suite (the other suites
/// of a multi-target pass carry zeros), so sums over suites count it once.
/// seconds, complete, cancelled and failures describe the pass and appear
/// on each of its suites.
struct SuiteResult {
    std::string axiom;
    /// The target set of the pass that searched this suite: its axiom
    /// names, '+'-joined in axiom order (just `axiom` for a one-target
    /// pass). The pass's shared counters are on the suite whose axiom is
    /// its first name.
    std::string pass;
    std::vector<SynthesizedTest> tests;  ///< sorted by canonical key
    std::uint64_t programs_considered = 0;
    std::uint64_t executions_considered = 0;
    std::uint64_t duplicates_rejected = 0;
    /// Search wall time of the pass: from its launch, when its time budget
    /// starts, until its last shard job finished.
    double seconds = 0.0;
    /// False when the suite is partial: the time budget expired, the run
    /// was cancelled, or shards were quarantined after repeated faults.
    bool complete = false;
    bool cancelled = false;  ///< the cancel token fired during the pass
    /// Shards quarantined after exhausting the retry budget (empty on a
    /// healthy run). Deterministic faults land here; transient ones are
    /// absorbed by retries and only show up in scheduler.shard_retries.
    std::vector<ShardFailure> failures;
    sched::SchedulerStats scheduler;  ///< runtime counters for the pass
    /// SAT-solver counters summed across every per-worker solver the pass
    /// used (lifetime_stats, so per-program reset() cycles are included).
    /// All-zero under the enumerative backend; solve_nanos is populated
    /// only when SynthesisOptions::collect_metrics enabled solver timing.
    sat::SolverStats solver;
    /// Phase-attributed time/count breakdown (per-phase latency
    /// histograms included); all-zero unless
    /// SynthesisOptions::collect_metrics was set.
    obs::PhaseTotals phases;
    /// Phase/site-attributed allocation breakdown; all-zero unless
    /// SynthesisOptions::track_allocs was set.
    obs::AllocTotals allocs;
};

/// Synthesizes the suite of unique, minimal, interesting ELT programs whose
/// executions can violate each target axiom in \p targets (a nonzero mask
/// over model.axioms()), over all sizes in [min_bound, bound], and returns
/// the suites in axiom order, from one pass over every target on either
/// backend. Builds a private options.jobs-worker pool for the pass; each
/// suite is independent of the worker count, the shard depth and the rest
/// of the target set (see the determinism contract above).
/// Thread-safe for concurrent calls with distinct models.
std::vector<SuiteResult> synthesize_pass(const mtm::Model& model,
                                         mtm::AxiomMask targets,
                                         const SynthesisOptions& options);

/// The one-target pass: the suite for \p axiom_name alone.
SuiteResult synthesize_suite(const mtm::Model& model,
                             const std::string& axiom_name,
                             const SynthesisOptions& options);

/// Runs one synthesize_suite per axiom of the model, one after another, and
/// returns the suites in axiom order (the paper's five per-axiom suites for
/// x86t_elt) — the per-axiom reference the fused pass is tested against.
std::vector<SuiteResult> synthesize_all(const mtm::Model& model,
                                        const SynthesisOptions& options);

/// synthesize_pass over every axiom of the model: the same suites as
/// synthesize_all — asserted by the test suite — in the same axiom order,
/// from one pass over the candidate space.
std::vector<SuiteResult> synthesize_all_parallel(
    const mtm::Model& model, const SynthesisOptions& options);

/// Counts the unique ELT programs across suites (tests violating several
/// axioms appear in several suites but count once).
int unique_test_count(const std::vector<SuiteResult>& suites);

/// The skeleton options a one-target pass for \p axiom_name searches at
/// event bound \p size — synthesis knobs plus the static pruning flags of
/// the axiom's structural requirements. Exposed so tools, benches and tests
/// replaying parts of the search enumerate exactly the candidate space the
/// engine does.
SkeletonOptions engine_skeleton_options(const mtm::Model& model,
                                        const std::string& axiom_name,
                                        const SynthesisOptions& options,
                                        int size);

/// The skeleton options a pass over \p targets searches: only the prunes
/// of the requirements all of its targets share; the rest are checked per
/// candidate (eligible_axioms). For a one-bit mask this equals the
/// axiom-name overload.
SkeletonOptions engine_skeleton_options(const mtm::Model& model,
                                        mtm::AxiomMask targets,
                                        const SynthesisOptions& options,
                                        int size);

/// Per-axiom eligibility bits of a candidate: bit i is set when \p program
/// has every structural feature a violation of model.axioms()[i]
/// necessarily requires. The features are a PTE write, an rmw pair and a
/// data access without a page-table walk (a TLB hit). An axiom requires a
/// feature when it holds trivially once the relations that need the
/// feature are empty (fr_va, remap, rf_pa, co_pa and fr_pa; rmw;
/// ptw_source): its expression then reduces to nothing, or, under
/// acyclic or irreflexive, to a union within {rf, rfe, co, fr} or within
/// {po, ppo, po_mem, po_loc, fence}. In x86t_elt that is invlpg,
/// rmw_atomicity and tlb_causality; axioms without requirements are always
/// eligible. The same predicate the skeleton prunes of
/// engine_skeleton_options apply, so a one-target pruned stream is exactly
/// the unpruned stream filtered by the axiom's bit. Invariant under
/// canonical_key's symmetries.
mtm::AxiomMask eligible_axioms(const mtm::Model& model,
                               const elt::Program& program);

/// Per-axiom barrenness bits of a candidate: bit i is set when \p program
/// holds an event whose isolated removal keeps every violation of
/// model.axioms()[i], so no execution of it is a minimal violation of
/// that axiom and it can never yield a test for it. The judge removes an
/// MFENCE, a spurious INVLPG or an INVLPGALL alone, and the relaxed
/// execution stays well-formed. Such a removal keeps the axiom's verdict
/// when the axiom reads nothing that sees the event (po, `fence`, `[F]`,
/// `[User]` or `^*` for a fence; po, `[Invlpg]` or `^*` for an INVLPG), or
/// when it is acyclic over a plain union of base relations whose only
/// members touching the event are po and, for a fence, `fence` with
/// po_mem in the union, or with ppo in the union when the fence orders no
/// write-like -> read-like pair of its thread. Read off each axiom's
/// expression, like eligible_axioms, and invariant under canonical_key's
/// symmetries. Under SynthesisOptions::require_minimal a pass searches a
/// candidate only for its eligible targets that are not barren. Kept out
/// of eligible_axioms, which equals the skeleton prunes.
mtm::AxiomMask barren_axioms(const mtm::Model& model,
                             const elt::Program& program);

/// Ticket stride between shards: shard i of a pass numbers its candidates
/// from i * kTicketStride, so ticket order across all shards equals the
/// sequential enumeration order.
inline constexpr std::uint64_t kTicketStride = std::uint64_t{1} << 40;

/// The static sharding rule's target: the default depth is the smallest at
/// which the pass's largest event size splits into at least this many
/// shards: shard costs differ by orders of magnitude, and many small jobs
/// let the one job queue even them out.
inline constexpr std::size_t kMinShardsPerPass = 512;

/// The skeleton-prefix depth a pass over \p targets partitions every event
/// bound at: options.shard_depth when set, else the smallest depth at which
/// partition_skeletons_at_depth splits the pass's largest event size
/// (options.bound) into at least kMinShardsPerPass shards, stopping early
/// once one more level no longer adds shards. A pure function of the
/// pass's skeleton options: options.jobs plays no part, so the job list —
/// jobs_run and every checkpoint task id — is the same at every worker
/// count.
int pass_shard_depth(const mtm::Model& model, mtm::AxiomMask targets,
                     const SynthesisOptions& options);

}  // namespace transform::synth
