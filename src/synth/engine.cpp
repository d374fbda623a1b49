#include "synth/engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "elt/derive.h"
#include "mtm/encoding.h"
#include "mtm/incremental.h"
#include "obs/alloc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "sched/sharded_index.h"
#include "synth/canonical.h"
#include "synth/checkpoint.h"
#include "synth/exec_enum.h"
#include "synth/minimality.h"
#include "synth/skeleton.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace transform::synth {

using elt::Execution;
using elt::Program;

namespace {

/// Static per-axiom requirements: structural features a violation of the
/// axiom necessarily requires. Sound (never drops a violating program) and
/// a large win for the rarer axioms. A pass applies them in two places that
/// must agree: the requirements every target shares prune the skeleton
/// stream (engine_skeleton_options), and Eligibility checks each candidate
/// against the rest.
struct AxiomRequirements {
    bool wpte = false;  ///< a PTE write
    bool rmw = false;   ///< an rmw pair
    /// A data access without a page-table walk: a TLB hit.
    bool shared_walk = false;
};

AxiomRequirements
axiom_requirements(const std::string& axiom)
{
    AxiomRequirements req;
    if (axiom == "invlpg") {
        // fr_va and remap edges both start/end at a PTE write.
        req.wpte = true;
    } else if (axiom == "rmw_atomicity") {
        req.rmw = true;
    } else if (axiom == "tlb_causality") {
        // ptw_source needs a walk with a second user: a TLB hit.
        req.shared_walk = true;
    }
    return req;
}

void
set_axiom_requirements(const AxiomRequirements& req,
                       SkeletonOptions* skeleton)
{
    skeleton->require_wpte = req.wpte;
    skeleton->require_rmw = req.rmw;
    skeleton->require_shared_walk = req.shared_walk;
}

/// The per-candidate form of the skeleton prunes: the axioms whose
/// requirements a program meets. Each prune is a pure filter on a
/// program-level feature (the skeleton checks the slots those features
/// come from), so a pruned stream is the unpruned stream filtered by this
/// predicate, and its features are invariant under the thread, VA and PA
/// renamings canonical_key factors out.
class Eligibility {
  public:
    explicit Eligibility(const mtm::Model& model)
    {
        for (std::size_t i = 0; i < model.axioms().size(); ++i) {
            const mtm::AxiomMask bit = mtm::AxiomMask{1} << i;
            const AxiomRequirements req =
                axiom_requirements(model.axioms()[i].name);
            all_ |= bit;
            need_wpte_ |= req.wpte ? bit : 0;
            need_rmw_ |= req.rmw ? bit : 0;
            need_shared_walk_ |= req.shared_walk ? bit : 0;
        }
    }

    mtm::AxiomMask
    of(const Program& program) const
    {
        bool wpte = false;
        int accesses = 0;
        int walks = 0;
        for (const elt::Event& event : program.events()) {
            wpte = wpte || event.kind == elt::EventKind::kWpte;
            accesses += event.kind == elt::EventKind::kRead ||
                        event.kind == elt::EventKind::kWrite;
            walks += event.kind == elt::EventKind::kRptw;
        }
        mtm::AxiomMask eligible = all_;
        if (!wpte) {
            eligible &= ~need_wpte_;
        }
        if (program.rmw_pairs().empty()) {
            eligible &= ~need_rmw_;
        }
        // Every Rptw hangs off its own data access (Program::validate), so
        // some access lacks a walk iff accesses outnumber walks.
        if (accesses <= walks) {
            eligible &= ~need_shared_walk_;
        }
        return eligible;
    }

  private:
    mtm::AxiomMask all_ = 0;
    mtm::AxiomMask need_wpte_ = 0;
    mtm::AxiomMask need_rmw_ = 0;
    mtm::AxiomMask need_shared_walk_ = 0;
};

/// The synthesis knobs of a skeleton search at event bound \p size, with
/// no per-axiom prunes.
SkeletonOptions
base_skeleton_options(const mtm::Model& model,
                      const SynthesisOptions& options, int size)
{
    SkeletonOptions skeleton;
    skeleton.num_events = size;
    skeleton.max_threads = options.max_threads;
    skeleton.max_vas = options.max_vas;
    skeleton.max_fresh_pas = options.max_fresh_pas;
    skeleton.vm_enabled = model.vm_aware();
    skeleton.allow_rmw = options.allow_rmw;
    skeleton.allow_fences = options.allow_fences;
    skeleton.allow_full_flush = options.allow_full_flush;
    skeleton.dirty_bit_as_rmw = options.dirty_bit_as_rmw;
    return skeleton;
}

/// A witness the fused search accepted for a candidate: the execution, the
/// targets it settles (violated, eligible, and without a witness until
/// it), its full violated mask, and how many executions the search had
/// visited when it was found.
struct AcceptedWitness {
    mtm::AxiomMask targets = 0;
    mtm::AxiomMask violated = 0;
    std::uint64_t executions = 0;
    Execution witness;
};

/// Per-worker reusable buffers for the candidate-evaluation hot path:
/// derivation output + scratch, the judge's buffers, and the
/// canonicalizer's tables. One per (pass, worker); a worker runs one job
/// at a time, so jobs index into the pass's vector with their worker id.
struct WorkerScratch {
    elt::DerivedRelations derived;
    elt::DeriveScratch derive;
    JudgeScratch judge;
    CanonicalScratch canonical;
    mtm::EncodingScratch encoding;  ///< SAT backend: factory + solver reuse
    /// SAT backend with sat_incremental: the worker's live solver session
    /// (configured per pass by launch_pass; idle otherwise).
    mtm::IncrementalEncoding incremental;
    /// The current candidate's accepted witnesses (find_witnesses clears
    /// it per candidate; only an acceptance copies an execution in).
    std::vector<AcceptedWitness> accepted;
    /// Fault injection (docs/robustness.md): the pass's plan plus the
    /// probe identity of the candidate under evaluation — set per job and
    /// per candidate by search_shard, so firing is a pure function of
    /// (seed, site, candidate ticket, attempt), never of scheduling. Null
    /// plan (the default) costs one pointer check per probe.
    const util::FaultPlan* fault_plan = nullptr;
    std::uint64_t fault_key = 0;
    int fault_attempt = 0;
};

/// Searches \p program's execution space for the first violating,
/// interesting, minimal witness of every target in \p eligible (any one
/// witness per target suffices: minimality and dedup are program-level
/// once a forbidden witness exists). Each execution is derived and masked
/// once. It is judged only when it violates a target that has no witness
/// yet, reusing that derivation; minimality does not depend on the axiom,
/// so a minimal execution is the witness of every target it violates that
/// is still open. The search stops once every eligible target is settled.
/// Accepted witnesses land in scratch->accepted, the search's only copies
/// of an execution. Returns the executions visited; a target without a
/// witness settled only when the search ended. \p sat_axiom names the
/// (single) target under the SAT backend.
std::uint64_t
find_witnesses(const mtm::Model& model, mtm::AxiomMask eligible,
               const std::string& sat_axiom, const SynthesisOptions& options,
               const Program& program, const util::Deadline& deadline,
               WorkerScratch* scratch, obs::MetricsRegistry* metrics,
               int worker, bool* timed_out, bool* cancelled)
{
    scratch->accepted.clear();
    if (!contains_write(program)) {
        return 0;  // never interesting: skip the whole execution space
    }
    mtm::AxiomMask open = eligible;
    std::uint64_t considered = 0;
    auto consider = [&](const Execution& execution) {
        ++considered;
        if (deadline.expired()) {
            *timed_out = true;
            return false;
        }
        if (options.cancel.requested()) {
            *cancelled = true;
            return false;
        }
        if (scratch->fault_plan != nullptr) {
            scratch->fault_plan->maybe_fire(util::FaultSite::kDerive,
                                            scratch->fault_key,
                                            scratch->fault_attempt);
        }
        mtm::AxiomMask violated{};
        {
            const obs::ScopedPhase phase(metrics, worker,
                                         obs::Phase::kDerive);
            elt::derive_into(execution, model.derive_options(),
                             &scratch->derived, &scratch->derive);
            if (!scratch->derived.well_formed) {
                return true;
            }
            violated = model.violated_mask(program, scratch->derived,
                                           &scratch->derive.cycle);
        }
        const mtm::AxiomMask settles = violated & open;
        if (settles == 0) {
            return true;
        }
        if (options.require_minimal) {
            if (scratch->fault_plan != nullptr) {
                scratch->fault_plan->maybe_fire(util::FaultSite::kJudge,
                                                scratch->fault_key,
                                                scratch->fault_attempt);
            }
            // The judge attributes its own phases (kJudge for verdicts,
            // kRelax for relaxation rebuilds) via scratch->judge.metrics,
            // set per job in search_shard.
            if (!judge(model, execution, violated, &scratch->judge)
                     .minimal) {
                return true;
            }
        }
        scratch->accepted.push_back({settles, violated, considered,
                                     execution});
        open &= ~settles;
        return open != 0;  // stop once every target has its witness
    };

    // Streaming AllSAT: consider() returning false stops the solver at
    // the first accepted witness instead of materializing the whole
    // violating space. The worker's factory/solver pair is reused across
    // every program of the shard. With sat_incremental, the search first
    // PROBES through the worker's live assumption-based session (no
    // per-candidate encoding; candidate order within a structure reuses
    // one solver and its learned clauses). A probe acceptance only proves
    // existence — the live solver's model order differs from a fresh
    // solver's — so accepted candidates (the rare case) REPLAY through
    // the fresh per-program encoding, reproducing the non-incremental
    // witness and executions_considered byte for byte. Rejected
    // candidates enumerate the same violating set either way, so the
    // probe's execution count stands.
    auto sat_search = [&]() {
        // Allocations of the encode/solve machinery land in kSatEncode
        // (the time split between encode and solve comes from the solver's
        // gated clock; the alloc split is not worth a second seam).
        // consider()'s ScopedPhase sections re-tag their own allocations.
        const obs::ScopedAllocPhase alloc_phase(obs::Phase::kSatEncode);
        if (scratch->fault_plan != nullptr) {
            scratch->fault_plan->maybe_fire(util::FaultSite::kSatSolve,
                                            scratch->fault_key,
                                            scratch->fault_attempt);
        }
        if (options.sat_incremental) {
            scratch->incremental.enumerate(program, consider);
            if (scratch->accepted.empty() || *timed_out) {
                return;
            }
            // The replay recounts from scratch.
            considered = 0;
            open = eligible;
            scratch->accepted.clear();
            // Note the replay re-derives and re-judges the executions the
            // probe already visited: derive/judge phase totals honestly
            // include that duplicated work (~4% of candidates accept).
        }
        mtm::ProgramEncoding encoding(program, &model, &scratch->encoding);
        encoding.enumerate(sat_axiom, consider);
    };

    if (options.backend == Backend::kEnumerative) {
        for_each_execution(program, model.vm_aware(), consider);
    } else if (metrics == nullptr) {
        sat_search();
    } else {
        // Same search, with phase attribution. kSatSolve comes from the
        // solvers' own gated clocks (set_timing) — the fresh per-program
        // solver plus, under sat_incremental, the live session's backend —
        // and kSatEncode is the remaining wall time of the encode+enumerate
        // pair after subtracting solve time and the derive/judge time
        // consider() already claimed above — so the phases never
        // double-count.
        auto solve_nanos = [&]() {
            std::uint64_t nanos =
                scratch->encoding.solver.lifetime_stats().solve_nanos;
            if (options.sat_incremental) {
                // Session-level: sums the live base's backend and every
                // cached base's.
                nanos += scratch->incremental.lifetime_stats().solve_nanos;
            }
            return nanos;
        };
        const auto inner_nanos = [&]() {
            return metrics->worker_phase_nanos(worker, obs::Phase::kDerive) +
                   metrics->worker_phase_nanos(worker, obs::Phase::kJudge) +
                   metrics->worker_phase_nanos(worker, obs::Phase::kRelax);
        };
        const std::uint64_t start = obs::now_nanos();
        const std::uint64_t inner_before = inner_nanos();
        const std::uint64_t solve_before = solve_nanos();
        sat_search();
        const std::uint64_t wall = obs::now_nanos() - start;
        const std::uint64_t solve = solve_nanos() - solve_before;
        const std::uint64_t inner = inner_nanos() - inner_before;
        metrics->add(worker, obs::Phase::kSatSolve, solve);
        metrics->add(worker, obs::Phase::kSatEncode,
                     wall > solve + inner ? wall - solve - inner : 0);
    }
    return considered;
}

/// One unit of search: a skeleton shard of the pass's static partition
/// and the first ticket of its kTicketStride-wide range.
struct ShardTask {
    SkeletonShard shard;
    std::uint64_t ticket_base = 0;
    /// Fault containment: which attempt at this task this is (0 = first).
    /// Retries bump it — it bounds the retry budget and keys the
    /// fault-injection probes, so a plan with attempts=1 faults the first
    /// attempt and lets the retry through.
    int attempt = 0;
};

/// One target axiom of a pass: its suite's counters and pre-merge tests.
struct PassTarget {
    std::string axiom;
    mtm::AxiomMask bit = 0;  ///< the axiom's bit in the model's masks
    std::atomic<std::uint64_t> programs{0};
    std::atomic<std::uint64_t> executions{0};
    std::atomic<std::uint64_t> duplicates{0};
    /// Accepted tests with their merge tickets (guarded by PassRun::mu).
    std::vector<std::pair<SynthesizedTest, std::uint64_t>> merged;
};

/// All in-flight state of one pass: the job closures reference it, so it
/// outlives the group (launch_pass ... pool.wait ... finish_pass). One
/// PassRun maps to one sched job group; several PassRuns can share one
/// pool (the SAT backend's per-axiom passes).
struct PassRun {
    PassRun(const mtm::Model& source, mtm::AxiomMask target_mask,
            const SynthesisOptions& opts)
        : model(source.name(), source.vm_aware(), source.axioms()),
          targets(static_cast<std::size_t>(std::popcount(target_mask))),
          mask(target_mask), eligibility(model), options(opts),
          deadline(opts.time_budget_seconds)
    {
        std::size_t k = 0;
        for (std::size_t i = 0; i < model.axioms().size(); ++i) {
            const mtm::AxiomMask bit = mtm::AxiomMask{1} << i;
            if ((mask & bit) == 0) {
                continue;
            }
            targets[k].axiom = model.axioms()[i].name;
            targets[k].bit = bit;
            name += (k == 0 ? "" : "+") + targets[k].axiom;
            ++k;
        }
    }

    /// The per-pass time budget starts ticking when the pass's FIRST
    /// shard job actually runs, not at submission: on a shared pool (the
    /// SAT backend's per-axiom passes) a later pass's jobs queue behind
    /// earlier passes', and charging that queue wait against the budget
    /// would starve late passes. (Once running, the budget is still wall
    /// time and may overlap other passes' shards — the budget bounds
    /// latency, not dedicated compute.)
    ///
    /// SuiteResult::seconds follows the same clock: the watch restarts
    /// here, so a queued pass reports its search time, not search + queue
    /// wait; the wait is reported separately as
    /// SchedulerStats::queue_wait_seconds. Safe despite running on a
    /// worker thread: call_once orders it against every other job, and
    /// finish_pass reads the watch only after pool.wait() on the group.
    const util::Deadline&
    armed_deadline()
    {
        std::call_once(deadline_armed, [this] {
            queue_wait_seconds.store(watch.elapsed_seconds(),
                                     std::memory_order_relaxed);
            watch.restart();
            deadline = util::Deadline(options.time_budget_seconds);
        });
        return deadline;
    }

    /// One private copy per pass; every shard job of the pass shares it by
    /// const reference — the axiom closures are stateless, so concurrent
    /// evaluation through one Model is safe without per-job deep copies.
    const mtm::Model model;
    /// The target axioms, in axiom order; one suite each.
    std::vector<PassTarget> targets;
    const mtm::AxiomMask mask;  ///< the targets' bits
    /// The targets' names '+'-joined: the pass's identity in task ids,
    /// traces and quarantine records (the axiom itself for one target).
    std::string name;
    const Eligibility eligibility;
    const SynthesisOptions options;
    /// Per-worker evaluation scratch, indexed by the pool worker id a job
    /// runs on (sized workers() at launch; a worker runs one job at a time).
    std::vector<WorkerScratch> worker_scratch;
    /// Phase-attributed counters (options.collect_metrics); null when
    /// metrics are off — the instrumentation's disabled fast path.
    std::unique_ptr<obs::MetricsRegistry> metrics;
    util::Stopwatch watch;
    std::once_flag deadline_armed;
    util::Deadline deadline;  ///< access via armed_deadline() from jobs
    sched::ShardedKeyIndex index;
    sched::ThreadPool::GroupHandle group;

    /// Candidates visited, eligible for a target or not (the progress
    /// heartbeat's count; suites count their eligible ones).
    std::atomic<std::uint64_t> candidates{0};
    std::atomic<double> queue_wait_seconds{0.0};
    std::atomic<double> search_seconds{0.0};
    std::atomic<bool> timed_out{false};
    std::atomic<bool> cancelled{false};
    std::atomic<std::uint64_t> shard_retries{0};
    std::atomic<std::uint64_t> shards_quarantined{0};
    std::atomic<std::uint64_t> ckpt_saved{0};
    std::atomic<std::uint64_t> ckpt_replayed{0};
    /// The run's checkpoint journal (options.checkpoint; null = off).
    CheckpointJournal* journal = nullptr;
    /// Phase/site-attributed allocation cells (options.track_allocs);
    /// null when tracking is off — shard jobs then never bind a tracker.
    std::unique_ptr<obs::AllocTracker> allocs;

    /// Progress-heartbeat counters (options.progress): jobs submitted /
    /// drained (initial shards and retries) and pre-merge accepted
    /// witnesses.
    std::atomic<std::uint64_t> jobs_submitted{0};
    std::atomic<std::uint64_t> jobs_done{0};
    std::atomic<std::uint64_t> tests_found{0};

    /// Every shard job calls this on completion, so search_seconds ends up
    /// holding arm-to-last-job wall time — finish_pass cannot read the
    /// watch itself, because on a shared pool it only runs after EVERY
    /// pass's group drained, which would charge an early pass for the later
    /// passes' tail.
    void
    note_job_finished()
    {
        const double elapsed = watch.elapsed_seconds();
        double prev = search_seconds.load(std::memory_order_relaxed);
        while (prev < elapsed &&
               !search_seconds.compare_exchange_weak(
                   prev, elapsed, std::memory_order_relaxed)) {
        }
    }

    std::mutex mu;  ///< guards the targets' merged tests + failures
    std::vector<ShardFailure> failures;  ///< quarantined shards

    /// Builds the job for a ShardTask; fault retries build jobs from inside
    /// running jobs, so it lives here rather than on the launch_pass stack.
    std::function<sched::ThreadPool::Job(ShardTask)> make_job;
};

/// Runs the actual search of one shard, splices its results into the run,
/// and — when the run journals and the search completed — appends the
/// shard's record. Candidates are numbered base + position; the ticket
/// range must stay inside kTicketStride so neighbouring ranges never
/// overlap, which no shard comes near, and hitting it fails loudly rather
/// than corrupting the deterministic merge. Returns the candidates visited.
/// A shard that visited none is not journaled: on resume it is simply
/// enumerated again, at no cost.
///
/// Every candidate of the pass's stream takes a ticket; one eligible for
/// no target is skipped without canonicalization. An eligible one counts
/// toward each eligible target's suite, claims its key in the pass's one
/// dedup index (eligibility is invariant under canonical_key's symmetries,
/// so every candidate sharing a key is eligible for the same targets, and
/// the key's minimum ticket is also the minimum of every eligible target's
/// subsequence), and runs one fused witness search for all its targets.
std::uint64_t
search_shard(PassRun* run, const ShardTask& task, int worker,
             std::uint64_t task_id)
{
    const mtm::Model& model = run->model;
    WorkerScratch& scratch = run->worker_scratch[worker];
    obs::MetricsRegistry* metrics = run->metrics.get();
    scratch.judge.metrics = metrics;
    scratch.judge.worker = worker;
    scratch.fault_plan = run->options.fault_plan;
    scratch.fault_attempt = task.attempt;
    const SynthesisOptions& options = run->options;
    const util::Deadline& deadline = run->armed_deadline();
    // This job's share of each target's suite, in run->targets order.
    std::vector<CheckpointJournal::TargetRecord> found(run->targets.size());
    std::uint64_t candidates = 0;
    bool timed_out = false;
    bool cancelled = false;
    for_each_skeleton(task.shard, [&](const Program& program) {
        if (deadline.expired()) {
            timed_out = true;
            return false;
        }
        if (options.cancel.requested()) {
            cancelled = true;
            return false;
        }
        if (candidates == kTicketStride) {
            TF_FATAL("shard ticket range exhausted (" << kTicketStride
                     << " candidates in one shard)");
        }
        const std::uint64_t ticket = task.ticket_base + candidates++;
        const mtm::AxiomMask eligible =
            run->eligibility.of(program) & run->mask;
        if (eligible == 0) {
            return true;  // no target can be violated by this program
        }
        for (std::size_t k = 0; k < found.size(); ++k) {
            found[k].programs += (eligible & run->targets[k].bit) != 0;
        }
        std::string key;
        if (options.dedup) {
            // Claim the key. Only the holder of the minimum ticket
            // evaluates: any earlier candidate with this key is isomorphic
            // and receives the same verdict, so its owner's result (or
            // rejection) stands for ours.
            {
                const obs::ScopedPhase phase(metrics, worker,
                                             obs::Phase::kCanonicalize);
                const obs::ScopedAllocSite site(
                    obs::AllocSite::kSiteCanonicalKey);
                key = canonical_key(program, &scratch.canonical);
            }
            bool is_min = false;
            {
                const obs::ScopedPhase phase(metrics, worker,
                                             obs::Phase::kDedup);
                is_min = run->index.record(key, ticket).is_min;
            }
            if (!is_min) {
                for (std::size_t k = 0; k < found.size(); ++k) {
                    found[k].duplicates +=
                        (eligible & run->targets[k].bit) != 0;
                }
                return true;
            }
        }
        scratch.fault_key = ticket;
        const std::uint64_t considered = find_witnesses(
            model, eligible, run->targets.front().axiom, options, program,
            deadline, &scratch, metrics, worker, &timed_out, &cancelled);
        // Each eligible target counts the executions visited until it
        // settled: at its witness, or at the end of the search.
        for (std::size_t k = 0; k < found.size(); ++k) {
            const mtm::AxiomMask bit = run->targets[k].bit;
            if ((eligible & bit) == 0) {
                continue;
            }
            std::uint64_t executions = considered;
            for (const AcceptedWitness& accepted : scratch.accepted) {
                if ((accepted.targets & bit) != 0) {
                    executions = accepted.executions;
                }
            }
            found[k].executions += executions;
        }
        if (timed_out || cancelled) {
            return false;
        }
        for (const AcceptedWitness& accepted : scratch.accepted) {
            const obs::ScopedAllocSite site(
                obs::AllocSite::kSiteSuiteGrowth);
            SynthesizedTest test;
            test.witness = accepted.witness;
            test.canonical_key =
                options.dedup ? key : canonical_key(program,
                                                    &scratch.canonical);
            test.size = program.num_events();
            test.violated = model.mask_names(accepted.violated);
            for (std::size_t k = 0; k < found.size(); ++k) {
                if ((accepted.targets & run->targets[k].bit) != 0) {
                    found[k].tests.emplace_back(test, ticket);
                }
            }
        }
        return true;
    });
    run->candidates.fetch_add(candidates, std::memory_order_relaxed);
    std::uint64_t tests_found = 0;
    for (std::size_t k = 0; k < found.size(); ++k) {
        PassTarget& target = run->targets[k];
        target.programs.fetch_add(found[k].programs,
                                  std::memory_order_relaxed);
        target.executions.fetch_add(found[k].executions,
                                    std::memory_order_relaxed);
        target.duplicates.fetch_add(found[k].duplicates,
                                    std::memory_order_relaxed);
        tests_found += found[k].tests.size();
    }
    if (timed_out) {
        run->timed_out.store(true, std::memory_order_relaxed);
    }
    if (cancelled) {
        run->cancelled.store(true, std::memory_order_relaxed);
    }
    if (run->journal != nullptr && !timed_out && !cancelled &&
        candidates > 0) {
        // An aborted search is never journaled — the resumed run
        // re-searches it.
        CheckpointJournal::ShardRecord record;
        record.task_id = task_id;
        for (std::size_t k = 0; k < found.size(); ++k) {
            found[k].axiom = run->targets[k].axiom;
        }
        record.targets = found;
        run->journal->append(record);
        run->ckpt_saved.fetch_add(1, std::memory_order_relaxed);
    }
    if (tests_found > 0) {
        run->tests_found.fetch_add(tests_found, std::memory_order_relaxed);
        const obs::ScopedAllocSite site(obs::AllocSite::kSiteSuiteGrowth);
        std::lock_guard<std::mutex> lock(run->mu);
        for (std::size_t k = 0; k < found.size(); ++k) {
            for (auto& entry : found[k].tests) {
                run->targets[k].merged.push_back(std::move(entry));
            }
        }
    }
    return candidates;
}

/// Human-readable identity of a shard task for a quarantine record.
std::string
describe_task(const PassRun& run, const ShardTask& task)
{
    std::ostringstream out;
    out << run.name << " events=" << task.shard.options.num_events
        << " prefix=[";
    for (std::size_t i = 0; i < task.shard.prefix.size(); ++i) {
        out << (i == 0 ? "" : ",") << task.shard.prefix[i];
    }
    out << "]";
    return out.str();
}

/// Contains a shard fault (docs/robustness.md, "Fault containment"): the
/// job's search escaped with an exception. Rebuilds the worker's possibly
/// poisoned solver state, then retries the identical task with the attempt
/// counter bumped — or quarantines it into SuiteResult::failures once the
/// retry budget is spent. Safe to re-run the task: the throw left no
/// partial results (tests and counters flush only when a search pass
/// completes), and the dedup index records the aborted pass made are
/// idempotent under the retry's equal tickets, so a retried shard's
/// contribution is byte-identical to a fault-free run's.
void
recover_and_reschedule(PassRun* raw, sched::ThreadPool* pool_ptr,
                       const ShardTask& task, int worker, const char* what)
{
    const SynthesisOptions& options = raw->options;
    WorkerScratch& scratch = raw->worker_scratch[worker];
    // The fresh-path solver may be mid-encoding and the incremental
    // session mid-enumeration; reset both so the worker's next job starts
    // clean. configure() keeps session configuration (timing, conflict
    // budget, interrupt, cache capacity) and rebuilds the solver state.
    scratch.encoding.solver.reset();
    if (options.backend == Backend::kSat && options.sat_incremental) {
        scratch.incremental.configure(&raw->model,
                                      raw->targets.front().axiom,
                                      options.max_vas,
                                      options.max_vas +
                                          options.max_fresh_pas);
    }
    obs::TraceCollector* trace = options.trace;
    if (options.cancel.requested()) {
        raw->cancelled.store(true, std::memory_order_relaxed);
    } else if (raw->armed_deadline().expired()) {
        raw->timed_out.store(true, std::memory_order_relaxed);
    } else if (task.attempt < options.shard_retry_limit) {
        raw->shard_retries.fetch_add(1, std::memory_order_relaxed);
        if (trace != nullptr) {
            trace->record_instant(worker, "shard retry: " + raw->name,
                                  obs::now_nanos());
        }
        ShardTask retry = task;
        retry.attempt = task.attempt + 1;
        raw->jobs_submitted.fetch_add(1, std::memory_order_relaxed);
        pool_ptr->submit(raw->group, raw->make_job(std::move(retry)));
    } else {
        raw->shards_quarantined.fetch_add(1, std::memory_order_relaxed);
        if (trace != nullptr) {
            trace->record_instant(worker,
                                  "shard quarantine: " + raw->name,
                                  obs::now_nanos());
        }
        std::lock_guard<std::mutex> lock(raw->mu);
        raw->failures.push_back(
            {describe_task(*raw, task), what, task.attempt + 1});
    }
    raw->note_job_finished();
}

/// Replays a journaled shard task instead of re-searching it: each target's
/// counters and tests come from the record, and the tests' tickets are
/// re-recorded in the dedup index. Suite byte-identity holds even when only
/// some tasks replay: a kept test's min ticket is in the journal, and a
/// rejected candidate's absence from the index only ever promotes an
/// isomorphic candidate that receives the same rejection. (Counters like
/// dedup_hits can differ in such mixed runs — they are diagnostics; at
/// jobs=1 full replays reproduce them exactly.)
void
replay_shard_record(PassRun* raw, const CheckpointJournal::ShardRecord& rec)
{
    raw->armed_deadline();
    for (const CheckpointJournal::TargetRecord& journaled : rec.targets) {
        const auto target = std::find_if(
            raw->targets.begin(), raw->targets.end(),
            [&](const PassTarget& t) { return t.axiom == journaled.axiom; });
        if (target == raw->targets.end()) {
            continue;  // not this pass's target: the journal is foreign
        }
        target->programs.fetch_add(journaled.programs,
                                   std::memory_order_relaxed);
        target->executions.fetch_add(journaled.executions,
                                     std::memory_order_relaxed);
        target->duplicates.fetch_add(journaled.duplicates,
                                     std::memory_order_relaxed);
        for (const auto& [test, ticket] : journaled.tests) {
            raw->index.record(test.canonical_key, ticket);
        }
        if (!journaled.tests.empty()) {
            raw->tests_found.fetch_add(journaled.tests.size(),
                                       std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(raw->mu);
            for (const auto& entry : journaled.tests) {
                target->merged.push_back(entry);
            }
        }
    }
    raw->ckpt_replayed.fetch_add(1, std::memory_order_relaxed);
    raw->note_job_finished();
}

/// The body of one shard job: replay its journal record or search the
/// shard, behind the fault-containment boundary. The make_job closures wrap
/// this with the observability shell (span + phase accounting). Returns the
/// candidates the search visited (0 for a replay), for the span's args.
std::uint64_t
execute_shard_task(PassRun* raw, sched::ThreadPool* pool_ptr,
                   const ShardTask& task, int worker)
{
    if (raw->options.cancel.requested()) {
        // A cancelled run drains its remaining queue without searching —
        // and without arming the deadline or the search clock, so a suite
        // cancelled before its first real job reports ~0 searched seconds
        // rather than its queue wait.
        raw->cancelled.store(true, std::memory_order_relaxed);
        return 0;
    }
    std::uint64_t task_id = 0;
    if (raw->journal != nullptr) {
        task_id = checkpoint_task_id(raw->name, task.shard, task.ticket_base);
        if (const CheckpointJournal::ShardRecord* rec =
                raw->journal->find(task_id)) {
            replay_shard_record(raw, *rec);
            return 0;
        }
    }
    // Fault containment boundary: everything a shard search can throw —
    // injected faults included — is caught here and turned into a retry or
    // a quarantine record instead of unwinding into the pool (whose
    // backstop would only log it) or std::terminate.
    std::uint64_t visited = 0;
    try {
        if (raw->options.fault_plan != nullptr) {
            raw->options.fault_plan->maybe_fire(
                util::FaultSite::kShardBoundary, task.ticket_base,
                task.attempt);
        }
        visited = search_shard(raw, task, worker, task_id);
    } catch (const std::exception& e) {
        recover_and_reschedule(raw, pool_ptr, task, worker, e.what());
        return 0;
    }
    raw->note_job_finished();
    return visited;
}

/// Builds a PassRun over \p targets and submits its initial shard tasks to
/// \p pool as one job group. The caller must pool.wait(run->group) and
/// then finish_pass().
std::unique_ptr<PassRun>
launch_pass(sched::ThreadPool& pool, const mtm::Model& model,
            mtm::AxiomMask targets, const SynthesisOptions& options)
{
    auto run = std::make_unique<PassRun>(model, targets, options);
    // The SAT witness query is per axiom (synthesize_pass splits).
    TF_ASSERT(options.backend == Backend::kEnumerative ||
              run->targets.size() == 1);
    run->worker_scratch.resize(pool.workers());
    if (options.backend == Backend::kSat && options.sat_incremental) {
        // One live incremental session per worker for the whole pass; the
        // model pointer must be the run's own copy, which outlives every
        // job. The domain bounds cover every candidate the skeleton
        // enumerator can produce (VAs < max_vas; PAs < initial frames +
        // fresh Wpte targets).
        for (WorkerScratch& scratch : run->worker_scratch) {
            scratch.incremental.configure(&run->model,
                                          run->targets.front().axiom,
                                          options.max_vas,
                                          options.max_vas +
                                              options.max_fresh_pas);
            scratch.incremental.set_base_cache_capacity(
                options.sat_base_cache_capacity);
        }
    }
    if (options.collect_metrics) {
        run->metrics = std::make_unique<obs::MetricsRegistry>(pool.workers());
        // Solver wall-timing is configuration, not state: enabled once per
        // worker solver, before any job runs, surviving per-program resets.
        // The solve observer rides the same gated clock reads: every
        // individual solve call lands one latency sample in the worker's
        // kSatSolve histogram (the find_witnesses subtract path keeps
        // attributing the *totals*).
        obs::MetricsRegistry* metrics = run->metrics.get();
        for (int w = 0; w < pool.workers(); ++w) {
            WorkerScratch& scratch = run->worker_scratch[w];
            scratch.encoding.solver.set_timing(true);
            scratch.incremental.set_timing(true);
            const auto observe = [metrics, w](std::uint64_t nanos) {
                metrics->record_latency(w, obs::Phase::kSatSolve, nanos);
            };
            scratch.encoding.solver.set_solve_observer(observe);
            scratch.incremental.set_solve_observer(observe);
        }
    }
    if (options.track_allocs) {
        run->allocs = std::make_unique<obs::AllocTracker>(pool.workers());
    }
    run->journal = options.checkpoint;
    run->group = pool.make_group();
    PassRun* raw = run.get();
    sched::ThreadPool* pool_ptr = &pool;
    if (options.sat_conflict_budget > 0) {
        // Per-solve conflict cap on every per-worker solver (fresh path
        // and incremental sessions). Exhaustion raises BudgetExhausted out
        // of the search, which the fault-containment boundary treats like
        // any other shard fault.
        for (WorkerScratch& scratch : run->worker_scratch) {
            scratch.encoding.solver.set_conflict_budget(
                options.sat_conflict_budget);
            scratch.incremental.set_conflict_budget(
                options.sat_conflict_budget);
        }
    }
    if (options.cancel.valid() || options.time_budget_seconds > 0) {
        // Solver-level interrupt: a long single solve polls cancellation
        // and the deadline every ~1k conflicts, bounding cancel latency
        // even mid-solve. Reading raw->deadline here is safe — every job
        // arms it (call_once) before its first solve runs.
        const auto poll = [raw] {
            return raw->options.cancel.requested() || raw->deadline.expired();
        };
        for (WorkerScratch& scratch : run->worker_scratch) {
            scratch.encoding.solver.set_interrupt(poll);
            scratch.incremental.set_interrupt(poll);
        }
    }

    run->make_job = [raw, pool_ptr](ShardTask task)
        -> sched::ThreadPool::Job {
        return [raw, pool_ptr, task = std::move(task)](int worker) {
            obs::MetricsRegistry* metrics = raw->metrics.get();
            obs::TraceCollector* trace = raw->options.trace;
            obs::AllocTracker* allocs = raw->allocs.get();
            if (allocs != nullptr) {
                // Bound for the whole job: allocations follow the active
                // phase (ScopedPhase keeps it in sync), unclaimed ones
                // land in kSkeletonEnum like unclaimed wall time.
                obs::bind_alloc_tracker(allocs, worker);
            }
            if (metrics == nullptr && trace == nullptr) {
                // Disabled fast path: three null checks, no clock reads.
                execute_shard_task(raw, pool_ptr, task, worker);
            } else {
                const std::uint64_t start = obs::now_nanos();
                const std::uint64_t claimed_before =
                    metrics == nullptr ? 0 : metrics->worker_nanos(worker);
                const std::uint64_t visited =
                    execute_shard_task(raw, pool_ptr, task, worker);
                const std::uint64_t end = obs::now_nanos();
                if (metrics != nullptr) {
                    // Whatever wall time no inner phase claimed is the
                    // candidate generator itself — skeleton enumeration
                    // plus shard framing. This closes the attribution:
                    // per-phase seconds sum to shard-job wall time. Like
                    // every residual attribution it records no latency
                    // sample; job durations are the trace's shard spans.
                    const std::uint64_t claimed =
                        metrics->worker_nanos(worker) - claimed_before;
                    const std::uint64_t wall = end - start;
                    metrics->add(worker, obs::Phase::kSkeletonEnum,
                                 wall > claimed ? wall - claimed : 0);
                }
                if (trace != nullptr) {
                    trace->record_complete(
                        worker, "shard " + raw->name, start, end,
                        {{"events",
                          static_cast<std::uint64_t>(
                              task.shard.options.num_events)},
                         {"visited", visited}});
                }
            }
            if (allocs != nullptr) {
                obs::bind_alloc_tracker(nullptr, 0);
            }
            raw->jobs_done.fetch_add(1, std::memory_order_relaxed);
        };
    };

    // Partition the search space by (event bound, skeleton prefix), every
    // bound at the pass's one depth: one job per shard.
    const int depth = pass_shard_depth(run->model, targets, options);
    std::vector<sched::ThreadPool::Job> jobs;
    std::uint64_t shard_index = 0;
    for (int size = options.min_bound; size <= options.bound; ++size) {
        const SkeletonOptions skeleton =
            engine_skeleton_options(run->model, targets, options, size);
        for (const SkeletonShard& shard :
             partition_skeletons_at_depth(skeleton, depth)) {
            jobs.push_back(
                run->make_job({shard, kTicketStride * shard_index}));
            ++shard_index;
        }
    }
    run->jobs_submitted.fetch_add(jobs.size(), std::memory_order_relaxed);
    pool.submit(run->group, std::move(jobs));
    return run;
}

/// Merges a completed PassRun (its group must have been waited) into one
/// SuiteResult per target, in axiom order. All workers have recorded all
/// their candidates, so the per-key minimum ticket is now a pure function
/// of the options; keeping exactly the test whose ticket equals it
/// resolves every cross-shard race toward the sequential-enumeration-order
/// winner. The pass's shared counters go on its first suite only.
std::vector<SuiteResult>
finish_pass(sched::ThreadPool& pool, PassRun& run)
{
    SuiteResult shared;
    // Per-pass solver totals: the pass's solvers live in its private
    // worker_scratch, so summing their lifetime counters — reset() folds
    // live counters into a retired accumulator — attributes exactly this
    // pass's solver work. All-zero under the enumerative backend.
    for (const WorkerScratch& scratch : run.worker_scratch) {
        shared.solver.merge(scratch.encoding.solver.lifetime_stats());
        // The incremental sessions (all-zero when the pass ran
        // fresh-per-candidate or enumerative); session-level, so cached
        // bases' backends and base build/reuse counts are included.
        shared.solver.merge(scratch.incremental.lifetime_stats());
    }
    if (run.metrics != nullptr) {
        // Safe single-threaded write into lane 0: every worker quiesced
        // when the group was waited, before finish_pass ran.
        run.metrics->add(0, obs::Phase::kQueueWait,
                         static_cast<std::uint64_t>(
                             run.queue_wait_seconds.load() * 1e9));
        shared.phases = run.metrics->merged();
    }
    if (run.allocs != nullptr) {
        shared.allocs = run.allocs->merged();
    }
    obs::TraceCollector* trace = run.options.trace;
    if (trace != nullptr) {
        // Counter-track summary of the pass (one "C" event per series,
        // main lane): per-phase latency percentiles (µs — Perfetto counter
        // values read better in micros) for phases with samples.
        const std::uint64_t ts = obs::now_nanos();
        if (run.metrics != nullptr) {
            for (int p = 0; p < obs::kPhaseCount; ++p) {
                const obs::LatencyHistogram& hist =
                    shared.phases.latency[static_cast<std::size_t>(p)];
                if (hist.total() == 0) {
                    continue;
                }
                trace->record_counter(
                    trace->main_lane(),
                    std::string("latency_us ") + run.name + " " +
                        obs::phase_name(static_cast<obs::Phase>(p)),
                    ts,
                    {{"p50", hist.percentile_nanos(0.5) / 1000},
                     {"p90", hist.percentile_nanos(0.9) / 1000},
                     {"p99", hist.percentile_nanos(0.99) / 1000}});
            }
        }
    }
    shared.scheduler = pool.group_stats(run.group);
    shared.scheduler.dedup_hits = run.index.hits();
    shared.scheduler.queue_wait_seconds = run.queue_wait_seconds.load();
    shared.scheduler.shard_retries = run.shard_retries.load();
    shared.scheduler.shards_quarantined = run.shards_quarantined.load();
    shared.scheduler.checkpoint_shards_saved = run.ckpt_saved.load();
    shared.scheduler.checkpoint_shards_replayed = run.ckpt_replayed.load();
    // Arm-to-last-job wall time (the watch restarted when the deadline
    // armed, and every job recorded its completion); the queue wait is
    // reported separately above. Zero for a pass that ran no jobs —
    // including one cancelled before its first job searched.
    const double seconds = run.search_seconds.load();
    const bool cancelled = run.cancelled.load();
    const bool complete =
        !run.timed_out.load() && !cancelled && run.failures.empty();

    std::vector<SuiteResult> suites;
    suites.reserve(run.targets.size());
    for (PassTarget& target : run.targets) {
        SuiteResult result =
            suites.empty() ? std::move(shared) : SuiteResult{};
        result.axiom = target.axiom;
        result.pass = run.name;
        result.programs_considered = target.programs.load();
        result.executions_considered = target.executions.load();
        result.duplicates_rejected = target.duplicates.load();
        result.seconds = seconds;
        result.cancelled = cancelled;
        result.complete = complete;
        result.failures = run.failures;  // group drained: no races

        std::vector<std::pair<SynthesizedTest, std::uint64_t>> kept;
        kept.reserve(target.merged.size());
        for (auto& [test, ticket] : target.merged) {
            if (!run.options.dedup ||
                run.index.min_ticket(test.canonical_key) == ticket) {
                kept.emplace_back(std::move(test), ticket);
            }
        }
        std::sort(kept.begin(), kept.end(),
                  [](const auto& a, const auto& b) {
                      return std::tie(a.first.canonical_key, a.second) <
                             std::tie(b.first.canonical_key, b.second);
                  });
        result.tests.reserve(kept.size());
        for (auto& [test, ticket] : kept) {
            result.tests.push_back(std::move(test));
        }
        suites.push_back(std::move(result));
    }
    return suites;
}

/// The sampling thread behind SynthesisOptions::progress: wakes every
/// progress_interval_seconds, snapshots the run(s)' relaxed counters via
/// the caller-supplied sampler, and invokes the callback. stop() fires one
/// final snapshot after joining, so the last report the caller sees
/// reflects the drained run. Inert (no thread) when options.progress is
/// unset — the default costs nothing.
class ProgressHeartbeat {
  public:
    ProgressHeartbeat(const SynthesisOptions& options,
                      std::function<SynthesisProgress()> sampler)
    {
        if (!options.progress) {
            return;
        }
        callback_ = options.progress;
        sampler_ = std::move(sampler);
        interval_ = std::max(options.progress_interval_seconds, 0.01);
        thread_ = std::thread([this] { loop(); });
    }

    ~ProgressHeartbeat() { stop(); }

    ProgressHeartbeat(const ProgressHeartbeat&) = delete;
    ProgressHeartbeat& operator=(const ProgressHeartbeat&) = delete;

    /// Joins the sampler and fires the final snapshot. Call after the
    /// job groups drained (pool.wait) so the snapshot is settled;
    /// idempotent.
    void
    stop()
    {
        if (!thread_.joinable()) {
            return;
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_ = true;
        }
        cv_.notify_all();
        thread_.join();
        callback_(sampler_());
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!done_) {
            if (cv_.wait_for(lock,
                             std::chrono::duration<double>(interval_),
                             [this] { return done_; })) {
                break;  // stop() reports the final snapshot
            }
            lock.unlock();
            callback_(sampler_());
            lock.lock();
        }
    }

    std::function<void(const SynthesisProgress&)> callback_;
    std::function<SynthesisProgress()> sampler_;
    double interval_ = 0.0;
    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    std::thread thread_;
};

}  // namespace

std::vector<SuiteResult>
synthesize_pass(const mtm::Model& model, mtm::AxiomMask targets,
                const SynthesisOptions& options)
{
    const int axioms = static_cast<int>(model.axioms().size());
    TF_ASSERT(targets != 0 &&
              static_cast<int>(std::bit_width(targets)) <= axioms);
    // The enumerative backend serves every target from one pass. The SAT
    // backend's witness query names one axiom, so it runs one single-target
    // pass per axiom, all on the same pool: the passes queue in axiom
    // order, and workers that run out of one pass's shards move on to the
    // next pass's.
    std::vector<mtm::AxiomMask> passes;
    if (options.backend == Backend::kEnumerative) {
        passes.push_back(targets);
    } else {
        for (int i = 0; i < axioms; ++i) {
            if ((targets >> i & 1) != 0) {
                passes.push_back(mtm::AxiomMask{1} << i);
            }
        }
    }
    sched::ThreadPool pool(options.jobs);
    pool.set_trace(options.trace);
    obs::TraceCollector* trace = options.trace;
    std::vector<std::unique_ptr<PassRun>> runs;
    std::vector<std::uint64_t> trace_ids;
    runs.reserve(passes.size());
    for (const mtm::AxiomMask pass : passes) {
        const std::uint64_t launched = obs::now_nanos();
        runs.push_back(launch_pass(pool, model, pass, options));
        if (trace != nullptr) {
            // Async spans ("b"/"e"): passes overlap on the shared pool, so
            // they cannot be nested complete spans on the main lane.
            trace_ids.push_back(trace->next_flow_id());
            trace->record_async_begin(trace->main_lane(),
                                      "suite " + runs.back()->name,
                                      trace_ids.back(), launched);
        }
    }
    const std::uint64_t t0 = obs::now_nanos();
    std::atomic<int> suites_done{0};  // outlives the heartbeat below
    ProgressHeartbeat heartbeat(options, [&runs, t0, &suites_done, targets] {
        // Aggregate snapshot across the passes: the runs vector is settled
        // (all launched) before the heartbeat starts, and each field is a
        // relaxed counter read.
        SynthesisProgress p;
        for (const std::unique_ptr<PassRun>& run : runs) {
            p.shards_done += run->jobs_done.load(std::memory_order_relaxed);
            p.shards_submitted +=
                run->jobs_submitted.load(std::memory_order_relaxed);
            p.candidates += run->candidates.load(std::memory_order_relaxed);
            p.tests_found +=
                run->tests_found.load(std::memory_order_relaxed);
            p.checkpoint_shards_saved +=
                run->ckpt_saved.load(std::memory_order_relaxed);
            p.checkpoint_shards_replayed +=
                run->ckpt_replayed.load(std::memory_order_relaxed);
        }
        p.suites_done = suites_done.load(std::memory_order_relaxed);
        p.suites_total = std::popcount(targets);
        p.seconds = static_cast<double>(obs::now_nanos() - t0) * 1e-9;
        return p;
    });
    for (std::size_t i = 0; i < runs.size(); ++i) {
        pool.wait(runs[i]->group);
        suites_done.fetch_add(static_cast<int>(runs[i]->targets.size()),
                              std::memory_order_relaxed);
        if (trace != nullptr) {
            trace->record_async_end(trace->main_lane(),
                                    "suite " + runs[i]->name, trace_ids[i],
                                    obs::now_nanos());
        }
    }
    heartbeat.stop();
    std::vector<SuiteResult> suites;
    suites.reserve(static_cast<std::size_t>(std::popcount(targets)));
    for (const std::unique_ptr<PassRun>& run : runs) {
        for (SuiteResult& suite : finish_pass(pool, *run)) {
            suites.push_back(std::move(suite));
        }
    }
    return suites;
}

SuiteResult
synthesize_suite(const mtm::Model& model, const std::string& axiom_name,
                 const SynthesisOptions& options)
{
    const int index = model.axiom_index(axiom_name);
    TF_ASSERT(index >= 0);
    return std::move(
        synthesize_pass(model, mtm::AxiomMask{1} << index, options).front());
}

std::vector<SuiteResult>
synthesize_all(const mtm::Model& model, const SynthesisOptions& options)
{
    std::vector<SuiteResult> out;
    for (const mtm::Axiom& axiom : model.axioms()) {
        out.push_back(synthesize_suite(model, axiom.name, options));
    }
    return out;
}

std::vector<SuiteResult>
synthesize_all_parallel(const mtm::Model& model,
                        const SynthesisOptions& options)
{
    const std::size_t axioms = model.axioms().size();
    return synthesize_pass(
        model,
        axioms >= static_cast<std::size_t>(mtm::kMaxAxioms)
            ? ~mtm::AxiomMask{0}
            : (mtm::AxiomMask{1} << axioms) - 1,
        options);
}

SkeletonOptions
engine_skeleton_options(const mtm::Model& model,
                        const std::string& axiom_name,
                        const SynthesisOptions& options, int size)
{
    SkeletonOptions skeleton = base_skeleton_options(model, options, size);
    set_axiom_requirements(axiom_requirements(axiom_name), &skeleton);
    return skeleton;
}

SkeletonOptions
engine_skeleton_options(const mtm::Model& model, mtm::AxiomMask targets,
                        const SynthesisOptions& options, int size)
{
    AxiomRequirements shared{true, true, true};
    for (std::size_t i = 0; i < model.axioms().size(); ++i) {
        if ((targets >> i & 1) == 0) {
            continue;
        }
        const AxiomRequirements req =
            axiom_requirements(model.axioms()[i].name);
        shared.wpte = shared.wpte && req.wpte;
        shared.rmw = shared.rmw && req.rmw;
        shared.shared_walk = shared.shared_walk && req.shared_walk;
    }
    SkeletonOptions skeleton = base_skeleton_options(model, options, size);
    set_axiom_requirements(shared, &skeleton);
    return skeleton;
}

int
pass_shard_depth(const mtm::Model& model, mtm::AxiomMask targets,
                 const SynthesisOptions& options)
{
    if (options.shard_depth > 0) {
        return options.shard_depth;
    }
    const SkeletonOptions largest =
        engine_skeleton_options(model, targets, options, options.bound);
    int depth = 1;
    std::size_t shards = partition_skeletons_at_depth(largest, depth).size();
    while (shards < kMinShardsPerPass) {
        const std::size_t deeper =
            partition_skeletons_at_depth(largest, depth + 1).size();
        if (deeper == shards) {
            break;  // every prefix already pins a complete slot structure
        }
        ++depth;
        shards = deeper;
    }
    return depth;
}

mtm::AxiomMask
eligible_axioms(const mtm::Model& model, const Program& program)
{
    return Eligibility(model).of(program);
}

int
unique_test_count(const std::vector<SuiteResult>& suites)
{
    std::set<std::string> keys;
    for (const SuiteResult& suite : suites) {
        for (const SynthesizedTest& test : suite.tests) {
            keys.insert(test.canonical_key);
        }
    }
    return static_cast<int>(keys.size());
}

}  // namespace transform::synth
