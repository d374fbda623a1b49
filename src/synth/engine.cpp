#include "synth/engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
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
#include "spec/ast.h"
#include "spec/eval.h"
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

constexpr unsigned
base_bits(std::initializer_list<spec::BaseRel> bases)
{
    unsigned bits = 0;
    for (const spec::BaseRel base : bases) {
        bits |= 1u << static_cast<int>(base);
    }
    return bits;
}

/// The relations that are empty in every execution of a program without
/// the feature.
constexpr unsigned kWpteRelations =
    base_bits({spec::BaseRel::kFrVa, spec::BaseRel::kRemap,
               spec::BaseRel::kRfPa, spec::BaseRel::kCoPa,
               spec::BaseRel::kFrPa});
constexpr unsigned kRmwRelations = base_bits({spec::BaseRel::kRmw});
constexpr unsigned kTlbHitRelations = base_bits({spec::BaseRel::kPtwSource});

/// Groups whose unions are acyclic in every well-formed execution:
/// communication (one coherence order per location, which reads follow)
/// and the subrelations of the extended program order.
constexpr unsigned kCommunication =
    base_bits({spec::BaseRel::kRf, spec::BaseRel::kRfe, spec::BaseRel::kCo,
               spec::BaseRel::kFr});
constexpr unsigned kProgramOrder =
    base_bits({spec::BaseRel::kPo, spec::BaseRel::kPpo,
               spec::BaseRel::kPoMem, spec::BaseRel::kPoLoc,
               spec::BaseRel::kFence});

/// True when \p axiom holds in every execution in which the relations of
/// \p emptied are empty: a program lacking the feature those relations
/// need cannot violate it.
bool
holds_without(const mtm::Axiom& axiom, unsigned emptied)
{
    const std::optional<unsigned> rest =
        spec::base_union(*axiom.def->expr, emptied);
    if (rest == 0u) {
        return true;
    }
    return axiom.def->form != spec::AxiomForm::kEmpty && rest.has_value() &&
           ((*rest & ~kCommunication) == 0 || (*rest & ~kProgramOrder) == 0);
}

AxiomRequirements
axiom_requirements(const mtm::Axiom& axiom)
{
    return {holds_without(axiom, kWpteRelations),
            holds_without(axiom, kRmwRelations),
            holds_without(axiom, kTlbHitRelations)};
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
                axiom_requirements(model.axioms()[i]);
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

constexpr unsigned
set_bits(std::initializer_list<spec::EventSet> sets)
{
    unsigned bits = 0;
    for (const spec::EventSet set : sets) {
        bits |= 1u << static_cast<int>(set);
    }
    return bits;
}

/// What an event the judge removes in isolation is visible through: the
/// base relations holding pairs that touch it or depend on it, and the
/// event classes containing it. `^*` sees every event through its
/// identity. An MFENCE is a po node and separates `fence` pairs; a
/// spurious INVLPG or an INVLPGALL is only a po node (remap holds
/// remap-invoked INVLPGs only, and no other relation touches a
/// non-memory event).
constexpr unsigned kFenceRelations =
    base_bits({spec::BaseRel::kPo, spec::BaseRel::kFence});
constexpr unsigned kFenceSets =
    set_bits({spec::EventSet::kFence, spec::EventSet::kUser});
constexpr unsigned kInvlpgRelations = base_bits({spec::BaseRel::kPo});
constexpr unsigned kInvlpgSets = set_bits({spec::EventSet::kInvlpg});

/// True when \p e reads a base relation in \p relations, an event class in
/// \p sets, or a reflexive closure. \p seen holds the nodes already
/// visited: `let` bodies make the expression a DAG.
bool
reads_any(const spec::Expr& e, unsigned relations, unsigned sets,
          std::vector<const spec::Expr*>* seen)
{
    if (std::find(seen->begin(), seen->end(), &e) != seen->end()) {
        return false;
    }
    seen->push_back(&e);
    switch (e.op) {
    case spec::ExprOp::kBase:
        return (relations & base_bits({e.base})) != 0;
    case spec::ExprOp::kIdSet:
        return (sets & set_bits({e.set})) != 0;
    case spec::ExprOp::kReflexiveClosure:
        return true;
    default:
        break;
    }
    return (e.lhs != nullptr && reads_any(*e.lhs, relations, sets, seen)) ||
           (e.rhs != nullptr && reads_any(*e.rhs, relations, sets, seen));
}

/// Which isolated removals keep every violation of an axiom. The judge
/// deletes an MFENCE, a spurious INVLPG or an INVLPGALL alone: nothing
/// else goes with it, every witness is restricted unchanged, and the
/// relaxed execution stays well-formed (the only rule it can lose is "no
/// TLB use across an INVLPG"). Every other relation is the same on the
/// surviving events. So when the axiom's verdict cannot see the event,
/// every execution violating the axiom stays forbidden under that
/// relaxation and is not minimal: a candidate holding such an event can
/// never yield a test for the axiom (section IV-B).
struct IsolatedRemovals {
    bool invlpg = false;  ///< any spurious INVLPG or INVLPGALL
    bool fence = false;   ///< any MFENCE
    /// An MFENCE that orders no write-like -> read-like pair.
    bool unordering_fence = false;
};

/// The verdict cannot see the event when the expression reads nothing
/// that sees it, or when the axiom is acyclic over a plain union of base
/// relations whose only members touching the event are po and, for a
/// fence, `fence`: po is transitive, so a cycle through the event's po
/// node bypasses it, and `fence` pairs lie inside po_mem, and inside ppo
/// unless the fence orders a write-like -> read-like pair.
IsolatedRemovals
isolated_removals(const mtm::Axiom& axiom)
{
    const spec::Expr& expr = *axiom.def->expr;
    const auto reads = [&](unsigned relations, unsigned sets) {
        std::vector<const spec::Expr*> seen;
        return reads_any(expr, relations, sets, &seen);
    };
    IsolatedRemovals out;
    out.invlpg = !reads(kInvlpgRelations, kInvlpgSets);
    out.fence = !reads(kFenceRelations, kFenceSets);
    if (axiom.def->form == spec::AxiomForm::kAcyclic) {
        const std::optional<unsigned> bases = spec::base_union(expr);
        if (bases.has_value()) {
            const auto has = [&](spec::BaseRel base) {
                return (*bases & base_bits({base})) != 0;
            };
            out.invlpg = true;
            out.fence = out.fence || !has(spec::BaseRel::kFence) ||
                        has(spec::BaseRel::kPoMem);
            out.unordering_fence = has(spec::BaseRel::kPpo);
        }
    }
    out.unordering_fence = out.unordering_fence || out.fence;
    return out;
}

/// True when MFENCE \p fence orders a write-like -> read-like pair: some
/// write-like event precedes it in its thread's extended order and some
/// read-like event follows it. Ghosts take their parent's position and
/// count, but Program::thread lists none, so this walks every event.
bool
orders_write_read(const Program& program, elt::EventId fence)
{
    bool write_before = false;
    bool read_after = false;
    for (elt::EventId id = 0; id < program.num_events(); ++id) {
        const elt::EventKind kind = program.event(id).kind;
        write_before = write_before || (elt::is_write_like(kind) &&
                                        program.precedes(id, fence));
        read_after = read_after || (elt::is_read_like(kind) &&
                                    program.precedes(fence, id));
    }
    return write_before && read_after;
}

/// The per-candidate form of isolated_removals: the axioms for which a
/// program holds an event whose removal keeps every violation, so that
/// no execution of it is a minimal violation of them. It reads event
/// kinds and one thread's order, so it is invariant under the thread, VA
/// and PA renamings canonical_key factors out.
class Barrenness {
  public:
    explicit Barrenness(const mtm::Model& model)
    {
        for (std::size_t i = 0; i < model.axioms().size(); ++i) {
            const mtm::AxiomMask bit = mtm::AxiomMask{1} << i;
            const IsolatedRemovals removals =
                isolated_removals(model.axioms()[i]);
            invlpg_ |= removals.invlpg ? bit : 0;
            fence_ |= removals.fence ? bit : 0;
            unordering_fence_ |= removals.unordering_fence ? bit : 0;
        }
    }

    mtm::AxiomMask
    of(const Program& program) const
    {
        mtm::AxiomMask barren = 0;
        for (elt::EventId id = 0; id < program.num_events(); ++id) {
            const elt::Event& event = program.event(id);
            if (event.kind == elt::EventKind::kInvlpgAll ||
                (event.kind == elt::EventKind::kInvlpg &&
                 event.remap_src == elt::kNone)) {
                barren |= invlpg_;
            } else if (event.kind == elt::EventKind::kMfence &&
                       (unordering_fence_ & ~barren) != 0) {
                barren |= orders_write_read(program, id) ? fence_
                                                         : unordering_fence_;
            }
        }
        return barren;
    }

  private:
    mtm::AxiomMask invlpg_ = 0;
    mtm::AxiomMask fence_ = 0;
    mtm::AxiomMask unordering_fence_ = 0;  ///< holds fence_
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
    skeleton.allow_full_flush = options.allow_full_flush;
    skeleton.dirty_bit_as_rmw = options.dirty_bit_as_rmw;
    return skeleton;
}

/// A witness the search accepted for a candidate: the execution, the
/// targets it settles (violated, eligible, and without a witness until
/// it), and its full violated mask.
struct AcceptedWitness {
    mtm::AxiomMask targets = 0;
    mtm::AxiomMask violated = 0;
    Execution witness;
};

/// Per-worker reusable buffers for the candidate-evaluation hot path:
/// the execution enumerator's state, derivation output + scratch, the
/// judge's buffers, and the canonicalizer's tables. One per (pass,
/// worker); a worker runs one job at a time, so jobs index into the pass's
/// vector with their worker id.
struct WorkerScratch {
    /// Enumerative backend: the execution under construction and the
    /// candidate's choice tables.
    ExecEnumScratch exec_enum;
    elt::DerivedRelations derived;
    elt::DeriveScratch derive;
    JudgeScratch judge;
    CanonicalScratch canonical;
    /// SAT backend: the replay encoding's factory + solver, reused across
    /// every candidate of the worker.
    mtm::EncodingScratch encoding;
    /// SAT backend: the worker's probe sessions, one per axiom of the
    /// model, each a live solver reused across candidates. launch_pass
    /// configures the pass's targets' sessions; the others stay idle.
    /// Empty under the enumerative backend.
    std::vector<mtm::IncrementalEncoding> sessions;
    /// The current candidate's accepted witnesses (find_witnesses clears
    /// it per candidate; only an acceptance copies an execution in).
    std::vector<AcceptedWitness> accepted;
    /// Per axiom of the model: the executions the current candidate's
    /// search visited until that axiom settled (find_witnesses sets the
    /// entry of every eligible target).
    std::vector<std::uint64_t> executions;
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
/// once a forbidden witness exists). Accepted witnesses land in
/// scratch->accepted, the search's only copies of an execution, and
/// scratch->executions[i] receives, for every target i in \p eligible, the
/// executions visited until it settled: at its witness, or at the end of
/// its search.
///
/// The enumerative backend searches all targets at once. Each execution
/// is derived and masked once. It is judged only when it violates a
/// target that has no witness yet, reusing that derivation; minimality
/// does not depend on the axiom, so a minimal execution is the witness of
/// every target it violates that is still open. The search stops once
/// every eligible target is settled.
///
/// The SAT backend's query names one axiom, so it runs one query per
/// eligible target, in axiom order, each exactly as a search for that
/// target alone runs it: the target's witness and execution count never
/// depend on the other targets.
void
find_witnesses(const mtm::Model& model, mtm::AxiomMask eligible,
               const SynthesisOptions& options, const Program& program,
               const util::Deadline& deadline, WorkerScratch* scratch,
               obs::MetricsRegistry* metrics, int worker, bool* timed_out,
               bool* cancelled)
{
    scratch->accepted.clear();
    std::uint64_t considered = 0;
    // Sets the execution count of every target in \p targets.
    const auto settle = [&](mtm::AxiomMask targets, std::uint64_t count) {
        for (; targets != 0; targets &= targets - 1) {
            scratch->executions[static_cast<std::size_t>(
                std::countr_zero(targets))] = count;
        }
    };
    if (!contains_write(program)) {
        settle(eligible, 0);
        return;  // never interesting: skip the whole execution space
    }
    mtm::AxiomMask open = eligible;
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
            if (!judge(model, execution, scratch->derived, violated,
                       &scratch->judge)
                     .minimal) {
                return true;
            }
        }
        scratch->accepted.push_back({settles, violated, execution});
        settle(settles, considered);
        open &= ~settles;
        return open != 0;  // stop once every target has its witness
    };

    // The visitors below take consider by reference: a std::function
    // holding a reference_wrapper stores it inline, where the lambda
    // itself would be copied to the heap on every call.
    if (options.backend == Backend::kEnumerative) {
        for_each_execution(program, model.vm_aware(), std::ref(consider),
                           &scratch->exec_enum);
        settle(open, considered);
        return;
    }

    // Streaming AllSAT: consider() returning false stops the solver at
    // the first accepted witness instead of materializing the whole
    // violating space. Each query first PROBES through the target's live
    // assumption-based session (no per-candidate encoding; candidate order
    // within a structure reuses one solver and its learned clauses). A
    // probe acceptance only proves existence — the live solver's model
    // order depends on the candidates it served before — so accepted
    // candidates (the rare case) REPLAY through a fresh per-program
    // encoding, whose first accepted witness and execution count are a
    // function of the program alone. Rejected candidates enumerate the
    // same violating set either way, so the probe's execution count
    // stands.
    const auto sat_search = [&]() {
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
        for (mtm::AxiomMask rest = eligible; rest != 0; rest &= rest - 1) {
            const int index = std::countr_zero(rest);
            const mtm::AxiomMask target = mtm::AxiomMask{1} << index;
            open = target;
            considered = 0;
            scratch->sessions[static_cast<std::size_t>(index)].enumerate(
                program, std::ref(consider));
            if (open != target) {
                // The replay recounts from scratch. It re-derives and
                // re-judges the executions the probe already visited:
                // derive/judge phase totals honestly include that
                // duplicated work (~4% of candidates accept).
                scratch->accepted.pop_back();
                open = target;
                considered = 0;
                mtm::ProgramEncoding encoding(program, &model,
                                              &scratch->encoding);
                encoding.enumerate(model.axioms()[index].name,
                                   std::ref(consider));
            }
            if (open == target) {
                settle(target, considered);  // no witness
            }
            if (*timed_out || *cancelled) {
                return;
            }
        }
    };

    if (metrics == nullptr) {
        sat_search();
        return;
    }
    // Same search, with phase attribution. kSatSolve comes from the
    // solvers' own gated clocks (set_timing) — the replay solver and the
    // eligible targets' sessions — and kSatEncode is the remaining wall
    // time of the search after subtracting solve time and the
    // derive/judge time consider() already claimed above — so the phases
    // never double-count.
    const auto solve_nanos = [&]() {
        std::uint64_t nanos =
            scratch->encoding.solver.lifetime_stats().solve_nanos;
        for (mtm::AxiomMask rest = eligible; rest != 0; rest &= rest - 1) {
            // Session-level: sums the live base's solver and every cached
            // base's.
            nanos += scratch->sessions[static_cast<std::size_t>(
                                           std::countr_zero(rest))]
                         .lifetime_stats()
                         .solve_nanos;
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
    /// Accepted tests with their merge tickets (guarded by PassRun::mu).
    std::vector<std::pair<SynthesizedTest, std::uint64_t>> merged;
};

/// All in-flight state of one pass: the job closures reference it, so it
/// outlives the jobs (launch_pass ... pool.wait ... finish_pass).
struct PassRun {
    PassRun(const mtm::Model& source, mtm::AxiomMask target_mask,
            const SynthesisOptions& opts)
        : model(source),
          targets(static_cast<std::size_t>(std::popcount(target_mask))),
          mask(target_mask), eligibility(model), barrenness(model),
          options(opts),
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

    /// The caller's model, borrowed: synthesize_pass returns only after
    /// every job of the pass has drained. Every job reads it through this
    /// const reference; evaluation never writes to a Model.
    const mtm::Model& model;
    /// The target axioms, in axiom order; one suite each.
    std::vector<PassTarget> targets;
    const mtm::AxiomMask mask;  ///< the targets' bits
    /// The targets' names '+'-joined: the pass's identity in task ids,
    /// traces and quarantine records (the axiom itself for one target).
    std::string name;
    const Eligibility eligibility;
    const Barrenness barrenness;
    const SynthesisOptions options;
    /// Per-worker evaluation scratch, indexed by the pool worker id a job
    /// runs on (sized workers() at launch; a worker runs one job at a time).
    std::vector<WorkerScratch> worker_scratch;
    /// Phase-attributed counters (options.collect_metrics); null when
    /// metrics are off — the instrumentation's disabled fast path.
    std::unique_ptr<obs::MetricsRegistry> metrics;
    /// The pass's clock and time budget, both started at launch: the pass
    /// has the call's pool to itself, so nothing queues ahead of it.
    const util::Stopwatch watch;
    const util::Deadline deadline;

    /// Candidates visited, eligible for a target or not (the progress
    /// heartbeat's count; suites count their eligible ones).
    std::atomic<std::uint64_t> candidates{0};
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

    std::mutex mu;  ///< guards the targets' merged tests + failures
    std::vector<ShardFailure> failures;  ///< quarantined shards

    /// Builds the job for a ShardTask; fault retries build jobs from inside
    /// running jobs, so it lives here rather than on the launch_pass stack.
    std::function<sched::ThreadPool::Job(ShardTask)> make_job;
};

/// (Re)configures \p scratch's probe session of every target of \p run for
/// the pass: the sessions hold a pointer to the run's model, which
/// outlives every job. The domain bounds cover every candidate the skeleton
/// enumerator can produce (VAs < max_vas; PAs < initial frames + fresh
/// Wpte targets).
void
configure_sessions(const PassRun& run, WorkerScratch* scratch)
{
    for (const PassTarget& target : run.targets) {
        scratch->sessions[static_cast<std::size_t>(
                              std::countr_zero(target.bit))]
            .configure(&run.model, target.axiom, run.options.max_vas,
                       run.options.max_vas + run.options.max_fresh_pas);
    }
}

/// Runs the actual search of one shard, splices its results into the run,
/// and — when the run journals and the search completed — appends the
/// shard's record. Candidates are numbered base + position; the ticket
/// range must stay inside kTicketStride so neighbouring ranges never
/// overlap, which no shard comes near, and hitting it fails loudly rather
/// than corrupting the deterministic merge. Returns the candidates visited.
/// A shard that visited none is not journaled: on resume it is simply
/// enumerated again, at no cost.
///
/// Every candidate of the pass's stream takes a ticket. Under minimality a
/// target the candidate is proven barren for (barren_axioms) drops out of
/// its eligible targets, and one left with none is skipped. Each remaining
/// target counts the candidate toward its suite, and one fused witness
/// search runs for all of them.
/// Only a candidate that accepted a witness is canonicalized: its key rides
/// on its tests to the merge, which deduplicates (finish_pass). Nothing
/// here depends on another shard's results, so a shard's record is a pure
/// function of the shard.
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
    const util::Deadline& deadline = run->deadline;
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
        mtm::AxiomMask eligible = run->eligibility.of(program) & run->mask;
        if (eligible != 0 && options.require_minimal) {
            eligible &= ~run->barrenness.of(program);
        }
        if (eligible == 0) {
            return true;  // no target can get a test from this program
        }
        for (std::size_t k = 0; k < found.size(); ++k) {
            found[k].programs += (eligible & run->targets[k].bit) != 0;
        }
        scratch.fault_key = ticket;
        find_witnesses(model, eligible, options, program, deadline,
                       &scratch, metrics, worker, &timed_out, &cancelled);
        for (std::size_t k = 0; k < found.size(); ++k) {
            const PassTarget& target = run->targets[k];
            if ((eligible & target.bit) != 0) {
                found[k].executions += scratch.executions[static_cast<
                    std::size_t>(std::countr_zero(target.bit))];
            }
        }
        if (timed_out || cancelled) {
            return false;
        }
        if (scratch.accepted.empty()) {
            return true;
        }
        std::string key;
        {
            const obs::ScopedPhase phase(metrics, worker,
                                         obs::Phase::kCanonicalize);
            const obs::ScopedAllocSite site(
                obs::AllocSite::kSiteCanonicalKey);
            key = canonical_key(program, &scratch.canonical);
        }
        for (const AcceptedWitness& accepted : scratch.accepted) {
            const obs::ScopedAllocSite site(
                obs::AllocSite::kSiteSuiteGrowth);
            SynthesizedTest test;
            test.witness = accepted.witness;
            test.canonical_key = key;
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
/// completes, and nothing else is shared), so a retried shard's
/// contribution is byte-identical to a fault-free run's.
void
recover_and_reschedule(PassRun* raw, sched::ThreadPool* pool_ptr,
                       const ShardTask& task, int worker, const char* what)
{
    const SynthesisOptions& options = raw->options;
    WorkerScratch& scratch = raw->worker_scratch[worker];
    // The replay solver may be mid-encoding and any probe session
    // mid-enumeration; reset them all so the worker's next job starts
    // clean. configure() keeps session configuration (timing, conflict
    // budget, interrupt, cache capacity) and rebuilds the solver state.
    scratch.encoding.solver.reset();
    if (options.backend == Backend::kSat) {
        configure_sessions(*raw, &scratch);
    }
    obs::TraceCollector* trace = options.trace;
    if (options.cancel.requested()) {
        raw->cancelled.store(true, std::memory_order_relaxed);
    } else if (raw->deadline.expired()) {
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
        pool_ptr->submit(raw->make_job(std::move(retry)));
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
}

/// Replays a journaled shard task instead of re-searching it: each target's
/// counters and accepted tests, with their tickets, come from the record.
/// A shard's record is a pure function of the shard, so the merge sees the
/// same tests and counters whether some, all or none of the tasks replay:
/// the suite and every counter, the merge's duplicate counts included, are
/// those of an uninterrupted run.
void
replay_shard_record(PassRun* raw, const CheckpointJournal::ShardRecord& rec)
{
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
        // A cancelled run drains its remaining queue without searching.
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
    return visited;
}

/// Builds a PassRun over \p targets and submits its initial shard tasks to
/// \p pool. The caller must pool.wait() and then finish_pass().
std::unique_ptr<PassRun>
launch_pass(sched::ThreadPool& pool, const mtm::Model& model,
            mtm::AxiomMask targets, const SynthesisOptions& options)
{
    auto run = std::make_unique<PassRun>(model, targets, options);
    run->worker_scratch.resize(pool.workers());
    for (WorkerScratch& scratch : run->worker_scratch) {
        scratch.executions.resize(run->model.axioms().size());
        if (options.backend == Backend::kSat) {
            // One live probe session per worker and target for the whole
            // pass.
            scratch.sessions.resize(run->model.axioms().size());
            for (mtm::IncrementalEncoding& session : scratch.sessions) {
                session.set_base_cache_capacity(
                    options.sat_base_cache_capacity);
            }
            configure_sessions(*run, &scratch);
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
            const auto observe = [metrics, w](std::uint64_t nanos) {
                metrics->record_latency(w, obs::Phase::kSatSolve, nanos);
            };
            scratch.encoding.solver.set_timing(true);
            scratch.encoding.solver.set_solve_observer(observe);
            for (mtm::IncrementalEncoding& session : scratch.sessions) {
                session.set_timing(true);
                session.set_solve_observer(observe);
            }
        }
    }
    if (options.track_allocs) {
        run->allocs = std::make_unique<obs::AllocTracker>(pool.workers());
    }
    run->journal = options.checkpoint;
    PassRun* raw = run.get();
    sched::ThreadPool* pool_ptr = &pool;
    if (options.sat_conflict_budget > 0) {
        // Per-solve conflict cap on every per-worker solver (replay and
        // probe sessions). Exhaustion raises BudgetExhausted out of the
        // search, which the fault-containment boundary treats like any
        // other shard fault.
        for (WorkerScratch& scratch : run->worker_scratch) {
            scratch.encoding.solver.set_conflict_budget(
                options.sat_conflict_budget);
            for (mtm::IncrementalEncoding& session : scratch.sessions) {
                session.set_conflict_budget(options.sat_conflict_budget);
            }
        }
    }
    if (options.cancel.valid() || options.time_budget_seconds > 0) {
        // Solver-level interrupt: a long single solve polls cancellation
        // and the deadline every ~1k conflicts, bounding cancel latency
        // even mid-solve.
        const auto poll = [raw] {
            return raw->options.cancel.requested() || raw->deadline.expired();
        };
        for (WorkerScratch& scratch : run->worker_scratch) {
            scratch.encoding.solver.set_interrupt(poll);
            for (mtm::IncrementalEncoding& session : scratch.sessions) {
                session.set_interrupt(poll);
            }
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
    pool.submit(std::move(jobs));
    return run;
}

/// The merge of one target's accepted tests: sorts them by (canonical key,
/// ticket) and, when \p dedup is on, keeps the first test of each key —
/// the one whose candidate comes earliest in the sequential enumeration
/// order. Isomorphic programs get the same verdict, so that candidate is
/// also the earliest of its key among every candidate, accepted or not,
/// and the kept test does not depend on the worker count, the shard depth
/// or which shards were replayed. Appends each dropped test's ticket to
/// \p dropped and returns how many it dropped.
std::uint64_t
sort_and_dedup(std::vector<std::pair<SynthesizedTest, std::uint64_t>>* tests,
               bool dedup, std::vector<std::uint64_t>* dropped)
{
    std::sort(tests->begin(), tests->end(),
              [](const auto& a, const auto& b) {
                  return std::tie(a.first.canonical_key, a.second) <
                         std::tie(b.first.canonical_key, b.second);
              });
    if (!dedup) {
        return 0;
    }
    const auto same_key = [](const auto& a, const auto& b) {
        return a.first.canonical_key == b.first.canonical_key;
    };
    for (std::size_t i = 1; i < tests->size(); ++i) {
        if (same_key((*tests)[i - 1], (*tests)[i])) {
            dropped->push_back((*tests)[i].second);
        }
    }
    const auto kept = std::unique(tests->begin(), tests->end(), same_key);
    const auto count = static_cast<std::uint64_t>(tests->end() - kept);
    tests->erase(kept, tests->end());
    return count;
}

/// Merges a completed PassRun (the pool must have been waited) into one
/// SuiteResult per target, in axiom order: each target's accepted tests go
/// through sort_and_dedup. SchedulerStats::dedup_hits counts the distinct
/// candidates whose tests the merge dropped. The pass's shared counters go
/// on its first suite only.
std::vector<SuiteResult>
finish_pass(const sched::ThreadPool& pool, PassRun& run)
{
    // Launch-to-last-job wall time: every job finished when the pool was
    // waited.
    const double seconds = run.watch.elapsed_seconds();
    // The merge runs first so that its time, one kDedup sample per target
    // on lane 0 (every worker quiesced when the pool was waited), lands in
    // the phase totals below.
    std::vector<std::uint64_t> duplicates(run.targets.size());
    std::vector<std::uint64_t> dropped;
    for (std::size_t k = 0; k < run.targets.size(); ++k) {
        const obs::ScopedPhase phase(run.metrics.get(), 0,
                                     obs::Phase::kDedup);
        duplicates[k] = sort_and_dedup(&run.targets[k].merged,
                                       run.options.dedup, &dropped);
    }
    SuiteResult shared;
    // Per-pass solver totals: the pass's solvers live in its private
    // worker_scratch, so summing their lifetime counters — reset() folds
    // live counters into a retired accumulator — attributes exactly this
    // pass's solver work. All-zero under the enumerative backend.
    for (const WorkerScratch& scratch : run.worker_scratch) {
        shared.solver.merge(scratch.encoding.solver.lifetime_stats());
        // Session-level, so cached bases' solvers and base build/reuse
        // counts are included.
        for (const mtm::IncrementalEncoding& session : scratch.sessions) {
            shared.solver.merge(session.lifetime_stats());
        }
    }
    if (run.metrics != nullptr) {
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
    shared.scheduler = pool.stats();
    std::sort(dropped.begin(), dropped.end());
    shared.scheduler.dedup_hits = static_cast<std::uint64_t>(
        std::unique(dropped.begin(), dropped.end()) - dropped.begin());
    shared.scheduler.candidates = run.candidates.load();
    shared.scheduler.shard_retries = run.shard_retries.load();
    shared.scheduler.shards_quarantined = run.shards_quarantined.load();
    shared.scheduler.checkpoint_shards_saved = run.ckpt_saved.load();
    shared.scheduler.checkpoint_shards_replayed = run.ckpt_replayed.load();
    const bool cancelled = run.cancelled.load();
    const bool complete =
        !run.timed_out.load() && !cancelled && run.failures.empty();

    std::vector<SuiteResult> suites;
    suites.reserve(run.targets.size());
    for (std::size_t k = 0; k < run.targets.size(); ++k) {
        PassTarget& target = run.targets[k];
        SuiteResult result =
            suites.empty() ? std::move(shared) : SuiteResult{};
        result.axiom = target.axiom;
        result.pass = run.name;
        result.programs_considered = target.programs.load();
        result.executions_considered = target.executions.load();
        result.duplicates_rejected = duplicates[k];
        result.seconds = seconds;
        result.cancelled = cancelled;
        result.complete = complete;
        result.failures = run.failures;  // pool drained: no races
        result.tests.reserve(target.merged.size());
        for (auto& [test, ticket] : target.merged) {
            result.tests.push_back(std::move(test));
        }
        suites.push_back(std::move(result));
    }
    return suites;
}

/// Seconds between two SynthesisOptions::progress snapshots.
constexpr double kProgressIntervalSeconds = 2.0;

/// The sampling thread behind SynthesisOptions::progress: wakes every
/// kProgressIntervalSeconds, snapshots the run(s)' relaxed counters via
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
        thread_ = std::thread([this] { loop(); });
    }

    ~ProgressHeartbeat() { stop(); }

    ProgressHeartbeat(const ProgressHeartbeat&) = delete;
    ProgressHeartbeat& operator=(const ProgressHeartbeat&) = delete;

    /// Joins the sampler and fires the final snapshot. Call after the
    /// pool drained (pool.wait) so the snapshot is settled; idempotent.
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
                             std::chrono::duration<double>(
                                 kProgressIntervalSeconds),
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
    sched::ThreadPool pool(options.jobs);
    pool.set_trace(options.trace);
    const std::uint64_t launched = obs::now_nanos();
    const std::unique_ptr<PassRun> run =
        launch_pass(pool, model, targets, options);
    std::atomic<int> suites_done{0};  // outlives the heartbeat below
    ProgressHeartbeat heartbeat(options, [&run, launched, &suites_done] {
        SynthesisProgress p;
        p.shards_done = run->jobs_done.load(std::memory_order_relaxed);
        p.shards_submitted =
            run->jobs_submitted.load(std::memory_order_relaxed);
        p.candidates = run->candidates.load(std::memory_order_relaxed);
        p.tests_found = run->tests_found.load(std::memory_order_relaxed);
        p.checkpoint_shards_saved =
            run->ckpt_saved.load(std::memory_order_relaxed);
        p.checkpoint_shards_replayed =
            run->ckpt_replayed.load(std::memory_order_relaxed);
        p.suites_done = suites_done.load(std::memory_order_relaxed);
        p.suites_total = static_cast<int>(run->targets.size());
        p.seconds = static_cast<double>(obs::now_nanos() - launched) * 1e-9;
        return p;
    });
    pool.wait();
    suites_done.store(static_cast<int>(run->targets.size()),
                      std::memory_order_relaxed);
    if (options.trace != nullptr) {
        options.trace->record_complete(options.trace->main_lane(),
                                       "suite " + run->name, launched,
                                       obs::now_nanos());
    }
    heartbeat.stop();
    return finish_pass(pool, *run);
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
    const int index = model.axiom_index(axiom_name);
    TF_ASSERT(index >= 0);
    return engine_skeleton_options(model, mtm::AxiomMask{1} << index,
                                   options, size);
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
        const AxiomRequirements req = axiom_requirements(model.axioms()[i]);
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

mtm::AxiomMask
barren_axioms(const mtm::Model& model, const Program& program)
{
    return Barrenness(model).of(program);
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
