/// \file
/// A conflict-driven clause-learning (CDCL) SAT solver.
///
/// This is the stand-in for MiniSat in the paper's Alloy/Kodkod/MiniSat
/// pipeline (see DESIGN.md, substitutions). Features: two-watched-literal
/// propagation, first-UIP clause learning with recursive minimization, VSIDS
/// branching with phase saving, Luby restarts, learned-clause database
/// reduction, and solving under assumptions (the incremental probe
/// session's per-candidate pins and activation guards).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sat/types.h"

namespace transform::sat {

/// Result of a solve call.
enum class SolveResult { kSat, kUnsat, kUnknown };

/// Why the most recent solve answered kUnknown (kNone after kSat/kUnsat).
/// Callers that must tell a budget expiry (retryable shard fault) from a
/// cooperative interrupt (cancellation/deadline: discard and stop) branch
/// on this instead of guessing.
enum class UnknownCause {
    kNone,            ///< last answer was decisive
    kConflictBudget,  ///< per-call or set_conflict_budget limit hit
    kInterrupt,       ///< the set_interrupt hook asked the search to stop
};

/// Thrown by the encoding layers (mtm::ProgramEncoding,
/// mtm::IncrementalEncoding) when a witness query exhausts its conflict
/// budget: the candidate's verdict is unknown, so the enumeration result
/// would be unsound to keep. The synthesis engine catches it at the shard
/// boundary and treats the shard as a retryable fault (docs/robustness.md).
class BudgetExhausted : public std::runtime_error {
  public:
    BudgetExhausted()
        : std::runtime_error(
              "SAT conflict budget exhausted before a decisive verdict")
    {
    }
};

/// Aggregate statistics, exposed for the substrate micro-benchmarks and
/// aggregated per suite into synth::SuiteResult::solver (the observability
/// layer's solver-time attribution — see docs/observability.md).
struct SolverStats {
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned_clauses = 0;
    std::uint64_t deleted_clauses = 0;
    /// Current learned-clause database cap; starts at 4096 and grows
    /// geometrically on every reduce_db pass (MiniSat-style), so
    /// long-running enumeration queries stop thrashing the reducer.
    std::uint64_t max_learned = 0;
    /// solve() invocations (every AllSAT model extraction is one call).
    std::uint64_t solve_calls = 0;
    /// Wall nanoseconds inside solve(). Only accumulated while
    /// set_timing(true) — the default-off clock reads keep the hot path
    /// identical when nobody is measuring.
    std::uint64_t solve_nanos = 0;
    /// Assumption literals passed across all solve() calls — the
    /// incremental backend's per-candidate work is pure assumptions, so
    /// this is its "encoding avoided" proxy.
    std::uint64_t assumed_literals = 0;
    /// Activation literals permanently retired via retire_activation()
    /// (one per candidate the incremental session advanced past).
    std::uint64_t retired_activations = 0;
    /// Learned clauses alive at each retire_activation() call, summed —
    /// the clause-retention payoff of keeping one solver across
    /// candidates instead of resetting per query.
    std::uint64_t retained_clauses = 0;
    /// Structure-base encodings built from scratch / served from the
    /// incremental session's base cache. Counted by the session (the
    /// solver never bumps them itself); carried here so the per-suite
    /// solver aggregation surfaces the circuit-construction sharing.
    std::uint64_t bases_built = 0;
    std::uint64_t bases_reused = 0;

    /// Accumulates another solver's counters (monotonic counters add;
    /// `max_learned`, a cap rather than a count, takes the maximum).
    void merge(const SolverStats& other);
};

/// CDCL SAT solver over clauses added incrementally.
class Solver {
  public:
    Solver();

    /// Returns the solver to its freshly-constructed state while keeping
    /// every internal buffer's capacity (clause slots, watch lists, per-var
    /// arrays, analysis scratch). A reset solver behaves bit-identically to
    /// a new one; the SAT encodings reset and reuse a solver for each
    /// build (a probe base rebuilt in a recycled cache slot, a worker's
    /// replay of an accepted candidate) to keep the hot path
    /// allocation-free in steady state.
    void reset();

    /// Creates a fresh variable and returns it.
    Var new_var();

    /// Number of variables created so far.
    int num_vars() const { return static_cast<int>(assigns_.size()); }

    /// Adds a clause from a literal range; returns false if the formula is
    /// already trivially unsatisfiable (empty clause after simplification).
    /// The allocation-free core: simplification runs in a reused member
    /// buffer and stored clauses reuse retired slots.
    bool add_clause(const Lit* lits, std::size_t count);

    /// Vector convenience wrapper.
    bool add_clause(const Clause& clause)
    {
        return add_clause(clause.data(), clause.size());
    }

    /// Convenience overloads for short clauses.
    bool add_unit(Lit a) { return add_clause(&a, 1); }
    bool add_binary(Lit a, Lit b)
    {
        const Lit lits[] = {a, b};
        return add_clause(lits, 2);
    }
    bool add_ternary(Lit a, Lit b, Lit c)
    {
        const Lit lits[] = {a, b, c};
        return add_clause(lits, 3);
    }

    /// Solves the current formula under optional \p assumptions.
    /// \p conflict_budget bounds the search (<0 means unlimited).
    ///
    /// A kSat answer leaves the satisfying trail in place (the model is
    /// additionally snapshotted for model_value()): the caller may resume
    /// the search from it via block_and_resolve(), and every other entry
    /// point (add_clause, solve, retire_activation) backtracks to the root
    /// on entry, so callers that never resume see no behavior change.
    SolveResult solve(const std::vector<Lit>& assumptions = {},
                      std::int64_t conflict_budget = -1);

    /// AllSAT continuation: blocks the model found by the immediately
    /// preceding kSat answer (whose trail must be untouched) and resumes
    /// the search in place instead of re-solving from scratch — the
    /// falsified clause is handled like a conflict (backjump, attach,
    /// propagate), so the decisions below the blocked choice survive.
    ///
    /// \p lits must be falsified by the current model. \p assumptions must
    /// be the vector the preceding solve ran under. Returns kSat with the
    /// next model, or kUnsat when no model remains under the assumptions —
    /// including a constant-time exit when every literal not already false
    /// at the root is pinned false by the assumption prefix itself. In
    /// that exit the clause is NOT stored: enumeration callers guard their
    /// blocking clauses with an activation literal they permanently retire
    /// before the next query, which is what makes the omission sound.
    SolveResult block_and_resolve(const Lit* lits, std::size_t count,
                                  const std::vector<Lit>& assumptions,
                                  std::int64_t conflict_budget = -1);

    /// Value of \p v in the most recent satisfying model.
    LBool model_value(Var v) const;

    /// Value of \p l in the most recent satisfying model.
    bool model_literal_true(Lit l) const;

    /// Permanently asserts ~\p activation (a unit clause), retiring an
    /// activation literal the caller had been solving under: clauses
    /// guarded on \p activation become satisfied dead weight until the
    /// next reset(), while every learned clause stays sound (learning
    /// only ever resolves stored clauses, so retirement cannot invalidate
    /// it). Bumps the retirement/retention counters.
    bool retire_activation(Lit activation);

    /// Solver statistics accumulated since construction or the last
    /// reset().
    const SolverStats& stats() const { return stats_; }

    /// Statistics accumulated across every reset() since construction:
    /// reset() folds the live counters into a retired accumulator before
    /// clearing them, so a per-worker solver reused across millions of
    /// queries can still report per-suite totals. Purely observational —
    /// the reset-is-bit-identical contract is untouched.
    SolverStats lifetime_stats() const;

    /// Enables wall-clock accumulation into SolverStats::solve_nanos
    /// (default off: two clock reads per solve() call are only paid when
    /// somebody asked for solver-time attribution). Survives reset() —
    /// it is configuration, like buffer capacity.
    void set_timing(bool enabled) { timing_ = enabled; }

    /// Persistent conflict budget applied to every solve()/
    /// block_and_resolve() whose caller left the per-call budget at the
    /// default: the search answers kUnknown (unknown_cause() ==
    /// kConflictBudget) once it spends this many conflicts. 0 = unlimited
    /// (the default). An explicit per-call budget still takes precedence.
    /// Survives reset() — configuration, like set_timing.
    void
    set_conflict_budget(std::int64_t budget)
    {
        default_budget_ = budget <= 0 ? -1 : budget;
    }

    /// Installs a cooperative interrupt hook, polled inside the CDCL loop
    /// every ~1024 conflicts: when it returns true the search unwinds to
    /// the root and answers kUnknown (unknown_cause() == kInterrupt). The
    /// hook runs on the solving thread and must be cheap (the engine polls
    /// a relaxed atomic). An empty function clears it. Survives reset().
    void set_interrupt(std::function<bool()> poll)
    {
        interrupt_ = std::move(poll);
    }

    /// Installs a per-solve latency observer, invoked with each
    /// solve()/block_and_resolve() call's wall nanoseconds. Only fires
    /// while set_timing(true) — it rides the same two gated clock reads,
    /// so the untimed hot path stays identical. The observer runs on the
    /// solving thread (the engine feeds a per-worker histogram cell, so
    /// no synchronization is needed). An empty function clears it.
    /// Survives reset() — configuration, like set_timing.
    void set_solve_observer(std::function<void(std::uint64_t)> observer)
    {
        solve_observer_ = std::move(observer);
    }

    /// Why the most recent solve()/block_and_resolve() answered kUnknown
    /// (kNone after a decisive answer).
    UnknownCause unknown_cause() const { return unknown_cause_; }

    /// True if the formula was proven unsatisfiable without assumptions.
    bool proven_unsat() const { return ok_ == false; }

  private:
    /// The CDCL search loop behind solve() (which only adds the gated
    /// timing wrapper).
    SolveResult solve_impl(const std::vector<Lit>& assumptions,
                           std::int64_t conflict_budget);

    /// block_and_resolve() behind its timing wrapper.
    SolveResult block_and_resolve_impl(const Lit* lits, std::size_t count,
                                       const std::vector<Lit>& assumptions,
                                       std::int64_t conflict_budget);

    /// The shared CDCL loop: propagate / analyze / restart / branch from
    /// the current trail until a model, a refutation, or the budget.
    SolveResult search(const std::vector<Lit>& assumptions,
                       std::int64_t conflict_budget);

    struct Watcher {
        int clause_index;
        Lit blocker;
    };

    struct InternalClause {
        Clause lits;
        bool learned = false;
        double activity = 0.0;
        bool deleted = false;
    };

    // Assignment/trail machinery.
    LBool value(Lit l) const;
    LBool value(Var v) const;
    void enqueue(Lit l, int reason_clause);
    int propagate();  // returns conflicting clause index or -1
    void attach_clause(int clause_index);
    void cancel_until(int level);
    int decision_level() const { return static_cast<int>(trail_limits_.size()); }

    // Conflict analysis.
    void analyze(int conflict_index, Clause& learned, int& backtrack_level);
    bool literal_redundant(Lit l, std::uint32_t abstract_levels);

    // Branching heuristics.
    void bump_var(Var v);
    void decay_var_activity();
    void bump_clause(int clause_index);
    void decay_clause_activity();
    Lit pick_branch_literal();
    void heap_insert(Var v);
    Var heap_pop();
    void heap_percolate_up(int position);
    void heap_percolate_down(int position);
    bool heap_contains(Var v) const;

    // Learned-clause database management.
    void reduce_db();
    void grow_max_learned();

    // Restart schedule.
    static double luby(double base, int index);

    /// Appends (or slot-reuses) a stored clause; returns its index.
    int store_clause(const Lit* lits, std::size_t count, bool learned);

    bool ok_ = true;
    std::vector<InternalClause> clauses_;  ///< slots; only clauses_used_ live
    /// Live clause count. Slots past it are retired (their lit buffers are
    /// kept and refilled by store_clause after a reset).
    std::size_t clauses_used_ = 0;
    std::vector<std::vector<Watcher>> watches_;  // indexed by literal code
    std::vector<LBool> assigns_;
    std::vector<LBool> model_;
    std::vector<bool> saved_phase_;
    std::vector<int> reason_;  // clause index or -1, per var
    std::vector<int> level_;   // decision level per var
    std::vector<Lit> trail_;
    std::vector<int> trail_limits_;
    /// The assumption literal each leading decision level was planted for
    /// (kept in lockstep by cancel_until): solve() reuses the longest
    /// prefix matching its new assumption vector instead of backtracking
    /// to the root.
    std::vector<Lit> planted_;
    int propagation_head_ = 0;

    // VSIDS.
    std::vector<double> activity_;
    double var_activity_increment_ = 1.0;
    double clause_activity_increment_ = 1.0;
    std::vector<Var> order_heap_;
    std::vector<int> heap_position_;  // per var, -1 when absent

    // Scratch buffers for analyze() and add_clause().
    std::vector<bool> seen_;
    std::vector<Lit> analyze_stack_;
    std::vector<Lit> analyze_to_clear_;
    Clause add_scratch_;

    SolverStats stats_;
    /// Counters folded in from previous reset() epochs (lifetime_stats).
    SolverStats retired_stats_;
    bool timing_ = false;  ///< accumulate solve_nanos (set_timing)
    /// Configuration (survives reset() like timing_): the fallback budget
    /// applied when a caller passes conflict_budget = -1, the cooperative
    /// interrupt hook, and the cause of the last kUnknown answer.
    std::int64_t default_budget_ = -1;
    std::function<bool()> interrupt_;
    std::function<void(std::uint64_t)> solve_observer_;
    UnknownCause unknown_cause_ = UnknownCause::kNone;
    /// Learned-DB cap; grown geometrically by reduce_db (never fixed — a
    /// static cap makes every conflict past it rescan the clause DB).
    int max_learned_ = 4096;
};

}  // namespace transform::sat
