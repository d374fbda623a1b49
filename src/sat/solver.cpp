#include "sat/solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/logging.h"

namespace transform::sat {

void
SolverStats::merge(const SolverStats& other)
{
    decisions += other.decisions;
    propagations += other.propagations;
    conflicts += other.conflicts;
    restarts += other.restarts;
    learned_clauses += other.learned_clauses;
    deleted_clauses += other.deleted_clauses;
    max_learned = std::max(max_learned, other.max_learned);
    solve_calls += other.solve_calls;
    solve_nanos += other.solve_nanos;
    assumed_literals += other.assumed_literals;
    retired_activations += other.retired_activations;
    retained_clauses += other.retained_clauses;
    bases_built += other.bases_built;
    bases_reused += other.bases_reused;
}

namespace {
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr double kRescaleLimit = 1e100;
constexpr int kRestartBase = 100;
/// How many conflicts between set_interrupt() polls: frequent enough that
/// a cancelled run stops within milliseconds even inside one hard query,
/// rare enough that the hook (a relaxed atomic load) never shows up in a
/// profile.
constexpr std::uint64_t kInterruptPollConflicts = 1024;
}  // namespace

Solver::Solver()
{
    stats_.max_learned = static_cast<std::uint64_t>(max_learned_);
}

void
Solver::reset()
{
    ok_ = true;
    clauses_used_ = 0;  // slots (and their lit buffers) are kept for reuse
    for (auto& list : watches_) {
        list.clear();  // entries kept for reuse by new_var
    }
    assigns_.clear();
    model_.clear();
    saved_phase_.clear();
    reason_.clear();
    level_.clear();
    activity_.clear();
    heap_position_.clear();
    seen_.clear();
    trail_.clear();
    trail_limits_.clear();
    planted_.clear();
    propagation_head_ = 0;
    order_heap_.clear();
    var_activity_increment_ = 1.0;
    clause_activity_increment_ = 1.0;
    // Retire the live counters into the lifetime accumulator before
    // clearing — per-suite aggregation reads lifetime_stats() off solvers
    // that reset once per query.
    retired_stats_.merge(stats_);
    stats_ = SolverStats{};
    max_learned_ = 4096;
    stats_.max_learned = static_cast<std::uint64_t>(max_learned_);
}

SolverStats
Solver::lifetime_stats() const
{
    SolverStats out = retired_stats_;
    out.merge(stats_);
    return out;
}

bool
Solver::retire_activation(Lit activation)
{
    ++stats_.retired_activations;
    // Live learned clauses this retirement keeps around: the payoff a
    // fresh-solver restart would have thrown away.
    stats_.retained_clauses +=
        stats_.learned_clauses - stats_.deleted_clauses;
    return add_unit(~activation);
}

Var
Solver::new_var()
{
    const Var v = static_cast<Var>(assigns_.size());
    assigns_.push_back(LBool::kUndef);
    model_.push_back(LBool::kUndef);
    saved_phase_.push_back(false);
    reason_.push_back(-1);
    level_.push_back(0);
    activity_.push_back(0.0);
    heap_position_.push_back(-1);
    seen_.push_back(false);
    while (watches_.size() < 2 * assigns_.size()) {
        watches_.emplace_back();  // after a reset the entries already exist
    }
    heap_insert(v);
    return v;
}

LBool
Solver::value(Var v) const
{
    return assigns_[v];
}

LBool
Solver::value(Lit l) const
{
    const LBool v = assigns_[l.var()];
    if (v == LBool::kUndef) {
        return LBool::kUndef;
    }
    const bool truth = (v == LBool::kTrue) != l.negated();
    return truth ? LBool::kTrue : LBool::kFalse;
}

bool
Solver::add_clause(const Lit* lits, std::size_t count)
{
    if (!ok_) {
        return false;
    }
    // A preceding solve() may have left its satisfying trail in place for
    // block_and_resolve(); adding a clause abandons that continuation.
    cancel_until(0);
    // Simplify in the reused scratch buffer: sort, drop duplicates, detect
    // tautologies, drop literals already false at the root level, detect
    // already-satisfied clauses.
    add_scratch_.assign(lits, lits + count);
    std::sort(add_scratch_.begin(), add_scratch_.end());
    std::size_t keep = 0;
    Lit previous = kUndefLit;
    for (const Lit l : add_scratch_) {
        TF_ASSERT(l.var() >= 0 && l.var() < num_vars());
        if (value(l) == LBool::kTrue || l == ~previous) {
            return true;  // satisfied or tautology
        }
        if (value(l) == LBool::kFalse || l == previous) {
            continue;  // falsified at root or duplicate
        }
        add_scratch_[keep++] = l;
        previous = l;
    }
    if (keep == 0) {
        ok_ = false;
        return false;
    }
    if (keep == 1) {
        enqueue(add_scratch_[0], -1);
        if (propagate() != -1) {
            ok_ = false;
            return false;
        }
        return true;
    }
    attach_clause(store_clause(add_scratch_.data(), keep, /*learned=*/false));
    return true;
}

int
Solver::store_clause(const Lit* lits, std::size_t count, bool learned)
{
    if (clauses_used_ < clauses_.size()) {
        // Refill a retired slot, reusing its literal buffer.
        InternalClause& slot = clauses_[clauses_used_];
        slot.lits.assign(lits, lits + count);
        slot.learned = learned;
        slot.activity = 0.0;
        slot.deleted = false;
    } else {
        clauses_.push_back({Clause(lits, lits + count), learned, 0.0, false});
    }
    return static_cast<int>(clauses_used_++);
}

void
Solver::attach_clause(int clause_index)
{
    const InternalClause& c = clauses_[clause_index];
    TF_ASSERT(c.lits.size() >= 2);
    watches_[(~c.lits[0]).code()].push_back({clause_index, c.lits[1]});
    watches_[(~c.lits[1]).code()].push_back({clause_index, c.lits[0]});
}

void
Solver::enqueue(Lit l, int reason_clause)
{
    TF_ASSERT(value(l) == LBool::kUndef);
    assigns_[l.var()] = l.negated() ? LBool::kFalse : LBool::kTrue;
    reason_[l.var()] = reason_clause;
    level_[l.var()] = decision_level();
    trail_.push_back(l);
}

int
Solver::propagate()
{
    while (propagation_head_ < static_cast<int>(trail_.size())) {
        const Lit p = trail_[propagation_head_++];
        ++stats_.propagations;
        auto& ws = watches_[p.code()];
        std::size_t insert = 0;
        std::size_t read = 0;
        while (read < ws.size()) {
            const Watcher w = ws[read];
            if (value(w.blocker) == LBool::kTrue) {
                ws[insert++] = ws[read++];
                continue;
            }
            InternalClause& c = clauses_[w.clause_index];
            const Lit false_lit = ~p;
            if (c.lits[0] == false_lit) {
                std::swap(c.lits[0], c.lits[1]);
            }
            TF_ASSERT(c.lits[1] == false_lit);
            ++read;
            const Lit first = c.lits[0];
            if (first != w.blocker && value(first) == LBool::kTrue) {
                ws[insert++] = {w.clause_index, first};
                continue;
            }
            bool found_watch = false;
            for (std::size_t k = 2; k < c.lits.size(); ++k) {
                if (value(c.lits[k]) != LBool::kFalse) {
                    std::swap(c.lits[1], c.lits[k]);
                    watches_[(~c.lits[1]).code()].push_back({w.clause_index, first});
                    found_watch = true;
                    break;
                }
            }
            if (found_watch) {
                continue;  // moved to another watch list
            }
            // Clause is unit or conflicting.
            ws[insert++] = {w.clause_index, first};
            if (value(first) == LBool::kFalse) {
                // Conflict: keep the remaining watchers and bail out.
                while (read < ws.size()) {
                    ws[insert++] = ws[read++];
                }
                ws.resize(insert);
                propagation_head_ = static_cast<int>(trail_.size());
                return w.clause_index;
            }
            enqueue(first, w.clause_index);
        }
        ws.resize(insert);
    }
    return -1;
}

void
Solver::cancel_until(int target_level)
{
    if (decision_level() <= target_level) {
        return;
    }
    const int boundary = trail_limits_[target_level];
    for (int i = static_cast<int>(trail_.size()) - 1; i >= boundary; --i) {
        const Var v = trail_[i].var();
        saved_phase_[v] = !trail_[i].negated();
        assigns_[v] = LBool::kUndef;
        reason_[v] = -1;
        if (!heap_contains(v)) {
            heap_insert(v);
        }
    }
    trail_.resize(boundary);
    trail_limits_.resize(target_level);
    propagation_head_ = static_cast<int>(trail_.size());
    if (planted_.size() > static_cast<std::size_t>(target_level)) {
        planted_.resize(target_level);
    }
}

void
Solver::analyze(int conflict_index, Clause& learned, int& backtrack_level)
{
    learned.clear();
    learned.push_back(kUndefLit);  // placeholder for the asserting literal
    Lit p = kUndefLit;
    int path_count = 0;
    int index = static_cast<int>(trail_.size()) - 1;

    int current = conflict_index;
    do {
        TF_ASSERT(current != -1);
        InternalClause& c = clauses_[current];
        if (c.learned) {
            bump_clause(current);
        }
        for (const Lit q : c.lits) {
            if (p != kUndefLit && q.var() == p.var()) {
                continue;
            }
            if (!seen_[q.var()] && level_[q.var()] > 0) {
                seen_[q.var()] = true;
                bump_var(q.var());
                if (level_[q.var()] >= decision_level()) {
                    ++path_count;
                } else {
                    learned.push_back(q);
                }
            }
        }
        // Select the next trail literal to expand.
        while (!seen_[trail_[index].var()]) {
            --index;
        }
        p = trail_[index];
        --index;
        current = reason_[p.var()];
        seen_[p.var()] = false;
        --path_count;
    } while (path_count > 0);
    learned[0] = ~p;

    // Conflict-clause minimization: drop literals implied by the rest.
    analyze_to_clear_.assign(learned.begin(), learned.end());
    std::uint32_t abstract_levels = 0;
    for (std::size_t i = 1; i < learned.size(); ++i) {
        abstract_levels |= 1u << (level_[learned[i].var()] & 31);
    }
    std::size_t keep = 1;
    for (std::size_t i = 1; i < learned.size(); ++i) {
        const Lit l = learned[i];
        if (reason_[l.var()] == -1 || !literal_redundant(l, abstract_levels)) {
            learned[keep++] = l;
        }
    }
    learned.resize(keep);
    for (const Lit l : analyze_to_clear_) {
        if (l != kUndefLit) {
            seen_[l.var()] = false;
        }
    }
    analyze_to_clear_.clear();

    // Compute the backtrack level (second-highest decision level).
    if (learned.size() == 1) {
        backtrack_level = 0;
    } else {
        std::size_t max_index = 1;
        for (std::size_t i = 2; i < learned.size(); ++i) {
            if (level_[learned[i].var()] > level_[learned[max_index].var()]) {
                max_index = i;
            }
        }
        std::swap(learned[1], learned[max_index]);
        backtrack_level = level_[learned[1].var()];
    }
}

bool
Solver::literal_redundant(Lit l, std::uint32_t abstract_levels)
{
    analyze_stack_.clear();
    analyze_stack_.push_back(l);
    const std::size_t top = analyze_to_clear_.size();
    while (!analyze_stack_.empty()) {
        const Lit current = analyze_stack_.back();
        analyze_stack_.pop_back();
        TF_ASSERT(reason_[current.var()] != -1);
        const InternalClause& c = clauses_[reason_[current.var()]];
        for (const Lit q : c.lits) {
            if (q.var() == current.var()) {
                continue;
            }
            if (seen_[q.var()] || level_[q.var()] == 0) {
                continue;
            }
            const bool in_levels =
                (abstract_levels & (1u << (level_[q.var()] & 31))) != 0;
            if (reason_[q.var()] != -1 && in_levels) {
                seen_[q.var()] = true;
                analyze_stack_.push_back(q);
                analyze_to_clear_.push_back(q);
            } else {
                for (std::size_t j = top; j < analyze_to_clear_.size(); ++j) {
                    seen_[analyze_to_clear_[j].var()] = false;
                }
                analyze_to_clear_.resize(top);
                return false;
            }
        }
    }
    return true;
}

void
Solver::bump_var(Var v)
{
    activity_[v] += var_activity_increment_;
    if (activity_[v] > kRescaleLimit) {
        for (double& a : activity_) {
            a *= 1e-100;
        }
        var_activity_increment_ *= 1e-100;
    }
    if (heap_contains(v)) {
        heap_percolate_up(heap_position_[v]);
    }
}

void
Solver::decay_var_activity()
{
    var_activity_increment_ /= kVarDecay;
}

void
Solver::bump_clause(int clause_index)
{
    InternalClause& c = clauses_[clause_index];
    c.activity += clause_activity_increment_;
    if (c.activity > kRescaleLimit) {
        for (std::size_t i = 0; i < clauses_used_; ++i) {
            clauses_[i].activity *= 1e-100;
        }
        clause_activity_increment_ *= 1e-100;
    }
}

void
Solver::decay_clause_activity()
{
    clause_activity_increment_ /= kClauseDecay;
}

bool
Solver::heap_contains(Var v) const
{
    return heap_position_[v] >= 0;
}

void
Solver::heap_insert(Var v)
{
    heap_position_[v] = static_cast<int>(order_heap_.size());
    order_heap_.push_back(v);
    heap_percolate_up(heap_position_[v]);
}

void
Solver::heap_percolate_up(int position)
{
    const Var v = order_heap_[position];
    while (position > 0) {
        const int parent = (position - 1) / 2;
        if (activity_[order_heap_[parent]] >= activity_[v]) {
            break;
        }
        order_heap_[position] = order_heap_[parent];
        heap_position_[order_heap_[position]] = position;
        position = parent;
    }
    order_heap_[position] = v;
    heap_position_[v] = position;
}

void
Solver::heap_percolate_down(int position)
{
    const Var v = order_heap_[position];
    const int size = static_cast<int>(order_heap_.size());
    while (true) {
        int child = 2 * position + 1;
        if (child >= size) {
            break;
        }
        if (child + 1 < size &&
            activity_[order_heap_[child + 1]] > activity_[order_heap_[child]]) {
            ++child;
        }
        if (activity_[order_heap_[child]] <= activity_[v]) {
            break;
        }
        order_heap_[position] = order_heap_[child];
        heap_position_[order_heap_[position]] = position;
        position = child;
    }
    order_heap_[position] = v;
    heap_position_[v] = position;
}

Var
Solver::heap_pop()
{
    if (order_heap_.empty()) {
        return kUndefVar;
    }
    const Var top = order_heap_[0];
    heap_position_[top] = -1;
    const Var last = order_heap_.back();
    order_heap_.pop_back();
    if (!order_heap_.empty()) {
        order_heap_[0] = last;
        heap_position_[last] = 0;
        heap_percolate_down(0);
    }
    return top;
}

Lit
Solver::pick_branch_literal()
{
    while (true) {
        const Var v = heap_pop();
        if (v == kUndefVar) {
            return kUndefLit;
        }
        if (assigns_[v] == LBool::kUndef) {
            ++stats_.decisions;
            return Lit(v, !saved_phase_[v]);
        }
    }
}

void
Solver::reduce_db()
{
    // Fast path: nothing to do until the learned database outgrows the cap.
    const std::int64_t live_learned =
        static_cast<std::int64_t>(stats_.learned_clauses) -
        static_cast<std::int64_t>(stats_.deleted_clauses);
    if (live_learned < max_learned_) {
        return;
    }
    std::vector<int> learned_indices;
    for (int i = 0; i < static_cast<int>(clauses_used_); ++i) {
        const InternalClause& c = clauses_[i];
        if (c.learned && !c.deleted && c.lits.size() > 2) {
            const bool is_reason = reason_[c.lits[0].var()] == i &&
                                   assigns_[c.lits[0].var()] != LBool::kUndef;
            if (!is_reason) {
                learned_indices.push_back(i);
            }
        }
    }
    if (learned_indices.size() < 2) {
        // Nothing meaningful to delete (everything learned is binary or
        // locked as a propagation reason). Still grow the cap: without
        // growth it would stay below the live count forever and every
        // later conflict would pay the full-DB scan above.
        grow_max_learned();
        return;
    }
    std::sort(learned_indices.begin(), learned_indices.end(), [this](int a, int b) {
        return clauses_[a].activity < clauses_[b].activity;
    });
    const std::size_t to_delete = learned_indices.size() / 2;
    for (std::size_t i = 0; i < to_delete; ++i) {
        clauses_[learned_indices[i]].deleted = true;
        clauses_[learned_indices[i]].lits.clear();
        clauses_[learned_indices[i]].lits.shrink_to_fit();
        ++stats_.deleted_clauses;
    }
    // Rebuild the watch lists from scratch (simple and safe).
    for (auto& list : watches_) {
        list.clear();
    }
    for (int i = 0; i < static_cast<int>(clauses_used_); ++i) {
        if (!clauses_[i].deleted) {
            attach_clause(i);
        }
    }
    grow_max_learned();
}

void
Solver::grow_max_learned()
{
    max_learned_ = static_cast<int>(max_learned_ * 1.2);
    stats_.max_learned = static_cast<std::uint64_t>(max_learned_);
}

double
Solver::luby(double base, int index)
{
    // Finds the Luby sequence value for the given index (1-based reluctant
    // doubling sequence: 1 1 2 1 1 2 4 ...).
    int size = 1;
    int sequence = 0;
    while (size < index + 1) {
        ++sequence;
        size = 2 * size + 1;
    }
    while (size - 1 != index) {
        size = (size - 1) / 2;
        --sequence;
        index = index % size;
    }
    return std::pow(base, sequence);
}

SolveResult
Solver::solve(const std::vector<Lit>& assumptions, std::int64_t conflict_budget)
{
    ++stats_.solve_calls;
    stats_.assumed_literals += assumptions.size();
    if (!timing_) {
        return solve_impl(assumptions, conflict_budget);
    }
    const auto start = std::chrono::steady_clock::now();
    const SolveResult result = solve_impl(assumptions, conflict_budget);
    const std::uint64_t elapsed = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    stats_.solve_nanos += elapsed;
    if (solve_observer_) {
        solve_observer_(elapsed);
    }
    return result;
}

SolveResult
Solver::solve_impl(const std::vector<Lit>& assumptions,
                   std::int64_t conflict_budget)
{
    unknown_cause_ = UnknownCause::kNone;
    if (conflict_budget < 0) {
        conflict_budget = default_budget_;
    }
    if (!ok_) {
        return SolveResult::kUnsat;
    }
    // Trail reuse: keep the longest prefix of decision levels that were
    // planted for the same assumption literals by the previous solve —
    // their propagations are still valid, so an enumeration sweeping
    // near-identical assumption vectors (the incremental session's
    // candidate pins differ in a suffix) skips most of the
    // re-propagation. Callers without assumptions get the historical
    // restart-from-root behavior (the prefix is empty).
    int reuse = 0;
    const int limit =
        std::min(decision_level(),
                 static_cast<int>(std::min(planted_.size(),
                                           assumptions.size())));
    while (reuse < limit && planted_[reuse] == assumptions[reuse]) {
        ++reuse;
    }
    cancel_until(reuse);
    return search(assumptions, conflict_budget);
}

SolveResult
Solver::block_and_resolve(const Lit* lits, std::size_t count,
                          const std::vector<Lit>& assumptions,
                          std::int64_t conflict_budget)
{
    ++stats_.solve_calls;
    stats_.assumed_literals += assumptions.size();
    if (!timing_) {
        return block_and_resolve_impl(lits, count, assumptions,
                                      conflict_budget);
    }
    const auto start = std::chrono::steady_clock::now();
    const SolveResult result =
        block_and_resolve_impl(lits, count, assumptions, conflict_budget);
    const std::uint64_t elapsed = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    stats_.solve_nanos += elapsed;
    if (solve_observer_) {
        solve_observer_(elapsed);
    }
    return result;
}

SolveResult
Solver::block_and_resolve_impl(const Lit* lits, std::size_t count,
                               const std::vector<Lit>& assumptions,
                               std::int64_t conflict_budget)
{
    unknown_cause_ = UnknownCause::kNone;
    if (conflict_budget < 0) {
        conflict_budget = default_budget_;
    }
    if (!ok_) {
        return SolveResult::kUnsat;
    }
    // The preceding kSat trail must be intact: every assumption level
    // established and every clause literal falsified by the model.
    TF_ASSERT(decision_level() >= static_cast<int>(assumptions.size()));
    add_scratch_.clear();
    for (std::size_t i = 0; i < count; ++i) {
        const Lit l = lits[i];
        TF_ASSERT(value(l) == LBool::kFalse);
        if (level_[l.var()] > 0) {
            add_scratch_.push_back(l);
        }
    }
    if (add_scratch_.empty()) {
        // Falsified at the root with nothing left to flip: the formula
        // itself excludes every other model.
        ok_ = false;
        return SolveResult::kUnsat;
    }
    // Move the two deepest-falsified literals to the watch positions.
    std::size_t deepest = 0;
    for (std::size_t i = 1; i < add_scratch_.size(); ++i) {
        if (level_[add_scratch_[i].var()] >
            level_[add_scratch_[deepest].var()]) {
            deepest = i;
        }
    }
    std::swap(add_scratch_[0], add_scratch_[deepest]);
    const int level_max = level_[add_scratch_[0].var()];
    if (level_max <= static_cast<int>(assumptions.size())) {
        // Every remaining literal is pinned false by the assumption prefix
        // itself: no flip is reachable without undoing an assumption, so
        // this scope holds no further model. The clause is not stored —
        // the caller's activation guard (see the header contract) is about
        // to be retired, which would satisfy it permanently anyway.
        return SolveResult::kUnsat;
    }
    if (add_scratch_.size() == 1) {
        // Unit after root simplification: assert it at the root.
        cancel_until(0);
        enqueue(add_scratch_[0], -1);
        return search(assumptions, conflict_budget);
    }
    std::size_t second = 1;
    for (std::size_t i = 2; i < add_scratch_.size(); ++i) {
        if (level_[add_scratch_[i].var()] >
            level_[add_scratch_[second].var()]) {
            second = i;
        }
    }
    std::swap(add_scratch_[1], add_scratch_[second]);
    const int level_second = level_[add_scratch_[1].var()];
    if (level_second < level_max) {
        // Asserting clause: backjump to the second-deepest level and
        // propagate the flipped deepest literal, exactly like a learned
        // conflict clause (watches on the asserting + deepest-false lit).
        cancel_until(level_second);
        const int index = store_clause(add_scratch_.data(),
                                       add_scratch_.size(),
                                       /*learned=*/false);
        attach_clause(index);
        enqueue(add_scratch_[0], index);
    } else {
        // Two or more literals die at the deepest level: undo that level so
        // both watches sit on unassigned literals, then search on.
        cancel_until(level_max - 1);
        const int index = store_clause(add_scratch_.data(),
                                       add_scratch_.size(),
                                       /*learned=*/false);
        attach_clause(index);
    }
    return search(assumptions, conflict_budget);
}

SolveResult
Solver::search(const std::vector<Lit>& assumptions,
               std::int64_t conflict_budget)
{
    const std::uint64_t conflict_start = stats_.conflicts;
    std::uint64_t restart_conflicts =
        static_cast<std::uint64_t>(luby(2.0, static_cast<int>(stats_.restarts)) *
                                   kRestartBase);
    std::uint64_t conflicts_since_restart = 0;
    std::uint64_t conflicts_since_poll = 0;
    Clause learned;

    while (true) {
        const int conflict = propagate();
        if (conflict != -1) {
            ++stats_.conflicts;
            ++conflicts_since_restart;
            if (decision_level() == 0) {
                ok_ = false;
                return SolveResult::kUnsat;
            }
            int backtrack_level = 0;
            analyze(conflict, learned, backtrack_level);
            cancel_until(backtrack_level);
            if (learned.size() == 1) {
                enqueue(learned[0], -1);
            } else {
                const int index =
                    store_clause(learned.data(), learned.size(),
                                 /*learned=*/true);
                attach_clause(index);
                bump_clause(index);
                enqueue(learned[0], index);
                ++stats_.learned_clauses;
            }
            decay_var_activity();
            decay_clause_activity();
            if (conflict_budget >= 0 &&
                stats_.conflicts - conflict_start >
                    static_cast<std::uint64_t>(conflict_budget)) {
                cancel_until(0);
                unknown_cause_ = UnknownCause::kConflictBudget;
                return SolveResult::kUnknown;
            }
            // Cooperative interrupt: poll at conflict-count intervals so a
            // cancelled run stops even mid-way through one hard query.
            if (interrupt_ && ++conflicts_since_poll >= kInterruptPollConflicts) {
                conflicts_since_poll = 0;
                if (interrupt_()) {
                    cancel_until(0);
                    unknown_cause_ = UnknownCause::kInterrupt;
                    return SolveResult::kUnknown;
                }
            }
            continue;
        }

        if (conflicts_since_restart >= restart_conflicts) {
            ++stats_.restarts;
            conflicts_since_restart = 0;
            restart_conflicts = static_cast<std::uint64_t>(
                luby(2.0, static_cast<int>(stats_.restarts)) * kRestartBase);
            cancel_until(0);
            continue;
        }
        reduce_db();

        // Establish pending assumptions, then branch. Each planted level is
        // recorded so the next solve can reuse a matching prefix.
        Lit next = kUndefLit;
        while (decision_level() < static_cast<int>(assumptions.size())) {
            const Lit a = assumptions[decision_level()];
            if (value(a) == LBool::kTrue) {
                planted_.push_back(a);
                trail_limits_.push_back(static_cast<int>(trail_.size()));
            } else if (value(a) == LBool::kFalse) {
                // The levels established so far stay on the trail for the
                // next solve's prefix reuse; every entry point that needs
                // the root backtracks there itself.
                return SolveResult::kUnsat;
            } else {
                planted_.push_back(a);
                next = a;
                break;
            }
        }
        if (next == kUndefLit) {
            next = pick_branch_literal();
        }
        if (next == kUndefLit) {
            // Keep the satisfying trail: block_and_resolve() resumes from
            // it, and every other entry point backtracks on entry.
            model_ = assigns_;
            return SolveResult::kSat;
        }
        trail_limits_.push_back(static_cast<int>(trail_.size()));
        enqueue(next, -1);
    }
}

LBool
Solver::model_value(Var v) const
{
    return model_[v];
}

bool
Solver::model_literal_true(Lit l) const
{
    const LBool v = model_[l.var()];
    if (v == LBool::kUndef) {
        return false;
    }
    return (v == LBool::kTrue) != l.negated();
}

}  // namespace transform::sat
