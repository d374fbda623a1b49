#include "mtm/incremental.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "mtm/encoding_detail.h"
#include "obs/alloc.h"
#include "rel/bool_factory.h"
#include "rel/relation.h"
#include "spec/ast.h"
#include "util/logging.h"

namespace transform::mtm {

using elt::Event;
using elt::EventId;
using elt::EventKind;
using elt::Execution;
using elt::kNone;
using elt::Program;
using rel::BoolFactory;
using rel::ExprId;
using rel::RelExpr;

namespace {

/// Events carrying a virtual address, i.e. the events that get a VA
/// selector row. Kind-determined, so membership is part of the structure
/// key even though the VA value is not.
bool
has_selector(EventKind kind)
{
    return kind != EventKind::kMfence && kind != EventKind::kInvlpgAll;
}

/// Default base-cache capacity (live base included). The skeleton
/// enumerator's late stages (rmw marking, linking variants) ping-pong
/// between a handful of neighbouring structures, so a small cache captures
/// nearly all revisits; each retained base owns a solver, so the cap also
/// bounds the session's memory.
constexpr int kDefaultBaseCacheCapacity = 8;

/// One edge of a flat extraction template (see BaseState::ext_rf).
struct TemplateEdge {
    EventId a;
    EventId b;
    sat::Lit lit;
};

/// The swappable per-structure slice of a session: one built base — its
/// solver, circuit factory, structure key, selector/choice rows,
/// derived relations, frozen projection templates, and the deferred
/// activation guards of candidates already served from it. The session's
/// base cache stashes whole BaseStates and swaps one back in when the
/// enumerator revisits a known signature; every RelExpr/ExprId inside
/// indexes the co-swapped factory and expr_memo keys are stable AST
/// pointers owned by the Model, so a swapped-out base stays internally
/// consistent with no pointer fixups.
struct BaseState {
    /// Behind a pointer so that stash swaps move one pointer, not the
    /// solver's clause database.
    std::unique_ptr<sat::Solver> solver;
    BoolFactory factory;

    std::vector<int> structure_key;  ///< empty = no base built in this slot
    std::uint64_t last_used = 0;     ///< session use-stamp (LRU eviction)

    int n = 0;
    /// s_va[e][v]: one-hot VA selector (events with has_selector only).
    std::vector<std::vector<ExprId>> s_va;
    /// Symmetric n*n memo of va_eq circuits, built lazily: a pair's
    /// circuit is created by the first base constraint that touches it
    /// (va_eq_built marks construction — all before freeze_projection, so
    /// the no-new-circuits-after-freeze discipline holds), and pairs no
    /// constraint touches never pay for their OR-of-ANDs.
    std::vector<ExprId> va_eq_tab;
    std::vector<char> va_eq_built;

    std::vector<ChoiceMap> rf_choice;
    std::vector<ExprId> init_choice;
    std::vector<ChoiceMap> ptw_choice;
    /// pa[e][k]: one-hot resolved PA. A Wpte's row doubles as its map_pa
    /// selector: the candidate pins it by assumption, and every fresh
    /// constraint that indexed by the concrete map_pa becomes a per-slot
    /// link through this row.
    std::vector<std::vector<ExprId>> pa;
    std::vector<ChoiceMap> prov;
    std::vector<ExprId> prov_init;

    RelExpr co, co_pa;
    RelExpr rf, fr, po_loc, rfe, rf_ptw_rel, ptw_source, rf_pa, fr_pa, fr_va;
    RelExpr po_const, remap_const, ppo_const, fence_const;
    RelExpr po_mem_const, rmw_const, ghost_const;

    ExprMemo expr_memo;

    /// Activation guards whose blocking clauses are live in this base.
    /// Retirement is deferred to the base's rebuild: within the base each
    /// is assumed false instead (after the pins, so the pin-prefix trail
    /// survives a candidate advance), which disables its clauses just as
    /// the unit assertion would — without the backtrack-to-root that
    /// asserting mid-session costs. Per-base, because the guards are
    /// variables of this base's solver.
    std::vector<sat::Lit> spent_acts;

    /// Flat extraction templates, rebuilt per structure by
    /// freeze_projection(): guard expressions resolved to their Tseitin
    /// literals once, so the per-model extraction loop is array walks and
    /// O(1) model reads instead of hash-memo probes per guard per model.
    std::vector<TemplateEdge> ext_rf;
    std::vector<TemplateEdge> ext_ptw;
    std::vector<TemplateEdge> ext_co;
    std::vector<EventId> ext_write_like;
};

}  // namespace

/// The session: configuration, the LIVE BaseState (inherited slice — the
/// build methods below address its members unqualified), the stash of
/// swapped-out bases, and the per-candidate machinery. The overall shape
/// deliberately mirrors ProgramEncoding::Build (encoding.cpp) constraint
/// for constraint; comments below only call out where the symbolic
/// (selector-based) translation departs from the fresh encoding. The
/// equivalence argument per constraint: every clause here either (a) is
/// identical to the fresh clause, (b) is the fresh clause with a concrete
/// VA/PA test replaced by a va_eq/pa-slot guard that the candidate's
/// pinned selectors decide by unit propagation, or (c) constrains a
/// superset choice variable that those same guards force false, making the
/// clause vacuous — so under any candidate's pins, the satisfying
/// assignments projected onto the fresh encoding's choice variables are
/// exactly the fresh encoding's models.
struct IncrementalEncoding::Impl : BaseState {
    // ------------------------------------------------------------------
    // Session configuration (set by configure()).
    // ------------------------------------------------------------------
    const Model* model = nullptr;
    std::string axiom_name;
    const Axiom* axiom = nullptr;
    unsigned needs = 0;
    bool vm = false;
    int max_vas = 0;
    int max_pas = 0;
    bool timing = false;
    /// Robustness configuration, applied (like timing) to every solver
    /// the session holds or later creates: 0 = no conflict budget; an
    /// empty interrupt = never interrupted.
    std::int64_t conflict_budget = 0;
    std::function<bool()> interrupt;
    std::function<void(std::uint64_t)> solve_observer;

    SessionStats stats;
    /// Counters of solvers this session destroyed (stash shrink,
    /// configure): folded here so lifetime_stats() never loses an epoch.
    sat::SolverStats retired_stats;

    // ------------------------------------------------------------------
    // Base cache: swapped-out bases, LRU-evicted past the capacity
    // (which counts the live base too). capacity <= 1 = no caching.
    // ------------------------------------------------------------------
    std::vector<BaseState> stash;
    int cache_capacity = kDefaultBaseCacheCapacity;
    std::uint64_t use_stamp = 0;

    std::vector<int> key_buf;

    // Build-time clause scratch (valid only while build_base runs on the
    // live slice, so session-level sharing across bases is safe).
    std::vector<sat::Lit> clause_buf;
    bool clause_sat = false;
    std::vector<ExprId> options_buf;
    std::vector<EventId> events_buf;
    std::vector<EventId> peers_buf;

    // ------------------------------------------------------------------
    // Per-candidate buffers.
    // ------------------------------------------------------------------
    std::vector<sat::Lit> assumptions;
    std::vector<sat::Lit> block_buf;
    Execution current;
    /// Per-candidate projection literals (build_block_template): the
    /// validity filtering and memo lookups run once per candidate, and
    /// blocking_clause() per model only reads polarities.
    std::vector<sat::Lit> block_tmpl;

    // Direct clause emission, as in the fresh Build (see encoding.cpp for
    // the rationale).
    void
    cl_begin()
    {
        clause_buf.clear();
        clause_sat = false;
    }

    void
    cl_pos(ExprId e)
    {
        if (e == rel::kTrueExpr) {
            clause_sat = true;
        } else if (e != rel::kFalseExpr) {
            clause_buf.push_back(factory.compile(e, solver.get()));
        }
    }

    void
    cl_neg(ExprId e)
    {
        if (e == rel::kFalseExpr) {
            clause_sat = true;
        } else if (e != rel::kTrueExpr) {
            clause_buf.push_back(~factory.compile(e, solver.get()));
        }
    }

    void
    cl_end()
    {
        if (!clause_sat) {
            solver->add_clause(clause_buf.data(), clause_buf.size());
        }
    }

    void
    assert_exactly_one(const std::vector<ExprId>& options)
    {
        cl_begin();
        for (const ExprId o : options) {
            cl_pos(o);
        }
        cl_end();
        for (std::size_t i = 0; i < options.size(); ++i) {
            for (std::size_t j = i + 1; j < options.size(); ++j) {
                cl_begin();
                cl_neg(options[i]);
                cl_neg(options[j]);
                cl_end();
            }
        }
    }

    ExprId
    var()
    {
        return factory.mk_var(solver->new_var());
    }

    /// Lazy va_eq: the pair's OR-of-ANDs circuit is created by the first
    /// base constraint that asks for it (always during build_base, before
    /// freeze_projection). Pairs without two selector rows — or the
    /// diagonal — stay kFalseExpr, matching the eager table this replaces.
    ExprId
    va_eq(EventId a, EventId b)
    {
        const std::size_t idx = static_cast<std::size_t>(a) * n + b;
        if (!va_eq_built[idx]) {
            ExprId acc = rel::kFalseExpr;
            if (a != b && !s_va[a].empty() && !s_va[b].empty()) {
                acc = factory.mk_const(false);
                for (int v = 0; v < max_vas; ++v) {
                    acc = factory.mk_or(
                        acc, factory.mk_and(s_va[a][v], s_va[b][v]));
                }
            }
            const std::size_t mirror = static_cast<std::size_t>(b) * n + a;
            va_eq_tab[idx] = acc;
            va_eq_tab[mirror] = acc;
            va_eq_built[idx] = 1;
            va_eq_built[mirror] = 1;
        }
        return va_eq_tab[idx];
    }

    ExprId
    pa_equal(EventId a, EventId b)
    {
        ExprId acc = factory.mk_const(false);
        for (int k = 0; k < max_pas; ++k) {
            acc = factory.mk_or(acc, factory.mk_and(pa[a][k], pa[b][k]));
        }
        return acc;
    }

    void
    link_pa(ExprId guard, EventId a, EventId b)
    {
        for (int k = 0; k < max_pas; ++k) {
            cl_begin();
            cl_neg(guard);
            cl_neg(pa[a][k]);
            cl_pos(pa[b][k]);
            cl_end();
            cl_begin();
            cl_neg(guard);
            cl_neg(pa[b][k]);
            cl_pos(pa[a][k]);
            cl_end();
        }
    }

    void
    link_prov(ExprId guard, EventId a, EventId b)
    {
        cl_begin();
        cl_neg(guard);
        cl_neg(prov_init[a]);
        cl_pos(prov_init[b]);
        cl_end();
        cl_begin();
        cl_neg(guard);
        cl_neg(prov_init[b]);
        cl_pos(prov_init[a]);
        cl_end();
        for (const auto& [w, flag] : prov[a]) {
            const ExprId* it = prov[b].find(w);
            const ExprId other = it == nullptr ? rel::kFalseExpr : *it;
            cl_begin();
            cl_neg(guard);
            cl_neg(flag);
            cl_pos(other);
            cl_end();
        }
        for (const auto& [w, flag] : prov[b]) {
            const ExprId* it = prov[a].find(w);
            const ExprId other = it == nullptr ? rel::kFalseExpr : *it;
            cl_begin();
            cl_neg(guard);
            cl_neg(flag);
            cl_pos(other);
            cl_end();
        }
    }

    /// Symbolic same-coherence-class: where the fresh encoding folds a
    /// concrete VA comparison to a constant, the selector circuit decides
    /// it per candidate.
    ExprId
    same_class(const Program& p, EventId a, EventId b)
    {
        const Event& ea = p.event(a);
        const Event& eb = p.event(b);
        if (elt::is_data_access(ea.kind) && elt::is_data_access(eb.kind)) {
            return vm ? pa_equal(a, b) : va_eq(a, b);
        }
        if (elt::is_pte_access(ea.kind) && elt::is_pte_access(eb.kind)) {
            return va_eq(a, b);
        }
        return rel::kFalseExpr;
    }

    template <typename Row>
    void
    reset_rows(std::vector<Row>& rows)
    {
        rows.resize(n);
        for (Row& row : rows) {
            row.clear();
        }
    }

    // ------------------------------------------------------------------
    // Structure key: everything about the program except VA assignment
    // and Wpte target PAs (those are pinned per candidate).
    // ------------------------------------------------------------------
    void
    compute_key(const Program& p, std::vector<int>* key) const
    {
        key->clear();
        key->push_back(p.num_events());
        key->push_back(p.num_threads());
        for (const Event& e : p.events()) {
            key->push_back(static_cast<int>(e.kind));
            key->push_back(e.thread);
            key->push_back(e.parent);
            key->push_back(e.remap_src);
        }
        key->push_back(static_cast<int>(p.rmw_pairs().size()));
        for (const auto& [r, w] : p.rmw_pairs()) {
            key->push_back(r);
            key->push_back(w);
        }
    }

    // ------------------------------------------------------------------
    // Base build (once per structure).
    // ------------------------------------------------------------------
    /// Flushes deferred guard retirements (observability: this is where
    /// the retirement/retention counters accumulate) — called when the
    /// guards' clauses are about to die anyway at a solver reset.
    void
    retire_spent_acts()
    {
        for (const sat::Lit act : spent_acts) {
            solver->retire_activation(act);
        }
        spent_acts.clear();
    }

    void
    build_base(const Program& p)
    {
        ++stats.bases_built;
        n = p.num_events();
        retire_spent_acts();
        solver->reset();
        factory.reset();
        expr_memo.clear();
        build_selectors(p);
        build_choices(p);
        build_address_resolution(p);
        build_coherence(p);
        build_derived(p, needs);
        if (axiom != nullptr) {
            factory.assert_true(factory.mk_not(axiom_circuit(p, *axiom)),
                                solver.get());
        }
        freeze_projection(p);
    }

    std::unique_ptr<sat::Solver>
    make_session_solver() const
    {
        auto made = std::make_unique<sat::Solver>();
        made->set_timing(timing);
        made->set_conflict_budget(conflict_budget);
        made->set_interrupt(interrupt);
        made->set_solve_observer(solve_observer);
        return made;
    }

    /// Permanently drops a base slot, folding its solver's lifetime
    /// counters into retired_stats first (after flushing the slot's
    /// deferred retirements, so the retention counters are complete).
    void
    fold_and_drop(BaseState* slot)
    {
        if (slot->solver != nullptr) {
            for (const sat::Lit act : slot->spent_acts) {
                slot->solver->retire_activation(act);
            }
            retired_stats.merge(slot->solver->lifetime_stats());
        }
        *slot = BaseState();
    }

    /// Evicts least-recently-used stashed bases until the stash fits the
    /// capacity (minus one for the live base).
    void
    shrink_stash()
    {
        const int keep = std::max(cache_capacity - 1, 0);
        while (static_cast<int>(stash.size()) > keep) {
            std::size_t lru = 0;
            for (std::size_t i = 1; i < stash.size(); ++i) {
                if (stash[i].last_used < stash[lru].last_used) {
                    lru = i;
                }
            }
            fold_and_drop(&stash[lru]);
            stash.erase(stash.begin() + static_cast<std::ptrdiff_t>(lru));
        }
    }

    /// Makes the base for key_buf's structure live: a cache hit swaps the
    /// frozen base back in untouched (its solver, learned clauses and
    /// projection templates resume where the structure was left); a miss
    /// stashes the live base and builds into a fresh or LRU-recycled slot.
    void
    switch_structure(const Program& p)
    {
        for (BaseState& slot : stash) {
            if (slot.structure_key == key_buf) {
                std::swap(static_cast<BaseState&>(*this), slot);
                ++stats.bases_reused;
                return;
            }
        }
        if (cache_capacity > 1 && !structure_key.empty()) {
            if (static_cast<int>(stash.size()) + 1 < cache_capacity) {
                // Stash the live base in a new slot; the live slice is now
                // empty and gets a fresh solver below.
                stash.emplace_back();
                std::swap(static_cast<BaseState&>(*this), stash.back());
            } else {
                // Stash the live base into the LRU slot, recycling that
                // slot's solver (build_base resets it) for the build.
                std::size_t lru = 0;
                for (std::size_t i = 1; i < stash.size(); ++i) {
                    if (stash[i].last_used < stash[lru].last_used) {
                        lru = i;
                    }
                }
                std::swap(static_cast<BaseState&>(*this), stash[lru]);
            }
        }
        if (solver == nullptr) {
            solver = make_session_solver();
        }
        build_base(p);
        structure_key = key_buf;
    }

    /// Pre-compiles every expression extract_into() and blocking_clause()
    /// will touch, while the trail is still at the root. Two payoffs: the
    /// per-model hot paths become pure memo hits plus O(1) model lookups
    /// (no clause can be added mid-enumeration, which would backtrack the
    /// kept kSat trail), and extract_into() can read the Tseitin literal's
    /// model value instead of re-walking the circuit DAG per guard — the
    /// compiler emits the full biconditional, so the literal's value in
    /// any model equals the circuit's.
    void
    freeze_projection(const Program& p)
    {
        sat::Solver& s = *solver;
        ext_rf.clear();
        ext_ptw.clear();
        ext_co.clear();
        ext_write_like.clear();
        for (EventId r = 0; r < n; ++r) {
            for (const auto& [w, guard] : rf_choice[r]) {
                ext_rf.push_back({r, w, factory.compile(guard, &s)});
            }
            if (elt::is_read_like(p.event(r).kind)) {
                (void)factory.compile(init_choice[r], &s);
            }
            for (const auto& [walk, guard] : ptw_choice[r]) {
                ext_ptw.push_back({r, walk, factory.compile(guard, &s)});
            }
        }
        for (EventId a = 0; a < n; ++a) {
            if (elt::is_write_like(p.event(a).kind)) {
                ext_write_like.push_back(a);
            }
            for (EventId c = 0; c < n; ++c) {
                if (a == c) {
                    continue;
                }
                if (co.at(a, c) != rel::kFalseExpr &&
                    elt::is_write_like(p.event(a).kind) &&
                    elt::is_write_like(p.event(c).kind)) {
                    ext_co.push_back({a, c, factory.compile(co.at(a, c), &s)});
                } else if (co.at(a, c) != rel::kFalseExpr) {
                    (void)factory.compile(co.at(a, c), &s);
                }
                if (co_pa.at(a, c) != rel::kFalseExpr) {
                    (void)factory.compile(co_pa.at(a, c), &s);
                }
            }
        }
    }

    void
    build_selectors(const Program& p)
    {
        reset_rows(s_va);
        for (EventId e = 0; e < n; ++e) {
            if (!has_selector(p.event(e).kind)) {
                continue;
            }
            s_va[e].reserve(max_vas);
            for (int v = 0; v < max_vas; ++v) {
                s_va[e].push_back(var());
            }
            // At-most-one per row; the candidate's pin supplies the
            // at-least-one half. Without AMO a free row could satisfy two
            // slots and corrupt every va_eq circuit built from it.
            for (int v = 0; v < max_vas; ++v) {
                for (int u = v + 1; u < max_vas; ++u) {
                    cl_begin();
                    cl_neg(s_va[e][v]);
                    cl_neg(s_va[e][u]);
                    cl_end();
                }
            }
        }
        // va_eq circuits are NOT built here: va_eq() creates each pair's
        // circuit on first touch, and untouched pairs never build one.
        va_eq_tab.assign(static_cast<std::size_t>(n) * n, rel::kFalseExpr);
        va_eq_built.assign(static_cast<std::size_t>(n) * n, 0);
    }

    void
    build_choices(const Program& p)
    {
        reset_rows(rf_choice);
        init_choice.assign(n, rel::kFalseExpr);
        reset_rows(ptw_choice);
        reset_rows(pa);
        reset_rows(prov);
        prov_init.assign(n, rel::kFalseExpr);

        for (EventId r = 0; r < n; ++r) {
            const Event& e = p.event(r);
            if (!elt::is_read_like(e.kind)) {
                continue;
            }
            std::vector<ExprId>& options = options_buf;
            options.clear();
            init_choice[r] = var();
            options.push_back(init_choice[r]);
            for (EventId w = 0; w < n; ++w) {
                if (w == r) {
                    continue;
                }
                const Event& we = p.event(w);
                // Superset of the fresh candidate sets: the concrete
                // same-VA tests become validity clauses below.
                const bool data_pair = elt::is_data_access(e.kind) &&
                                       we.kind == EventKind::kWrite;
                const bool pte_pair = elt::is_pte_access(e.kind) &&
                                      elt::is_pte_access(we.kind) &&
                                      elt::is_write_like(we.kind);
                if (data_pair || pte_pair) {
                    const ExprId choice = var();
                    rf_choice[r].insert(w, choice);
                    options.push_back(choice);
                    // VM-mode data rf carries no VA condition in the fresh
                    // encoding either (the dynamic same-PA rule gates it).
                    if (pte_pair || (data_pair && !vm)) {
                        cl_begin();
                        cl_neg(choice);
                        cl_pos(va_eq(w, r));
                        cl_end();
                    }
                }
            }
            assert_exactly_one(options);
        }

        if (!vm) {
            return;
        }
        for (EventId e = 0; e < n; ++e) {
            if (!elt::is_data_access(p.event(e).kind)) {
                continue;
            }
            std::vector<ExprId>& options = options_buf;
            options.clear();
            for (EventId w = 0; w < n; ++w) {
                const Event& we = p.event(w);
                if (we.kind != EventKind::kRptw ||
                    we.thread != p.event(e).thread) {
                    continue;
                }
                const EventId walker = we.parent;
                if (walker != e && !p.precedes(walker, e)) {
                    continue;
                }
                // INVLPG-all evicts every entry regardless of VA, so that
                // half of the fresh "blocked" test stays structural; the
                // per-VA INVLPG half becomes a validity clause.
                bool blocked = false;
                for (EventId i = 0; i < n; ++i) {
                    if (p.event(i).kind == EventKind::kInvlpgAll &&
                        p.event(i).thread == we.thread &&
                        p.precedes(walker, i) && p.precedes(i, e)) {
                        blocked = true;
                        break;
                    }
                }
                if (blocked) {
                    continue;
                }
                const ExprId choice = var();
                ptw_choice[e].insert(w, choice);
                options.push_back(choice);
                cl_begin();
                cl_neg(choice);
                cl_pos(va_eq(w, e));
                cl_end();
                for (EventId i = 0; i < n; ++i) {
                    if (p.event(i).kind == EventKind::kInvlpg &&
                        p.event(i).thread == we.thread &&
                        p.precedes(walker, i) && p.precedes(i, e)) {
                        cl_begin();
                        cl_neg(choice);
                        cl_neg(va_eq(i, w));
                        cl_end();
                    }
                }
            }
            assert_exactly_one(options);
            const EventId own = p.rptw_of(e);
            if (own != kNone) {
                // Own walks are never structurally blocked (the walker is
                // e itself, so nothing fits between), hence always in the
                // superset.
                const ExprId* choice = ptw_choice[e].find(own);
                TF_ASSERT(choice != nullptr);
                factory.assert_true(*choice, solver.get());
            }
        }
    }

    void
    build_address_resolution(const Program& p)
    {
        if (!vm) {
            return;
        }
        for (EventId e = 0; e < n; ++e) {
            const Event& ev = p.event(e);
            if (!elt::is_memory(ev.kind)) {
                continue;
            }
            if (ev.kind == EventKind::kWpte) {
                // The map_pa selector row (see the pa member comment):
                // at-most-one in the base, pinned one-hot per candidate.
                pa[e].reserve(max_pas);
                for (int k = 0; k < max_pas; ++k) {
                    pa[e].push_back(var());
                }
                for (int k = 0; k < max_pas; ++k) {
                    for (int j = k + 1; j < max_pas; ++j) {
                        cl_begin();
                        cl_neg(pa[e][k]);
                        cl_neg(pa[e][j]);
                        cl_end();
                    }
                }
                continue;
            }
            pa[e].reserve(max_pas);
            for (int k = 0; k < max_pas; ++k) {
                pa[e].push_back(var());
            }
            assert_exactly_one(pa[e]);
            prov_init[e] = var();
            std::vector<ExprId>& options = options_buf;
            options.clear();
            options.push_back(prov_init[e]);
            for (EventId w = 0; w < n; ++w) {
                if (p.event(w).kind == EventKind::kWpte) {
                    const ExprId flag = var();
                    prov[e].insert(w, flag);
                    options.push_back(flag);
                    cl_begin();
                    cl_neg(flag);
                    cl_pos(va_eq(w, e));
                    cl_end();
                }
            }
            assert_exactly_one(options);
        }

        for (EventId e = 0; e < n; ++e) {
            const Event& ev = p.event(e);
            switch (ev.kind) {
            case EventKind::kRead:
            case EventKind::kWrite:
                for (const auto& [walk, guard] : ptw_choice[e]) {
                    link_pa(guard, e, walk);
                    link_prov(guard, e, walk);
                }
                break;
            case EventKind::kRptw:
            case EventKind::kRdb: {
                // Initial mapping VA v -> PA v, per selector slot.
                for (int v = 0; v < max_vas; ++v) {
                    cl_begin();
                    cl_neg(init_choice[e]);
                    cl_neg(s_va[e][v]);
                    cl_pos(pa[e][v]);
                    cl_end();
                }
                cl_begin();
                cl_neg(init_choice[e]);
                cl_pos(prov_init[e]);
                cl_end();
                for (const auto& [w, guard] : rf_choice[e]) {
                    if (p.event(w).kind == EventKind::kWpte) {
                        for (int k = 0; k < max_pas; ++k) {
                            cl_begin();
                            cl_neg(guard);
                            cl_neg(pa[w][k]);
                            cl_pos(pa[e][k]);
                            cl_end();
                        }
                        cl_begin();
                        cl_neg(guard);
                        cl_pos(prov[e].at(w));
                        cl_end();
                    } else {
                        link_pa(guard, e, w);
                        link_prov(guard, e, w);
                    }
                }
                break;
            }
            default:
                break;
            }
        }

        for (EventId r = 0; r < n; ++r) {
            if (!elt::is_data_access(p.event(r).kind)) {
                continue;
            }
            for (const auto& [w, guard] : rf_choice[r]) {
                for (int k = 0; k < max_pas; ++k) {
                    cl_begin();
                    cl_neg(guard);
                    cl_neg(pa[r][k]);
                    cl_pos(pa[w][k]);
                    cl_end();
                }
            }
        }
    }

    void
    build_coherence(const Program& p)
    {
        co.reset_empty(&factory, n);
        co_pa.reset_empty(&factory, n);
        std::vector<EventId>& writes = events_buf;
        writes.clear();
        for (EventId w = 0; w < n; ++w) {
            if (elt::is_write_like(p.event(w).kind)) {
                writes.push_back(w);
            }
        }
        for (const EventId a : writes) {
            for (const EventId b : writes) {
                if (a != b) {
                    co.set(a, b, var());
                }
            }
        }
        for (const EventId a : writes) {
            for (const EventId b : writes) {
                if (a == b) {
                    continue;
                }
                const bool dynamic_class =
                    vm && elt::is_data_access(p.event(a).kind) &&
                    elt::is_data_access(p.event(b).kind);
                if (dynamic_class) {
                    for (int k = 0; k < max_pas; ++k) {
                        cl_begin();
                        cl_neg(co.at(a, b));
                        cl_neg(pa[a][k]);
                        cl_pos(pa[b][k]);
                        cl_end();
                    }
                } else {
                    cl_begin();
                    cl_neg(co.at(a, b));
                    cl_pos(same_class(p, a, b));
                    cl_end();
                }
                if (a < b) {
                    cl_begin();
                    cl_neg(co.at(a, b));
                    cl_neg(co.at(b, a));
                    cl_end();
                    if (dynamic_class) {
                        for (int k = 0; k < max_pas; ++k) {
                            cl_begin();
                            cl_neg(pa[a][k]);
                            cl_neg(pa[b][k]);
                            cl_pos(co.at(a, b));
                            cl_pos(co.at(b, a));
                            cl_end();
                        }
                    } else {
                        cl_begin();
                        cl_neg(same_class(p, a, b));
                        cl_pos(co.at(a, b));
                        cl_pos(co.at(b, a));
                        cl_end();
                    }
                }
                for (const EventId c : writes) {
                    if (c != a && c != b) {
                        cl_begin();
                        cl_neg(co.at(a, b));
                        cl_neg(co.at(b, c));
                        cl_pos(co.at(a, c));
                        cl_end();
                    }
                }
            }
        }
        if (!vm) {
            return;
        }
        for (EventId d = 0; d < n; ++d) {
            if (p.event(d).kind != EventKind::kWdb) {
                continue;
            }
            // Peer superset: every PTE write, any VA — different-VA peers
            // have co(w, d) forced false (pte-pte coherence requires
            // va_eq), which makes each clause below collapse to its fresh
            // counterpart.
            std::vector<EventId>& peers = peers_buf;
            peers.clear();
            for (EventId w = 0; w < n; ++w) {
                if (w != d && elt::is_pte_access(p.event(w).kind) &&
                    elt::is_write_like(p.event(w).kind)) {
                    peers.push_back(w);
                }
            }
            for (int v = 0; v < max_vas; ++v) {
                cl_begin();
                for (const EventId w : peers) {
                    cl_pos(co.at(w, d));
                }
                cl_neg(s_va[d][v]);
                cl_pos(pa[d][v]);
                cl_end();
            }
            cl_begin();
            for (const EventId w : peers) {
                cl_pos(co.at(w, d));
            }
            cl_pos(prov_init[d]);
            cl_end();
            for (const EventId w : peers) {
                ExprId immediate = co.at(w, d);
                for (const EventId between : peers) {
                    if (between != w) {
                        immediate = factory.mk_and(
                            immediate,
                            factory.mk_not(factory.mk_and(
                                co.at(w, between), co.at(between, d))));
                    }
                }
                if (p.event(w).kind == EventKind::kWpte) {
                    for (int k = 0; k < max_pas; ++k) {
                        cl_begin();
                        cl_neg(immediate);
                        cl_neg(pa[w][k]);
                        cl_pos(pa[d][k]);
                        cl_end();
                    }
                    cl_begin();
                    cl_neg(immediate);
                    cl_pos(prov[d].at(w));
                    cl_end();
                } else {
                    link_pa(immediate, d, w);
                    link_prov(immediate, d, w);
                }
            }
        }
        // co_pa over ALL Wpte pairs (the fresh encoding only creates
        // same-target-PA pairs): the per-slot class-forcing clause drives
        // cross-class pairs false under any candidate's pins, and the
        // totality clause only fires within a pinned class.
        std::vector<EventId>& wptes = events_buf;
        wptes.clear();
        for (EventId w = 0; w < n; ++w) {
            if (p.event(w).kind == EventKind::kWpte) {
                wptes.push_back(w);
            }
        }
        for (const EventId a : wptes) {
            for (const EventId b : wptes) {
                if (a != b) {
                    co_pa.set(a, b, var());
                }
            }
        }
        for (const EventId a : wptes) {
            for (const EventId b : wptes) {
                if (a == b) {
                    continue;
                }
                for (int k = 0; k < max_pas; ++k) {
                    cl_begin();
                    cl_neg(co_pa.at(a, b));
                    cl_neg(pa[a][k]);
                    cl_pos(pa[b][k]);
                    cl_end();
                }
                if (a < b) {
                    cl_begin();
                    cl_neg(co_pa.at(a, b));
                    cl_neg(co_pa.at(b, a));
                    cl_end();
                    for (int k = 0; k < max_pas; ++k) {
                        cl_begin();
                        cl_neg(pa[a][k]);
                        cl_neg(pa[b][k]);
                        cl_pos(co_pa.at(a, b));
                        cl_pos(co_pa.at(b, a));
                        cl_end();
                    }
                }
                for (const EventId c : wptes) {
                    if (c != a && c != b) {
                        cl_begin();
                        cl_neg(co_pa.at(a, b));
                        cl_neg(co_pa.at(b, c));
                        cl_pos(co_pa.at(a, c));
                        cl_end();
                    }
                }
                // co / co_pa agreement where both orders apply, i.e. same
                // VA (co compares the pair) and same target PA (co_pa
                // classes the pair).
                const ExprId both =
                    factory.mk_and(va_eq(a, b), pa_equal(a, b));
                cl_begin();
                cl_neg(both);
                cl_neg(co.at(a, b));
                cl_pos(co_pa.at(a, b));
                cl_end();
                cl_begin();
                cl_neg(both);
                cl_pos(co.at(a, b));
                cl_neg(co_pa.at(a, b));
                cl_end();
            }
        }
    }

    void
    build_derived(const Program& p, unsigned need_bits)
    {
        if (need_bits & kNeedRf) {
            rf.reset_empty(&factory, n);
            for (EventId r = 0; r < n; ++r) {
                for (const auto& [w, guard] : rf_choice[r]) {
                    rf.set(w, r, factory.mk_or(rf.at(w, r), guard));
                }
            }
        }
        if (need_bits & kNeedRfe) {
            rfe.reset_empty(&factory, n);
            for (EventId r = 0; r < n; ++r) {
                for (const auto& [w, guard] : rf_choice[r]) {
                    if (p.event(w).thread != p.event(r).thread) {
                        rfe.set(w, r, factory.mk_or(rfe.at(w, r), guard));
                    }
                }
            }
        }
        if (need_bits & kNeedFr) {
            fr.reset_empty(&factory, n);
            for (EventId r = 0; r < n; ++r) {
                if (!elt::is_read_like(p.event(r).kind)) {
                    continue;
                }
                for (EventId w2 = 0; w2 < n; ++w2) {
                    if (!elt::is_write_like(p.event(w2).kind)) {
                        continue;
                    }
                    ExprId acc = factory.mk_and(init_choice[r],
                                                same_class(p, r, w2));
                    for (const auto& [w, guard] : rf_choice[r]) {
                        if (w != w2) {
                            acc = factory.mk_or(
                                acc, factory.mk_and(guard, co.at(w, w2)));
                        }
                    }
                    fr.set(r, w2, acc);
                }
            }
        }
        if (need_bits & kNeedPoLoc) {
            po_loc.reset_empty(&factory, n);
            for (EventId a = 0; a < n; ++a) {
                for (EventId b = 0; b < n; ++b) {
                    if (a != b && elt::is_memory(p.event(a).kind) &&
                        elt::is_memory(p.event(b).kind) && p.precedes(a, b)) {
                        po_loc.set(a, b, same_class(p, a, b));
                    }
                }
            }
        }
        if (need_bits & kNeedPoConst) {
            po_const.reset_empty(&factory, n);
            for (int t = 0; t < p.num_threads(); ++t) {
                const auto& seq = p.thread(t);
                for (std::size_t i = 0; i < seq.size(); ++i) {
                    for (std::size_t j = i + 1; j < seq.size(); ++j) {
                        po_const.set(seq[i], seq[j], rel::kTrueExpr);
                    }
                }
            }
        }
        if (need_bits & kNeedPoMemConst) {
            po_mem_const.reset_empty(&factory, n);
            for (EventId a = 0; a < n; ++a) {
                for (EventId b = 0; b < n; ++b) {
                    if (a != b && elt::is_memory(p.event(a).kind) &&
                        elt::is_memory(p.event(b).kind) && p.precedes(a, b)) {
                        po_mem_const.set(a, b, rel::kTrueExpr);
                    }
                }
            }
        }
        if (need_bits & kNeedRemapConst) {
            remap_const.reset_empty(&factory, n);
            for (EventId i = 0; i < n; ++i) {
                const Event& e = p.event(i);
                if (e.kind == EventKind::kInvlpg && e.remap_src != kNone) {
                    remap_const.set(e.remap_src, i, rel::kTrueExpr);
                }
            }
        }
        if (need_bits & kNeedRmwConst) {
            rmw_const.reset_empty(&factory, n);
            for (const auto& [r, w] : p.rmw_pairs()) {
                rmw_const.set(r, w, rel::kTrueExpr);
            }
        }
        if (need_bits & kNeedGhostConst) {
            ghost_const.reset_empty(&factory, n);
            for (EventId i = 0; i < n; ++i) {
                if (elt::is_ghost(p.event(i).kind)) {
                    ghost_const.set(p.event(i).parent, i, rel::kTrueExpr);
                }
            }
        }
        if (need_bits & kNeedPpoFenceConst) {
            ppo_const.reset_empty(&factory, n);
            fence_const.reset_empty(&factory, n);
            for (EventId a = 0; a < n; ++a) {
                for (EventId b = 0; b < n; ++b) {
                    if (a == b || !elt::is_memory(p.event(a).kind) ||
                        !elt::is_memory(p.event(b).kind) ||
                        !p.precedes(a, b)) {
                        continue;
                    }
                    if (!(elt::is_write_like(p.event(a).kind) &&
                          elt::is_read_like(p.event(b).kind))) {
                        ppo_const.set(a, b, rel::kTrueExpr);
                    }
                    for (EventId f = 0; f < n; ++f) {
                        if (p.event(f).kind == EventKind::kMfence &&
                            p.precedes(a, f) && p.precedes(f, b)) {
                            fence_const.set(a, b, rel::kTrueExpr);
                            break;
                        }
                    }
                }
            }
        }
        if (!vm) {
            if (need_bits & (kNeedRfPtw | kNeedPtwSource)) {
                rf_ptw_rel.reset_empty(&factory, n);
                ptw_source.reset_empty(&factory, n);
            }
            if (need_bits & kNeedRfPa) {
                rf_pa.reset_empty(&factory, n);
            }
            if (need_bits & kNeedFrVa) {
                fr_va.reset_empty(&factory, n);
            }
            if (need_bits & kNeedFrPa) {
                fr_pa.reset_empty(&factory, n);
            }
            return;
        }

        if (need_bits & (kNeedRfPtw | kNeedPtwSource)) {
            rf_ptw_rel.reset_empty(&factory, n);
            ptw_source.reset_empty(&factory, n);
            for (EventId e = 0; e < n; ++e) {
                for (const auto& [walk, guard] : ptw_choice[e]) {
                    rf_ptw_rel.set(
                        walk, e,
                        factory.mk_or(rf_ptw_rel.at(walk, e), guard));
                    const EventId walker = p.event(walk).parent;
                    if (walker != e) {
                        ptw_source.set(
                            walker, e,
                            factory.mk_or(ptw_source.at(walker, e), guard));
                    }
                }
            }
        }
        if (need_bits & kNeedRfPa) {
            rf_pa.reset_empty(&factory, n);
            for (EventId e = 0; e < n; ++e) {
                if (!elt::is_data_access(p.event(e).kind)) {
                    continue;
                }
                for (const auto& [wpte, flag] : prov[e]) {
                    rf_pa.set(wpte, e, flag);
                }
            }
        }
        if (need_bits & kNeedFrVa) {
            fr_va.reset_empty(&factory, n);
            for (EventId e = 0; e < n; ++e) {
                if (!elt::is_data_access(p.event(e).kind)) {
                    continue;
                }
                for (EventId w2 = 0; w2 < n; ++w2) {
                    if (p.event(w2).kind != EventKind::kWpte) {
                        continue;
                    }
                    // The fresh encoding only creates entries for Wptes
                    // remapping e's VA; here the va_eq conjunct zeroes the
                    // entry for every other candidate.
                    ExprId acc = prov_init[e];
                    for (const auto& [wpte, flag] : prov[e]) {
                        if (wpte != w2) {
                            acc = factory.mk_or(
                                acc, factory.mk_and(flag, co.at(wpte, w2)));
                        }
                    }
                    fr_va.set(e, w2, factory.mk_and(va_eq(e, w2), acc));
                }
            }
        }
        if (need_bits & kNeedFrPa) {
            fr_pa.reset_empty(&factory, n);
            for (EventId e = 0; e < n; ++e) {
                if (!elt::is_data_access(p.event(e).kind)) {
                    continue;
                }
                for (EventId w2 = 0; w2 < n; ++w2) {
                    if (p.event(w2).kind != EventKind::kWpte) {
                        continue;
                    }
                    ExprId acc = factory.mk_and(prov_init[e],
                                                pa_equal(e, w2));
                    for (const auto& [wpte, flag] : prov[e]) {
                        if (wpte != w2) {
                            // No same-target-PA filter needed: co_pa is
                            // forced false across classes.
                            acc = factory.mk_or(
                                acc,
                                factory.mk_and(flag, co_pa.at(wpte, w2)));
                        }
                    }
                    fr_pa.set(e, w2, acc);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Axiom circuits: lower_expr (encoding_detail.h) over this base's
    // circuits, as the fresh Build does over its own.
    // ------------------------------------------------------------------
    const RelExpr&
    base_circuit(spec::BaseRel base)
    {
        switch (base) {
        case spec::BaseRel::kPo: return po_const;
        case spec::BaseRel::kPoLoc: return po_loc;
        case spec::BaseRel::kPoMem: return po_mem_const;
        case spec::BaseRel::kRf: return rf;
        case spec::BaseRel::kRfe: return rfe;
        case spec::BaseRel::kCo: return co;
        case spec::BaseRel::kFr: return fr;
        case spec::BaseRel::kPpo: return ppo_const;
        case spec::BaseRel::kFence: return fence_const;
        case spec::BaseRel::kRmw: return rmw_const;
        case spec::BaseRel::kGhost: return ghost_const;
        case spec::BaseRel::kRfPtw: return rf_ptw_rel;
        case spec::BaseRel::kRfPa: return rf_pa;
        case spec::BaseRel::kCoPa: return co_pa;
        case spec::BaseRel::kFrPa: return fr_pa;
        case spec::BaseRel::kFrVa: return fr_va;
        case spec::BaseRel::kRemap: return remap_const;
        case spec::BaseRel::kPtwSource: return ptw_source;
        }
        TF_PANIC("unknown base relation");
    }

    ExprId
    axiom_circuit(const Program& p, const Axiom& ax)
    {
        return form_circuit(
            ax.def->form,
            lower_expr(
                *ax.def->expr, p, &factory,
                [this](spec::BaseRel base) -> const RelExpr& {
                    return base_circuit(base);
                },
                &expr_memo),
            &factory);
    }

    // ------------------------------------------------------------------
    // Per-candidate machinery.
    // ------------------------------------------------------------------

    /// The fresh encoding's membership test for a superset rf pair.
    bool
    rf_valid(const Program& p, EventId r, EventId w) const
    {
        const Event& e = p.event(r);
        const Event& we = p.event(w);
        const bool data_pair = elt::is_data_access(e.kind) &&
                               we.kind == EventKind::kWrite &&
                               (vm || we.va == e.va);
        const bool pte_pair = elt::is_pte_access(e.kind) &&
                              elt::is_pte_access(we.kind) &&
                              elt::is_write_like(we.kind) && we.va == e.va;
        return data_pair || pte_pair;
    }

    /// The fresh encoding's membership test for a superset ptw pair
    /// (thread/walker-order/INVLPG-all screening already happened at
    /// superset construction).
    bool
    ptw_valid(const Program& p, EventId e, EventId walk) const
    {
        const Event& we = p.event(walk);
        if (we.va != p.event(e).va) {
            return false;
        }
        const EventId walker = we.parent;
        for (EventId i = 0; i < n; ++i) {
            const Event& inv = p.event(i);
            const bool evicts =
                (inv.kind == EventKind::kInvlpg && inv.va == we.va) ||
                inv.kind == EventKind::kInvlpgAll;
            if (evicts && inv.thread == we.thread && p.precedes(walker, i) &&
                p.precedes(i, e)) {
                return false;
            }
        }
        return true;
    }

    /// Pins the candidate: one positive selector assumption per VA slot
    /// and per Wpte target-PA slot, in event order. Everything else the
    /// fresh encoding would specialize on follows by unit propagation.
    void
    build_assumptions(const Program& p)
    {
        assumptions.clear();
        for (EventId e = 0; e < n; ++e) {
            const Event& ev = p.event(e);
            if (!has_selector(ev.kind)) {
                continue;
            }
            TF_ASSERT(ev.va >= 0 && ev.va < max_vas);
            assumptions.push_back(
                factory.compile(s_va[e][ev.va], solver.get()));
        }
        if (!vm) {
            return;
        }
        for (EventId e = 0; e < n; ++e) {
            const Event& ev = p.event(e);
            if (ev.kind != EventKind::kWpte) {
                continue;
            }
            TF_ASSERT(ev.map_pa >= 0 && ev.map_pa < max_pas);
            assumptions.push_back(
                factory.compile(pa[e][ev.map_pa], solver.get()));
        }
    }

    /// Resolves the candidate's *valid* projection variables — the same
    /// variable set the fresh encoding would block on, so the enumerated
    /// model count matches it exactly — to their literals, once per
    /// candidate (validity is pin-dependent, so this cannot live in
    /// freeze_projection).
    void
    build_block_template(const Program& p)
    {
        block_tmpl.clear();
        sat::Solver& s = *solver;
        auto block = [&](ExprId e) {
            block_tmpl.push_back(factory.compile(e, &s));
        };
        for (EventId r = 0; r < n; ++r) {
            for (const auto& [w, guard] : rf_choice[r]) {
                if (rf_valid(p, r, w)) {
                    block(guard);
                }
            }
            if (elt::is_read_like(p.event(r).kind)) {
                block(init_choice[r]);
            }
            for (const auto& [walk, guard] : ptw_choice[r]) {
                if (ptw_valid(p, r, walk)) {
                    block(guard);
                }
            }
        }
        for (EventId a = 0; a < n; ++a) {
            for (EventId c = 0; c < n; ++c) {
                if (a == c) {
                    continue;
                }
                if (co.at(a, c) != rel::kFalseExpr) {
                    block(co.at(a, c));
                }
                if (co_pa.at(a, c) != rel::kFalseExpr &&
                    p.event(a).map_pa == p.event(c).map_pa) {
                    block(co_pa.at(a, c));
                }
            }
        }
    }

    /// Projection clause for the current model: the template's literals,
    /// each inverted where the model satisfies it.
    void
    blocking_clause(std::vector<sat::Lit>* clause)
    {
        clause->clear();
        sat::Solver& s = *solver;
        for (const sat::Lit l : block_tmpl) {
            clause->push_back(s.model_literal_true(l) ? ~l : l);
        }
    }

    void
    extract_into(const Program& p, Execution* out)
    {
        out->rf_src.assign(n, kNone);
        out->co_pos.assign(n, kNone);
        out->ptw_src.assign(n, kNone);
        out->co_pa_pos.assign(n, kNone);
        sat::Solver& s = *solver;
        // The freeze_projection() templates resolve every guard to its
        // Tseitin literal (the compiler emits the full biconditional, so
        // the literal's model value is the circuit's) — the per-model loop
        // is flat array walks and O(1) model reads, no DAG re-walk and no
        // memo probe per guard.
        for (const TemplateEdge& e : ext_rf) {
            if (s.model_literal_true(e.lit)) {
                out->rf_src[e.a] = e.b;
            }
        }
        for (const TemplateEdge& e : ext_ptw) {
            if (s.model_literal_true(e.lit)) {
                out->ptw_src[e.a] = e.b;
            }
        }
        for (const EventId w : ext_write_like) {
            out->co_pos[w] = 0;
        }
        for (const TemplateEdge& e : ext_co) {
            if (s.model_literal_true(e.lit)) {
                ++out->co_pos[e.b];
            }
        }
        // co_pa pairs are map_pa-gated (pin-dependent) and Wpte events are
        // rare, so this stays a direct loop over memoized literals.
        auto lit_true = [&](ExprId ex) {
            if (ex == rel::kFalseExpr) {
                return false;
            }
            return s.model_literal_true(factory.compile(ex, &s));
        };
        for (EventId w = 0; w < n; ++w) {
            if (p.event(w).kind != EventKind::kWpte) {
                continue;
            }
            int predecessors = 0;
            for (EventId w2 = 0; w2 < n; ++w2) {
                if (w2 != w && p.event(w2).kind == EventKind::kWpte &&
                    p.event(w2).map_pa == p.event(w).map_pa &&
                    lit_true(co_pa.at(w2, w))) {
                    ++predecessors;
                }
            }
            out->co_pa_pos[w] = predecessors;
        }
    }
};

IncrementalEncoding::IncrementalEncoding() : impl_(std::make_unique<Impl>())
{
}

IncrementalEncoding::~IncrementalEncoding() = default;

IncrementalEncoding::IncrementalEncoding(IncrementalEncoding&&) noexcept =
    default;

IncrementalEncoding&
IncrementalEncoding::operator=(IncrementalEncoding&&) noexcept = default;

void
IncrementalEncoding::configure(const Model* model, std::string axiom_name,
                               int max_vas, int max_pas)
{
    TF_ASSERT(model != nullptr);
    Impl& im = *impl_;
    im.model = model;
    im.axiom_name = std::move(axiom_name);
    im.axiom = nullptr;
    if (!im.axiom_name.empty()) {
        im.axiom = model->axiom(im.axiom_name);
        TF_ASSERT(im.axiom != nullptr);
    }
    im.needs = im.axiom == nullptr ? 0u : needs_for(*im.axiom);
    im.vm = model->vm_aware();
    im.max_vas = std::max(max_vas, 1);
    im.max_pas = std::max(max_pas, 1);
    if (im.solver == nullptr) {
        im.solver = im.make_session_solver();
    } else {
        im.retire_spent_acts();  // the next enumerate rebuilds the base
    }
    im.structure_key.clear();  // drop any live base
    // Stale cached bases encode the previous model/axiom/bounds; drop them
    // (folding their counters) rather than risking a key collision.
    for (BaseState& slot : im.stash) {
        im.fold_and_drop(&slot);
    }
    im.stash.clear();
}

void
IncrementalEncoding::set_timing(bool enabled)
{
    Impl& im = *impl_;
    im.timing = enabled;
    if (im.solver != nullptr) {
        im.solver->set_timing(enabled);
    }
    for (BaseState& slot : im.stash) {
        if (slot.solver != nullptr) {
            slot.solver->set_timing(enabled);
        }
    }
}

void
IncrementalEncoding::set_conflict_budget(std::int64_t budget)
{
    Impl& im = *impl_;
    im.conflict_budget = budget;
    if (im.solver != nullptr) {
        im.solver->set_conflict_budget(budget);
    }
    for (BaseState& slot : im.stash) {
        if (slot.solver != nullptr) {
            slot.solver->set_conflict_budget(budget);
        }
    }
}

void
IncrementalEncoding::set_interrupt(std::function<bool()> poll)
{
    Impl& im = *impl_;
    im.interrupt = std::move(poll);
    if (im.solver != nullptr) {
        im.solver->set_interrupt(im.interrupt);
    }
    for (BaseState& slot : im.stash) {
        if (slot.solver != nullptr) {
            slot.solver->set_interrupt(im.interrupt);
        }
    }
}

void
IncrementalEncoding::set_solve_observer(
    std::function<void(std::uint64_t)> observer)
{
    Impl& im = *impl_;
    im.solve_observer = std::move(observer);
    if (im.solver != nullptr) {
        im.solver->set_solve_observer(im.solve_observer);
    }
    for (BaseState& slot : im.stash) {
        if (slot.solver != nullptr) {
            slot.solver->set_solve_observer(im.solve_observer);
        }
    }
}

sat::SolverStats
IncrementalEncoding::lifetime_stats() const
{
    const Impl& im = *impl_;
    sat::SolverStats out = im.retired_stats;
    if (im.solver != nullptr) {
        out.merge(im.solver->lifetime_stats());
    }
    for (const BaseState& slot : im.stash) {
        if (slot.solver != nullptr) {
            out.merge(slot.solver->lifetime_stats());
        }
    }
    out.bases_built += im.stats.bases_built;
    out.bases_reused += im.stats.bases_reused;
    return out;
}

void
IncrementalEncoding::set_base_cache_capacity(int capacity)
{
    impl_->cache_capacity = std::max(capacity, 0);
    impl_->shrink_stash();
}

const IncrementalEncoding::SessionStats&
IncrementalEncoding::session_stats() const
{
    return impl_->stats;
}

bool
IncrementalEncoding::enumerate(const elt::Program& program,
                               const ExecutionVisitor& visit)
{
    Impl& im = *impl_;
    TF_ASSERT(im.model != nullptr);  // configure() first
    ++im.stats.candidates;

    im.compute_key(program, &im.key_buf);
    if (im.key_buf != im.structure_key) {
        im.switch_structure(program);
    }
    im.last_used = ++im.use_stamp;
    im.build_assumptions(program);

    im.current.program = program;
    // Disable every previous candidate's blocking clauses by assuming its
    // guard false. Placed after the pins: two candidates of one structure
    // always differ in some pin, so the planted-trail prefix the solver
    // reuses between them is bounded by the pins anyway, and the guard
    // levels re-establish for free (a false guard propagates nothing —
    // no stored clause contains it positively).
    for (const sat::Lit spent : im.spent_acts) {
        im.assumptions.push_back(~spent);
    }
    // Per-candidate activation guard, assumed LAST so it sits on the
    // deepest assumption level: blocking clauses carry ~act, and the
    // assumption-establishment machinery keeps act pinned true across
    // every backjump of the continued search.
    const sat::Lit act(im.solver->new_var(), false);
    im.assumptions.push_back(act);
    bool act_used = false;
    bool completed = true;
    bool have_template = false;
    sat::SolveResult verdict = im.solver->solve(im.assumptions);
    while (verdict == sat::SolveResult::kSat) {
        im.extract_into(program, &im.current);
        if (!visit(im.current)) {
            completed = false;  // the visitor stopped the enumeration
            break;
        }
        if (!have_template) {
            im.build_block_template(program);
            have_template = true;
        }
        const obs::ScopedAllocSite alloc_site(
            obs::AllocSite::kSiteBlockingClause);
        im.blocking_clause(&im.block_buf);
        if (im.block_buf.empty()) {
            break;  // no projection variables: the single model is it
        }
        act_used = true;
        im.block_buf.push_back(~act);
        verdict = im.solver->block_and_resolve(
            im.block_buf.data(), im.block_buf.size(), im.assumptions);
    }
    if (act_used) {
        // Deferred retirement: the guard joins the assumed-false set for
        // the structure's remaining candidates and is permanently retired
        // at the next base rebuild. Asserting the unit clause here would
        // backtrack the solver to the root, throwing away the pin-prefix
        // trail the next candidate reuses. Guards that never made it into
        // a clause are simply abandoned (recycled wholesale at the next
        // base rebuild).
        im.spent_acts.push_back(act);
    }
    if (verdict == sat::SolveResult::kUnknown) {
        // The guard was parked above, so the session stays consistent
        // whether the caller retries (fresh session after a shard fault)
        // or unwinds (cancellation).
        if (im.solver->unknown_cause() ==
            sat::UnknownCause::kConflictBudget) {
            throw sat::BudgetExhausted();
        }
        completed = false;  // interrupted: partial, caller discards it
    }
    return completed;
}

}  // namespace transform::mtm
