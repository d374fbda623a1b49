#include "mtm/incremental.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "mtm/encoding_detail.h"
#include "obs/alloc.h"
#include "rel/bool_factory.h"
#include "rel/relation.h"
#include "util/logging.h"

namespace transform::mtm {

using elt::Event;
using elt::EventId;
using elt::EventKind;
using elt::Execution;
using elt::Program;
using rel::BoolFactory;
using rel::ExprId;

namespace {

/// Default base-cache capacity (live base included). The skeleton
/// enumerator's late stages (rmw marking, linking variants) ping-pong
/// between a handful of neighbouring structures, so a small cache captures
/// nearly all revisits; each retained base owns a solver, so the cap also
/// bounds the session's memory.
constexpr int kDefaultBaseCacheCapacity = 8;

/// The swappable per-structure slice of a session: one built base — its
/// solver, circuit factory, structure key, the builder state (selector
/// rows, choice variables, derived relations, frozen projection), and the
/// deferred activation guards of candidates already served from it. The
/// session's base cache stashes whole BaseStates and swaps one back in
/// when the enumerator revisits a known signature; every RelExpr/ExprId
/// inside indexes the co-swapped factory and expr_memo keys are stable
/// AST pointers owned by the Model, so a swapped-out base stays
/// internally consistent with no pointer fixups. (Every base is built
/// live, so its builder's factory and solver pointers are the live ones
/// whenever it is; its program pointer dangles after the build, and
/// nothing reads it then.)
struct BaseState {
    /// Behind a pointer so that stash swaps move one pointer, not the
    /// solver's clause database.
    std::unique_ptr<sat::Solver> solver;
    BoolFactory factory;

    std::vector<int> structure_key;  ///< empty = no base built in this slot
    std::uint64_t last_used = 0;     ///< session use-stamp (LRU eviction)

    /// The base encoding. Its placement rows are selector variables:
    /// space.va[e][v] for every has_va event, and a Wpte's pa row for its
    /// target PA. Each row is at-most-one in the base; the candidate's
    /// pins supply the at-least-one half.
    EncodingBuilder space;

    /// Activation guards whose blocking clauses are live in this base.
    /// Retirement is deferred to the base's rebuild: within the base each
    /// is assumed false instead (after the pins, so the pin-prefix trail
    /// survives a candidate advance), which disables its clauses just as
    /// the unit assertion would — without the backtrack-to-root that
    /// asserting mid-session costs. Per-base, because the guards are
    /// variables of this base's solver.
    std::vector<sat::Lit> spent_acts;
};

}  // namespace

/// The session: configuration, the LIVE BaseState (inherited slice), the
/// stash of swapped-out bases, and the per-candidate machinery. The base
/// is built by the same EncodingBuilder as the fresh encoding, over
/// selector rows instead of constant ones. The equivalence argument per
/// constraint: every clause of the base either (a) is identical to the
/// fresh clause, (b) is the fresh clause with a placement guard that the
/// candidate's pinned selectors decide by unit propagation where the
/// fresh rows fold it, or (c) constrains a superset choice variable that
/// those same guards force false, making the clause vacuous — so under
/// any candidate's pins, the satisfying assignments projected onto the
/// fresh encoding's choice variables are exactly the fresh encoding's
/// models.
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

    // ------------------------------------------------------------------
    // Per-candidate buffers.
    // ------------------------------------------------------------------
    std::vector<sat::Lit> assumptions;
    std::vector<sat::Lit> block_buf;
    Execution current;

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
        retire_spent_acts();
        space.begin(p, vm, max_vas, max_pas, &factory, solver.get());
        build_selectors(p);
        space.build(needs, [this](EventId w) {
            selector_row(&space.pa[w], max_pas);
        });
        if (axiom != nullptr) {
            factory.assert_true(factory.mk_not(space.axiom_circuit(*axiom)),
                                solver.get());
        }
        space.freeze_projection();
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

    /// Fills \p row with \p size fresh selector variables, at most one of
    /// them true. The candidate's pin supplies the at-least-one half;
    /// without the at-most-one half a free row could satisfy two slots and
    /// corrupt every guard built from it.
    void
    selector_row(std::vector<ExprId>* row, int size)
    {
        row->reserve(size);
        for (int k = 0; k < size; ++k) {
            row->push_back(space.var());
        }
        for (int k = 0; k < size; ++k) {
            for (int j = k + 1; j < size; ++j) {
                space.cl_begin();
                space.cl_neg((*row)[k]);
                space.cl_neg((*row)[j]);
                space.cl_end();
            }
        }
    }

    /// The VA selector rows, built before anything else of the base.
    void
    build_selectors(const Program& p)
    {
        for (EventId e = 0; e < space.n; ++e) {
            if (has_va(p.event(e).kind)) {
                selector_row(&space.va[e], max_vas);
            }
        }
    }

    // ------------------------------------------------------------------
    // Per-candidate machinery.
    // ------------------------------------------------------------------

    /// Pins the candidate: one positive selector assumption per VA slot
    /// and per Wpte target-PA slot, in event order. Everything else the
    /// fresh encoding would specialize on follows by unit propagation.
    void
    build_assumptions(const Program& p)
    {
        const int n = space.n;
        assumptions.clear();
        for (EventId e = 0; e < n; ++e) {
            const Event& ev = p.event(e);
            if (!has_va(ev.kind)) {
                continue;
            }
            TF_ASSERT(ev.va >= 0 && ev.va < max_vas);
            assumptions.push_back(
                factory.compile(space.va[e][ev.va], solver.get()));
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
                factory.compile(space.pa[e][ev.map_pa], solver.get()));
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
    // Extraction and blocking read the base through its builder's pointers.
    TF_ASSERT(im.space.factory == &im.factory &&
              im.space.solver == im.solver.get());
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
        im.space.extract_into(&im.current);
        if (!visit(im.current)) {
            completed = false;  // the visitor stopped the enumeration
            break;
        }
        const obs::ScopedAllocSite alloc_site(
            obs::AllocSite::kSiteBlockingClause);
        if (!have_template) {
            // The candidate's pins decide every guard, so its first model
            // tells which choices are witnesses of this program.
            im.space.build_block_template();
            have_template = true;
        }
        im.space.blocking_clause(&im.block_buf);
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
