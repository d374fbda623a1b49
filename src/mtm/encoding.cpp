#include "mtm/encoding.h"

#include <algorithm>
#include <utility>

#include "mtm/encoding_detail.h"
#include "obs/alloc.h"
#include "rel/bool_factory.h"
#include "rel/relation.h"
#include "sat/solver.h"
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
using rel::SetExpr;

// RelNeed and ChoiceMap live in encoding_detail.h, shared with the
// incremental assumption-based session (incremental.cpp).

/// The pooled per-query Build containers (PR-4 left these as per-program
/// allocations; see docs/performance.md for the reuse contract). One Pool
/// per EncodingScratch, reset — capacities kept — by every Build.
struct EncodingScratch::Pool {
    std::vector<ChoiceMap> rf_choice;
    std::vector<ExprId> init_choice;
    std::vector<ChoiceMap> ptw_choice;
    std::vector<std::vector<ExprId>> pa;
    std::vector<ChoiceMap> prov;
    std::vector<ExprId> prov_init;

    RelExpr co, co_pa;
    RelExpr rf, fr, po_loc, rfe, rf_ptw_rel, ptw_source, rf_pa, fr_pa, fr_va;
    RelExpr po_const, remap_const, ppo_const, fence_const;
    RelExpr po_mem_const, rmw_const, ghost_const;

    std::vector<sat::Lit> clause_buf;
    std::vector<ExprId> options_buf;
    std::vector<EventId> events_buf;   ///< writes / Wptes scans
    std::vector<EventId> peers_buf;    ///< same-location peers per Wdb

    /// Per-query memo of lowered `.mtm` let bodies: a body shared by
    /// several references (or axioms) compiles once per Build.
    ExprMemo expr_memo;
};

EncodingScratch::EncodingScratch() : pool(std::make_unique<Pool>()) {}
EncodingScratch::~EncodingScratch() = default;
EncodingScratch::EncodingScratch(EncodingScratch&&) noexcept = default;
EncodingScratch&
EncodingScratch::operator=(EncodingScratch&&) noexcept = default;

namespace {

/// ONE source of truth per `.mtm` base relation: the need bit its circuit
/// is gated on AND the pooled circuit it lowers to. Keeping the pair in a
/// single switch makes a mismatch — a circuit read without its need bit,
/// i.e. a stale pooled RelExpr from a previous program — structurally
/// impossible. co and co_pa are free choice relations, always built
/// (needs = 0).
struct BaseRelInfo {
    unsigned needs;
    rel::RelExpr EncodingScratch::Pool::* circuit;
};

BaseRelInfo
base_rel_info(spec::BaseRel base)
{
    using Pool = EncodingScratch::Pool;
    switch (base) {
    case spec::BaseRel::kPo: return {kNeedPoConst, &Pool::po_const};
    case spec::BaseRel::kPoLoc: return {kNeedPoLoc, &Pool::po_loc};
    case spec::BaseRel::kPoMem: return {kNeedPoMemConst, &Pool::po_mem_const};
    case spec::BaseRel::kRf: return {kNeedRf, &Pool::rf};
    case spec::BaseRel::kRfe: return {kNeedRfe, &Pool::rfe};
    case spec::BaseRel::kCo: return {0, &Pool::co};
    case spec::BaseRel::kFr: return {kNeedFr, &Pool::fr};
    case spec::BaseRel::kPpo: return {kNeedPpoFenceConst, &Pool::ppo_const};
    case spec::BaseRel::kFence:
        return {kNeedPpoFenceConst, &Pool::fence_const};
    case spec::BaseRel::kRmw: return {kNeedRmwConst, &Pool::rmw_const};
    case spec::BaseRel::kGhost: return {kNeedGhostConst, &Pool::ghost_const};
    case spec::BaseRel::kRfPtw: return {kNeedRfPtw, &Pool::rf_ptw_rel};
    case spec::BaseRel::kRfPa: return {kNeedRfPa, &Pool::rf_pa};
    case spec::BaseRel::kCoPa: return {0, &Pool::co_pa};
    case spec::BaseRel::kFrPa: return {kNeedFrPa, &Pool::fr_pa};
    case spec::BaseRel::kFrVa: return {kNeedFrVa, &Pool::fr_va};
    case spec::BaseRel::kRemap: return {kNeedRemapConst, &Pool::remap_const};
    case spec::BaseRel::kPtwSource:
        return {kNeedPtwSource, &Pool::ptw_source};
    }
    TF_PANIC("unknown base relation");
}

/// Union of the need bits under \p e. The AST is a DAG through shared
/// `let` bodies, so the walk carries a visited set — linear in the DAG,
/// not exponential in the let-chain depth.
unsigned
needs_for_expr(const spec::Expr& e, std::vector<const spec::Expr*>* visited)
{
    if (std::find(visited->begin(), visited->end(), &e) != visited->end()) {
        return 0;
    }
    visited->push_back(&e);
    unsigned needs = 0;
    if (e.op == spec::ExprOp::kBase) {
        needs |= base_rel_info(e.base).needs;
    }
    if (e.lhs != nullptr) {
        needs |= needs_for_expr(*e.lhs, visited);
    }
    if (e.rhs != nullptr) {
        needs |= needs_for_expr(*e.rhs, visited);
    }
    return needs;
}

}  // namespace

/// The relations axiom_circuit(axiom) touches, read off its expression
/// DAG.
unsigned
needs_for(const Axiom& axiom)
{
    std::vector<const spec::Expr*> visited;
    return needs_for_expr(*axiom.def->expr, &visited);
}

ExprId
form_circuit(spec::AxiomForm form, const RelExpr& r, BoolFactory* factory)
{
    switch (form) {
    case spec::AxiomForm::kAcyclic:
        return r.acyclic(factory);
    case spec::AxiomForm::kIrreflexive:
        return r.irreflexive(factory);
    case spec::AxiomForm::kEmpty:
        return r.is_empty(factory);
    }
    TF_PANIC("unknown axiom form");
}

/// Per-query encoding state: the witness choice variables and the
/// derived-relation circuits, built into a (reset) scratch's factory,
/// solver and container pool.
struct ProgramEncoding::Build {
    Build(const Program& program, bool vm, unsigned needs,
          EncodingScratch* scratch)
        : p(program), n(program.num_events()), vm_enabled(vm),
          factory(scratch->factory), solver(scratch->solver),
          pool(*scratch->pool),
          rf_choice(scratch->pool->rf_choice),
          init_choice(scratch->pool->init_choice),
          ptw_choice(scratch->pool->ptw_choice), pa(scratch->pool->pa),
          prov(scratch->pool->prov), prov_init(scratch->pool->prov_init),
          co(scratch->pool->co), co_pa(scratch->pool->co_pa),
          rf(scratch->pool->rf), fr(scratch->pool->fr),
          po_loc(scratch->pool->po_loc), rfe(scratch->pool->rfe),
          rf_ptw_rel(scratch->pool->rf_ptw_rel),
          ptw_source(scratch->pool->ptw_source), rf_pa(scratch->pool->rf_pa),
          fr_pa(scratch->pool->fr_pa), fr_va(scratch->pool->fr_va),
          po_const(scratch->pool->po_const),
          remap_const(scratch->pool->remap_const),
          ppo_const(scratch->pool->ppo_const),
          fence_const(scratch->pool->fence_const),
          po_mem_const(scratch->pool->po_mem_const),
          rmw_const(scratch->pool->rmw_const),
          ghost_const(scratch->pool->ghost_const),
          clause_buf(scratch->pool->clause_buf),
          options_buf(scratch->pool->options_buf),
          events_buf(scratch->pool->events_buf),
          peers_buf(scratch->pool->peers_buf),
          expr_memo(scratch->pool->expr_memo)
    {
        factory.reset();
        solver.reset();
        expr_memo.clear();
        build_choices();
        build_address_resolution();
        build_coherence();
        build_derived(needs);
        build_placement_constraints();
    }

    // ------------------------------------------------------------------
    // Inputs.
    // ------------------------------------------------------------------
    const Program& p;
    const int n;
    const bool vm_enabled;

    BoolFactory& factory;
    sat::Solver& solver;
    EncodingScratch::Pool& pool;  ///< base_rel_info circuits resolve here

    // ------------------------------------------------------------------
    // Choice variables (pooled storage; see EncodingScratch::Pool).
    // ------------------------------------------------------------------
    // rf_choice[r]: write-candidate -> ExprId; init_choice[r] for the
    // initial state.
    std::vector<ChoiceMap>& rf_choice;
    std::vector<ExprId>& init_choice;
    // ptw_choice[e]: walk -> ExprId (data accesses only).
    std::vector<ChoiceMap>& ptw_choice;
    // pa[e][k]: one-hot resolved physical address (memory events only).
    std::vector<std::vector<ExprId>>& pa;
    // prov[e]: Wpte -> ExprId, plus prov_init[e] (data accesses, walks,
    // dirty-bit writes).
    std::vector<ChoiceMap>& prov;
    std::vector<ExprId>& prov_init;

    // Coherence order over write-like events; alias-creation order over
    // Wptes.
    RelExpr& co;
    RelExpr& co_pa;

    // ------------------------------------------------------------------
    // Derived circuits.
    // ------------------------------------------------------------------
    RelExpr& rf;
    RelExpr& fr;
    RelExpr& po_loc;
    RelExpr& rfe;
    RelExpr& rf_ptw_rel;
    RelExpr& ptw_source;
    RelExpr& rf_pa;
    RelExpr& fr_pa;
    RelExpr& fr_va;
    RelExpr& po_const;
    RelExpr& remap_const;
    RelExpr& ppo_const;
    RelExpr& fence_const;
    RelExpr& po_mem_const;
    RelExpr& rmw_const;
    RelExpr& ghost_const;

    int num_pas = 0;

    // ------------------------------------------------------------------
    // Direct clause emission. Nearly every placement constraint is a
    // 2-/3-literal clause over choice variables; routing them through the
    // circuit layer (assert_true -> Tseitin compile) used to cost an
    // auxiliary variable plus ~4 clauses each and dominated the per-program
    // Build time. The helpers below emit the clauses straight into the
    // solver through one reused buffer; constant exprs fold (a true term
    // drops the clause, a false term drops out of it).
    // ------------------------------------------------------------------
    std::vector<sat::Lit>& clause_buf;
    bool clause_sat = false;

    /// Reused exactly-one option buffer and event scans.
    std::vector<ExprId>& options_buf;
    std::vector<EventId>& events_buf;
    std::vector<EventId>& peers_buf;

    /// Memo for lower_expr (pooled; cleared per Build).
    ExprMemo& expr_memo;

    void
    cl_begin()
    {
        clause_buf.clear();
        clause_sat = false;
    }

    /// Adds \p e as a positive term. \p e may be any expression; non-var
    /// exprs Tseitin-compile once (memoized) to an equivalent literal.
    void
    cl_pos(ExprId e)
    {
        if (e == rel::kTrueExpr) {
            clause_sat = true;
        } else if (e != rel::kFalseExpr) {
            clause_buf.push_back(factory.compile(e, &solver));
        }
    }

    void
    cl_neg(ExprId e)
    {
        if (e == rel::kFalseExpr) {
            clause_sat = true;
        } else if (e != rel::kTrueExpr) {
            clause_buf.push_back(~factory.compile(e, &solver));
        }
    }

    void
    cl_end()
    {
        if (!clause_sat) {
            solver.add_clause(clause_buf);
        }
    }

    /// Exactly-one over literal-backed options: one at-least-one clause
    /// plus pairwise at-most-one clauses (the same pairwise encoding the
    /// circuit layer used, minus its per-pair auxiliary variables). An
    /// empty option list yields the empty clause, i.e. unsatisfiable —
    /// matching assert_true(mk_exactly_one({})).
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
        return factory.mk_var(solver.new_var());
    }

    ExprId
    pa_equal(EventId a, EventId b)
    {
        // One-hot equality: some PA selected by both.
        ExprId acc = factory.mk_const(false);
        for (int k = 0; k < num_pas; ++k) {
            acc = factory.mk_or(acc, factory.mk_and(pa[a][k], pa[b][k]));
        }
        return acc;
    }

    /// Asserts guard -> pa[a] == pa[b]: per one-hot slot k, the clauses
    /// (!guard | !pa[a][k] | pa[b][k]) and (!guard | !pa[b][k] | pa[a][k]).
    void
    link_pa(ExprId guard, EventId a, EventId b)
    {
        for (int k = 0; k < num_pas; ++k) {
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

    /// Asserts guard -> prov[a] == prov[b].
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

    ExprId
    same_class(EventId a, EventId b)
    {
        const Event& ea = p.event(a);
        const Event& eb = p.event(b);
        if (elt::is_data_access(ea.kind) && elt::is_data_access(eb.kind)) {
            if (!vm_enabled) {
                return factory.mk_const(ea.va == eb.va);
            }
            return pa_equal(a, b);
        }
        if (elt::is_pte_access(ea.kind) && elt::is_pte_access(eb.kind)) {
            return factory.mk_const(ea.va == eb.va);
        }
        return factory.mk_const(false);
    }

    /// Resizes a vector of per-event containers to n rows and clears each
    /// row, keeping every row's capacity.
    template <typename Row>
    void
    reset_rows(std::vector<Row>& rows)
    {
        rows.resize(n);
        for (Row& row : rows) {
            row.clear();
        }
    }

    void
    build_choices()
    {
        num_pas = std::max(p.num_pas(), 1);
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
                // Data rf candidates: any data write under VM (the dynamic
                // same-PA constraint gates it); same-VA writes in MCM mode
                // (VAs are the locations).
                const bool data_pair = elt::is_data_access(e.kind) &&
                                       we.kind == EventKind::kWrite &&
                                       (vm_enabled || we.va == e.va);
                const bool pte_pair = elt::is_pte_access(e.kind) &&
                                      elt::is_pte_access(we.kind) &&
                                      elt::is_write_like(we.kind) &&
                                      we.va == e.va;
                if (data_pair || pte_pair) {
                    const ExprId choice = var();
                    rf_choice[r].insert(w, choice);
                    options.push_back(choice);
                }
            }
            assert_exactly_one(options);
        }

        if (!vm_enabled) {
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
                if (we.kind != EventKind::kRptw || we.thread != p.event(e).thread ||
                    we.va != p.event(e).va) {
                    continue;
                }
                const EventId walker = we.parent;
                if (walker != e && !p.precedes(walker, e)) {
                    continue;
                }
                // No same-VA INVLPG between the walk and the use.
                bool blocked = false;
                for (EventId i = 0; i < n; ++i) {
                    const Event& inv = p.event(i);
                    const bool evicts =
                        (inv.kind == EventKind::kInvlpg && inv.va == we.va) ||
                        inv.kind == EventKind::kInvlpgAll;
                    if (evicts && inv.thread == we.thread &&
                        p.precedes(walker, i) && p.precedes(i, e)) {
                        blocked = true;
                        break;
                    }
                }
                if (!blocked) {
                    const ExprId choice = var();
                    ptw_choice[e].insert(w, choice);
                    options.push_back(choice);
                }
            }
            assert_exactly_one(options);
            // An access that invoked its own walk must use it.
            const EventId own = p.rptw_of(e);
            if (own != kNone) {
                const ExprId* choice = ptw_choice[e].find(own);
                TF_ASSERT(choice != nullptr);
                factory.assert_true(*choice, &solver);
            }
        }
    }

    void
    build_address_resolution()
    {
        if (!vm_enabled) {
            return;
        }
        // One-hot pa and provenance vectors for memory events.
        for (EventId e = 0; e < n; ++e) {
            const Event& ev = p.event(e);
            if (!elt::is_memory(ev.kind)) {
                continue;
            }
            if (ev.kind == EventKind::kWpte) {
                // Constant: the mapping it installs.
                pa[e].assign(num_pas, rel::kFalseExpr);
                pa[e][ev.map_pa] = rel::kTrueExpr;
                continue;
            }
            pa[e].reserve(num_pas);
            for (int k = 0; k < num_pas; ++k) {
                pa[e].push_back(var());
            }
            assert_exactly_one(pa[e]);
            prov_init[e] = var();
            std::vector<ExprId>& options = options_buf;
            options.clear();
            options.push_back(prov_init[e]);
            for (EventId w = 0; w < n; ++w) {
                if (p.event(w).kind == EventKind::kWpte &&
                    p.event(w).va == ev.va) {
                    const ExprId flag = var();
                    prov[e].insert(w, flag);
                    options.push_back(flag);
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
                // Initial mapping: VA i -> PA i.
                cl_begin();
                cl_neg(init_choice[e]);
                cl_pos(pa[e][ev.va]);
                cl_end();
                cl_begin();
                cl_neg(init_choice[e]);
                cl_pos(prov_init[e]);
                cl_end();
                for (const auto& [w, guard] : rf_choice[e]) {
                    const Event& we = p.event(w);
                    if (we.kind == EventKind::kWpte) {
                        cl_begin();
                        cl_neg(guard);
                        cl_pos(pa[e][we.map_pa]);
                        cl_end();
                        cl_begin();
                        cl_neg(guard);
                        cl_pos(prov[e].at(w));
                        cl_end();
                    } else {  // Wdb: mapping propagates through
                        link_pa(guard, e, w);
                        link_prov(guard, e, w);
                    }
                }
                break;
            }
            case EventKind::kWdb:
                // A dirty-bit update preserves the mapping its immediate
                // coherence predecessor left at this PTE location (initial
                // mapping when coherence-first). Because co is a strict
                // total order per location, values always ground out in a
                // Wpte or the initial state — no cyclic dependencies can
                // arise. Constraints are built in build_coherence(), once
                // the co variables exist.
                break;
            default:
                break;
            }
        }

        // A data read may only be sourced by a same-PA write: under the
        // one-hot PA encoding, guard & pa[r][k] -> pa[w][k] per slot pins
        // the equality (exactly-one on pa[w] rules every other slot out).
        for (EventId r = 0; r < n; ++r) {
            if (!elt::is_data_access(p.event(r).kind)) {
                continue;
            }
            for (const auto& [w, guard] : rf_choice[r]) {
                for (int k = 0; k < num_pas; ++k) {
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
    build_coherence()
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
                // co(a, b) -> same class. For VM data-data pairs the class
                // is the dynamic one-hot PA: per slot k, co(a,b) & pa[a][k]
                // -> pa[b][k] pins equality (exactly-one excludes the
                // rest). Every other combination has a constant class.
                const bool dynamic_class =
                    vm_enabled && elt::is_data_access(p.event(a).kind) &&
                    elt::is_data_access(p.event(b).kind);
                if (dynamic_class) {
                    for (int k = 0; k < num_pas; ++k) {
                        cl_begin();
                        cl_neg(co.at(a, b));
                        cl_neg(pa[a][k]);
                        cl_pos(pa[b][k]);
                        cl_end();
                    }
                } else {
                    cl_begin();
                    cl_neg(co.at(a, b));
                    cl_pos(same_class(a, b));  // constant here
                    cl_end();
                }
                if (a < b) {
                    // Same class -> exactly one direction. The at-most-one
                    // half holds unconditionally (different-class pairs have
                    // both directions forced false above), the totality half
                    // is guarded by the class condition.
                    cl_begin();
                    cl_neg(co.at(a, b));
                    cl_neg(co.at(b, a));
                    cl_end();
                    if (dynamic_class) {
                        for (int k = 0; k < num_pas; ++k) {
                            cl_begin();
                            cl_neg(pa[a][k]);
                            cl_neg(pa[b][k]);
                            cl_pos(co.at(a, b));
                            cl_pos(co.at(b, a));
                            cl_end();
                        }
                    } else {
                        cl_begin();
                        cl_neg(same_class(a, b));  // constant here
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
        if (!vm_enabled) {
            return;
        }
        // Dirty-bit value semantics: a Wdb takes the mapping value of its
        // immediate coherence predecessor at its PTE location (the initial
        // mapping when coherence-first). co is total per location, so the
        // values always ground out in a Wpte or the initial state.
        for (EventId d = 0; d < n; ++d) {
            if (p.event(d).kind != EventKind::kWdb) {
                continue;
            }
            const int va = p.event(d).va;
            std::vector<EventId>& peers = peers_buf;
            peers.clear();
            for (EventId w = 0; w < n; ++w) {
                if (w != d && elt::is_pte_access(p.event(w).kind) &&
                    elt::is_write_like(p.event(w).kind) &&
                    p.event(w).va == va) {
                    peers.push_back(w);
                }
            }
            // Coherence-first: no peer precedes d. Directly clausal, since
            // "not first" is a plain disjunction of co(w, d) literals.
            cl_begin();
            for (const EventId w : peers) {
                cl_pos(co.at(w, d));
            }
            cl_pos(pa[d][va]);
            cl_end();
            cl_begin();
            for (const EventId w : peers) {
                cl_pos(co.at(w, d));
            }
            cl_pos(prov_init[d]);
            cl_end();
            for (const EventId w : peers) {
                // immediate(w, d) = co(w, d) with nothing in between — the
                // one constraint here that is a genuine circuit; its
                // Tseitin literal compiles once and guards plain clauses.
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
                    cl_begin();
                    cl_neg(immediate);
                    cl_pos(pa[d][p.event(w).map_pa]);
                    cl_end();
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
        // co_pa: strict total order per (static) target-PA class of Wptes,
        // consistent with co where both orders apply.
        std::vector<EventId>& wptes = events_buf;
        wptes.clear();
        for (EventId w = 0; w < n; ++w) {
            if (p.event(w).kind == EventKind::kWpte) {
                wptes.push_back(w);
            }
        }
        for (const EventId a : wptes) {
            for (const EventId b : wptes) {
                if (a == b || p.event(a).map_pa != p.event(b).map_pa) {
                    continue;
                }
                co_pa.set(a, b, var());
            }
        }
        for (const EventId a : wptes) {
            for (const EventId b : wptes) {
                if (a == b || p.event(a).map_pa != p.event(b).map_pa) {
                    continue;
                }
                if (a < b) {
                    // Strict total order per class: exactly one direction.
                    cl_begin();
                    cl_pos(co_pa.at(a, b));
                    cl_pos(co_pa.at(b, a));
                    cl_end();
                    cl_begin();
                    cl_neg(co_pa.at(a, b));
                    cl_neg(co_pa.at(b, a));
                    cl_end();
                }
                for (const EventId c : wptes) {
                    if (c != a && c != b &&
                        p.event(c).map_pa == p.event(a).map_pa) {
                        cl_begin();
                        cl_neg(co_pa.at(a, b));
                        cl_neg(co_pa.at(b, c));
                        cl_pos(co_pa.at(a, c));
                        cl_end();
                    }
                }
                if (p.event(a).va == p.event(b).va) {
                    // co and co_pa agree where both apply: co(a,b) <-> co_pa(a,b).
                    cl_begin();
                    cl_neg(co.at(a, b));
                    cl_pos(co_pa.at(a, b));
                    cl_end();
                    cl_begin();
                    cl_pos(co.at(a, b));
                    cl_neg(co_pa.at(a, b));
                    cl_end();
                }
            }
        }
    }

    void
    build_derived(unsigned needs)
    {
        if (needs & kNeedRf) {
            rf.reset_empty(&factory, n);
            for (EventId r = 0; r < n; ++r) {
                for (const auto& [w, guard] : rf_choice[r]) {
                    rf.set(w, r, factory.mk_or(rf.at(w, r), guard));
                }
            }
        }
        if (needs & kNeedRfe) {
            rfe.reset_empty(&factory, n);
            for (EventId r = 0; r < n; ++r) {
                for (const auto& [w, guard] : rf_choice[r]) {
                    if (p.event(w).thread != p.event(r).thread) {
                        rfe.set(w, r, factory.mk_or(rfe.at(w, r), guard));
                    }
                }
            }
        }
        // fr(r, w') = exists w: rf(w, r) & co(w, w')  |  init(r) & class(r, w').
        if (needs & kNeedFr) {
            fr.reset_empty(&factory, n);
            for (EventId r = 0; r < n; ++r) {
                if (!elt::is_read_like(p.event(r).kind)) {
                    continue;
                }
                for (EventId w2 = 0; w2 < n; ++w2) {
                    if (!elt::is_write_like(p.event(w2).kind)) {
                        continue;
                    }
                    ExprId acc =
                        factory.mk_and(init_choice[r], same_class(r, w2));
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
        // po_loc over extended order.
        if (needs & kNeedPoLoc) {
            po_loc.reset_empty(&factory, n);
            for (EventId a = 0; a < n; ++a) {
                for (EventId b = 0; b < n; ++b) {
                    if (a != b && elt::is_memory(p.event(a).kind) &&
                        elt::is_memory(p.event(b).kind) && p.precedes(a, b)) {
                        po_loc.set(a, b, same_class(a, b));
                    }
                }
            }
        }
        // Constants: po (transitive), po_mem, remap, ppo, fence, rmw, ghost.
        if (needs & kNeedPoConst) {
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
        if (needs & kNeedPoMemConst) {
            // Extended program order over memory events, ghosts included —
            // the same pairs as the concrete evaluator's po_mem base.
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
        if (needs & kNeedRemapConst) {
            remap_const.reset_empty(&factory, n);
            for (EventId i = 0; i < n; ++i) {
                const Event& e = p.event(i);
                if (e.kind == EventKind::kInvlpg && e.remap_src != kNone) {
                    remap_const.set(e.remap_src, i, rel::kTrueExpr);
                }
            }
        }
        if (needs & kNeedRmwConst) {
            rmw_const.reset_empty(&factory, n);
            for (const auto& [r, w] : p.rmw_pairs()) {
                rmw_const.set(r, w, rel::kTrueExpr);
            }
        }
        if (needs & kNeedGhostConst) {
            ghost_const.reset_empty(&factory, n);
            for (EventId i = 0; i < n; ++i) {
                if (elt::is_ghost(p.event(i).kind)) {
                    ghost_const.set(p.event(i).parent, i, rel::kTrueExpr);
                }
            }
        }
        if (needs & kNeedPpoFenceConst) {
            ppo_const.reset_empty(&factory, n);
            fence_const.reset_empty(&factory, n);
            for (EventId a = 0; a < n; ++a) {
                for (EventId b = 0; b < n; ++b) {
                    if (a == b || !elt::is_memory(p.event(a).kind) ||
                        !elt::is_memory(p.event(b).kind) || !p.precedes(a, b)) {
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
        if (!vm_enabled) {
            // A non-VM model may still carry VM axioms (Model is an open
            // "define your own MTM" API): their relations are simply empty
            // here, exactly as the eager builder produced them.
            if (needs & (kNeedRfPtw | kNeedPtwSource)) {
                rf_ptw_rel.reset_empty(&factory, n);
                ptw_source.reset_empty(&factory, n);
            }
            if (needs & kNeedRfPa) {
                rf_pa.reset_empty(&factory, n);
            }
            if (needs & kNeedFrVa) {
                fr_va.reset_empty(&factory, n);
            }
            if (needs & kNeedFrPa) {
                fr_pa.reset_empty(&factory, n);
            }
            return;
        }

        if (needs & (kNeedRfPtw | kNeedPtwSource)) {
            rf_ptw_rel.reset_empty(&factory, n);
            ptw_source.reset_empty(&factory, n);
            for (EventId e = 0; e < n; ++e) {
                for (const auto& [walk, guard] : ptw_choice[e]) {
                    rf_ptw_rel.set(
                        walk, e, factory.mk_or(rf_ptw_rel.at(walk, e), guard));
                    const EventId walker = p.event(walk).parent;
                    if (walker != e) {
                        ptw_source.set(walker, e,
                                       factory.mk_or(ptw_source.at(walker, e),
                                                     guard));
                    }
                }
            }
        }
        if (needs & kNeedRfPa) {
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
        // fr_va: later Wptes (in PTE-location coherence) remapping e's VA.
        if (needs & kNeedFrVa) {
            fr_va.reset_empty(&factory, n);
            for (EventId e = 0; e < n; ++e) {
                if (!elt::is_data_access(p.event(e).kind)) {
                    continue;
                }
                for (EventId w2 = 0; w2 < n; ++w2) {
                    const Event& we2 = p.event(w2);
                    if (we2.kind != EventKind::kWpte ||
                        we2.va != p.event(e).va) {
                        continue;
                    }
                    ExprId acc = prov_init[e];
                    for (const auto& [wpte, flag] : prov[e]) {
                        if (wpte != w2) {
                            acc = factory.mk_or(
                                acc, factory.mk_and(flag, co.at(wpte, w2)));
                        }
                    }
                    fr_va.set(e, w2, acc);
                }
            }
        }
        // fr_pa: co_pa-successors of the provenance (initial mapping
        // precedes every alias creation for its PA).
        if (needs & kNeedFrPa) {
            fr_pa.reset_empty(&factory, n);
            for (EventId e = 0; e < n; ++e) {
                if (!elt::is_data_access(p.event(e).kind)) {
                    continue;
                }
                for (EventId w2 = 0; w2 < n; ++w2) {
                    const Event& we2 = p.event(w2);
                    if (we2.kind != EventKind::kWpte) {
                        continue;
                    }
                    ExprId acc = factory.mk_and(prov_init[e],
                                                pa[e].empty()
                                                    ? rel::kFalseExpr
                                                    : pa[e][we2.map_pa]);
                    for (const auto& [wpte, flag] : prov[e]) {
                        if (wpte != w2 &&
                            p.event(wpte).map_pa == we2.map_pa) {
                            acc = factory.mk_or(
                                acc, factory.mk_and(flag, co_pa.at(wpte, w2)));
                        }
                    }
                    fr_pa.set(e, w2, acc);
                }
            }
        }
    }

    void
    build_placement_constraints()
    {
        // Everything structural is static (checked by Program::validate());
        // the dynamic placement rules were asserted inline above.
    }

    // ------------------------------------------------------------------
    // Axiom circuits: `.mtm` expressions lowered over the circuits above
    // (lower_expr in encoding_detail.h).
    // ------------------------------------------------------------------

    const RelExpr&
    base_circuit(spec::BaseRel base)
    {
        // Resolved through the same table that produced the need bits, so
        // a circuit can never be read without having been (re)built for
        // this query.
        return pool.*(base_rel_info(base).circuit);
    }

    /// Circuit stating that the given axiom HOLDS.
    ExprId
    axiom_circuit(const Axiom& axiom)
    {
        return form_circuit(
            axiom.def->form,
            lower_expr(
                *axiom.def->expr, p, &factory,
                [this](spec::BaseRel base) -> const RelExpr& {
                    return base_circuit(base);
                },
                &expr_memo),
            &factory);
    }
};

ProgramEncoding::ProgramEncoding(Program program, const Model* model,
                                 EncodingScratch* scratch)
    : program_(std::move(program)), model_(model), scratch_(scratch)
{
    TF_ASSERT(model_ != nullptr);
    TF_ASSERT(program_.validate(model_->vm_aware()).empty());
    if (scratch_ == nullptr) {
        owned_scratch_ = std::make_unique<EncodingScratch>();
        scratch_ = owned_scratch_.get();
    }
}

namespace {

/// Extracts a concrete Execution from a satisfying model of the encoding
/// into \p out, resetting and reusing its witness vectors.
void
extract_into(const ProgramEncoding::Build& b, const Program& program,
             Execution* out)
{
    const int n = program.num_events();
    out->rf_src.assign(n, kNone);
    out->co_pos.assign(n, kNone);
    out->ptw_src.assign(n, kNone);
    out->co_pa_pos.assign(n, kNone);
    auto lit_true = [&](ExprId e) {
        return b.factory.evaluate(e, [&](sat::Var v) {
            return b.solver.model_value(v) == sat::LBool::kTrue;
        });
    };
    for (EventId r = 0; r < n; ++r) {
        for (const auto& [w, guard] : b.rf_choice[r]) {
            if (lit_true(guard)) {
                out->rf_src[r] = w;
            }
        }
        for (const auto& [walk, guard] : b.ptw_choice[r]) {
            if (lit_true(guard)) {
                out->ptw_src[r] = walk;
            }
        }
    }
    // co positions: count predecessors within each class.
    for (EventId w = 0; w < n; ++w) {
        if (!elt::is_write_like(program.event(w).kind)) {
            continue;
        }
        int predecessors = 0;
        for (EventId w2 = 0; w2 < n; ++w2) {
            if (w2 != w && elt::is_write_like(program.event(w2).kind) &&
                lit_true(b.co.at(w2, w))) {
                ++predecessors;
            }
        }
        out->co_pos[w] = predecessors;
    }
    for (EventId w = 0; w < n; ++w) {
        if (program.event(w).kind != EventKind::kWpte) {
            continue;
        }
        int predecessors = 0;
        for (EventId w2 = 0; w2 < n; ++w2) {
            if (w2 != w && program.event(w2).kind == EventKind::kWpte &&
                program.event(w2).map_pa == program.event(w).map_pa &&
                lit_true(b.co_pa.at(w2, w))) {
                ++predecessors;
            }
        }
        out->co_pa_pos[w] = predecessors;
    }
}

/// Collects every solver variable used by the witness choices — the
/// projection set for AllSAT enumeration and blocking — into the reused
/// \p clause buffer.
void
blocking_clause(ProgramEncoding::Build& b, std::vector<sat::Lit>* clause)
{
    clause->clear();
    auto block = [&](ExprId e) {
        // Choice expressions are single variables created via var(); compile
        // is a lookup returning the underlying literal.
        const sat::Lit l = b.factory.compile(e, &b.solver);
        const bool value = b.solver.model_literal_true(l);
        clause->push_back(value ? ~l : l);
    };
    const int n = b.n;
    for (EventId r = 0; r < n; ++r) {
        for (const auto& [w, guard] : b.rf_choice[r]) {
            (void)w;
            block(guard);
        }
        if (elt::is_read_like(b.p.event(r).kind)) {
            block(b.init_choice[r]);
        }
        for (const auto& [walk, guard] : b.ptw_choice[r]) {
            (void)walk;
            block(guard);
        }
    }
    for (EventId a = 0; a < n; ++a) {
        for (EventId c = 0; c < n; ++c) {
            if (a != c && b.co.at(a, c) != rel::kFalseExpr) {
                block(b.co.at(a, c));
            }
            if (a != c && b.co_pa.at(a, c) != rel::kFalseExpr) {
                block(b.co_pa.at(a, c));
            }
        }
    }
}

/// Maps a non-kSat query verdict onto the robustness contract: a
/// budget-exhausted kUnknown is unsound to fold into "no model" and is
/// surfaced as a retryable fault; an interrupt kUnknown reads as
/// "not found" — the cancelled caller discards the result anyway.
void
require_decisive_or_interrupted(const sat::Solver& solver,
                                sat::SolveResult verdict)
{
    if (verdict == sat::SolveResult::kUnknown &&
        solver.unknown_cause() == sat::UnknownCause::kConflictBudget) {
        throw sat::BudgetExhausted();
    }
}

}  // namespace

bool
ProgramEncoding::exists_violating(const std::string& axiom_name)
{
    return find_violating(axiom_name).has_value();
}

std::optional<Execution>
ProgramEncoding::find_violating(const std::string& axiom_name)
{
    const Axiom* axiom = model_->axiom(axiom_name);
    TF_ASSERT(axiom != nullptr);
    Build b(program_, model_->vm_aware(), needs_for(*axiom), scratch_);
    b.factory.assert_true(b.factory.mk_not(b.axiom_circuit(*axiom)),
                          &b.solver);
    stats_.variables = b.solver.num_vars();
    stats_.circuit_nodes = static_cast<int>(b.factory.num_nodes());
    const sat::SolveResult verdict = b.solver.solve();
    require_decisive_or_interrupted(b.solver, verdict);
    if (verdict != sat::SolveResult::kSat) {
        return std::nullopt;
    }
    Execution out = Execution::empty_for(program_);
    extract_into(b, program_, &out);
    return out;
}

bool
ProgramEncoding::exists_permitted()
{
    unsigned needs = 0;
    for (const Axiom& axiom : model_->axioms()) {
        needs |= needs_for(axiom);
    }
    Build b(program_, model_->vm_aware(), needs, scratch_);
    for (const Axiom& axiom : model_->axioms()) {
        b.factory.assert_true(b.axiom_circuit(axiom), &b.solver);
    }
    stats_.variables = b.solver.num_vars();
    stats_.circuit_nodes = static_cast<int>(b.factory.num_nodes());
    const sat::SolveResult verdict = b.solver.solve();
    require_decisive_or_interrupted(b.solver, verdict);
    return verdict == sat::SolveResult::kSat;
}

bool
ProgramEncoding::exists_execution()
{
    Build b(program_, model_->vm_aware(), /*needs=*/0, scratch_);
    stats_.variables = b.solver.num_vars();
    stats_.circuit_nodes = static_cast<int>(b.factory.num_nodes());
    const sat::SolveResult verdict = b.solver.solve();
    require_decisive_or_interrupted(b.solver, verdict);
    return verdict == sat::SolveResult::kSat;
}

bool
ProgramEncoding::enumerate(const std::string& violating_axiom,
                           const ExecutionVisitor& visit)
{
    const Axiom* axiom = nullptr;
    if (!violating_axiom.empty()) {
        axiom = model_->axiom(violating_axiom);
        TF_ASSERT(axiom != nullptr);
    }
    Build b(program_, model_->vm_aware(),
            axiom == nullptr ? 0u : needs_for(*axiom), scratch_);
    if (axiom != nullptr) {
        b.factory.assert_true(b.factory.mk_not(b.axiom_circuit(*axiom)),
                              &b.solver);
    }
    stats_.variables = b.solver.num_vars();
    stats_.circuit_nodes = static_cast<int>(b.factory.num_nodes());
    stats_.models = 0;
    Execution current = Execution::empty_for(program_);
    sat::Clause clause;
    while (true) {
        const sat::SolveResult verdict = b.solver.solve();
        require_decisive_or_interrupted(b.solver, verdict);
        if (verdict != sat::SolveResult::kSat) {
            // kUnsat exhausts the space; an interrupt kUnknown stops the
            // sweep like a visitor veto — the cancelled caller discards it.
            return verdict == sat::SolveResult::kUnsat;
        }
        extract_into(b, program_, &current);
        ++stats_.models;
        if (!visit(current)) {
            return false;  // the visitor stopped the solver
        }
        const obs::ScopedAllocSite alloc_site(
            obs::AllocSite::kSiteBlockingClause);
        blocking_clause(b, &clause);
        if (clause.empty() || !b.solver.add_clause(clause)) {
            break;
        }
    }
    return true;
}

std::vector<Execution>
ProgramEncoding::enumerate(const std::string& violating_axiom,
                           int max_executions)
{
    std::vector<Execution> out;
    enumerate(violating_axiom, [&](const Execution& e) {
        out.push_back(e);
        return max_executions <= 0 ||
               static_cast<int>(out.size()) < max_executions;
    });
    return out;
}

}  // namespace transform::mtm
