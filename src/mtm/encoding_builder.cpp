#include <algorithm>
#include <utility>

#include "mtm/encoding_detail.h"
#include "mtm/model.h"
#include "rel/bool_factory.h"
#include "rel/relation.h"
#include "sat/solver.h"
#include "spec/ast.h"
#include "util/logging.h"

namespace transform::mtm {

using elt::Event;
using elt::EventId;
using elt::EventKind;
using elt::kNone;
using rel::ExprId;
using rel::RelExpr;

namespace {

/// ONE source of truth per `.mtm` base relation: the need bit its circuit
/// is gated on AND the builder circuit it lowers to. Keeping the pair in a
/// single switch makes a mismatch — a circuit read without its need bit,
/// i.e. a stale RelExpr from a previous build — structurally impossible.
/// co and co_pa are free choice relations, always built (needs = 0).
struct BaseRelInfo {
    unsigned needs;
    RelExpr EncodingBuilder::* circuit;
};

BaseRelInfo
base_rel_info(spec::BaseRel base)
{
    using B = EncodingBuilder;
    switch (base) {
    case spec::BaseRel::kPo: return {kNeedPoConst, &B::po_const};
    case spec::BaseRel::kPoLoc: return {kNeedPoLoc, &B::po_loc};
    case spec::BaseRel::kPoMem: return {kNeedPoMemConst, &B::po_mem_const};
    case spec::BaseRel::kRf: return {kNeedRf, &B::rf};
    case spec::BaseRel::kRfe: return {kNeedRfe, &B::rfe};
    case spec::BaseRel::kCo: return {0, &B::co};
    case spec::BaseRel::kFr: return {kNeedFr, &B::fr};
    case spec::BaseRel::kPpo: return {kNeedPpoFenceConst, &B::ppo_const};
    case spec::BaseRel::kFence:
        return {kNeedPpoFenceConst, &B::fence_const};
    case spec::BaseRel::kRmw: return {kNeedRmwConst, &B::rmw_const};
    case spec::BaseRel::kGhost: return {kNeedGhostConst, &B::ghost_const};
    case spec::BaseRel::kRfPtw: return {kNeedRfPtw, &B::rf_ptw_rel};
    case spec::BaseRel::kRfPa: return {kNeedRfPa, &B::rf_pa};
    case spec::BaseRel::kCoPa: return {0, &B::co_pa};
    case spec::BaseRel::kFrPa: return {kNeedFrPa, &B::fr_pa};
    case spec::BaseRel::kFrVa: return {kNeedFrVa, &B::fr_va};
    case spec::BaseRel::kRemap: return {kNeedRemapConst, &B::remap_const};
    case spec::BaseRel::kPtwSource:
        return {kNeedPtwSource, &B::ptw_source};
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

/// Resizes a vector of per-event containers to n rows and clears each
/// row, keeping every row's capacity.
template <typename Row>
void
reset_rows(std::vector<Row>* rows, int n)
{
    rows->resize(n);
    for (Row& row : *rows) {
        row.clear();
    }
}

}  // namespace

unsigned
needs_for(const Axiom& axiom)
{
    std::vector<const spec::Expr*> visited;
    return needs_for_expr(*axiom.def->expr, &visited);
}

ExprId
form_circuit(spec::AxiomForm form, const RelExpr& r, rel::BoolFactory* factory)
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

// ----------------------------------------------------------------------
// Clause primitives.
// ----------------------------------------------------------------------

ExprId
EncodingBuilder::var()
{
    return factory->mk_var(solver->new_var());
}

void
EncodingBuilder::cl_begin()
{
    clause_buf.clear();
    clause_sat = false;
}

void
EncodingBuilder::cl_pos(ExprId e)
{
    if (e == rel::kTrueExpr) {
        clause_sat = true;
    } else if (e != rel::kFalseExpr) {
        clause_buf.push_back(factory->compile(e, solver));
    }
}

void
EncodingBuilder::cl_neg(ExprId e)
{
    if (e == rel::kFalseExpr) {
        clause_sat = true;
    } else if (e != rel::kTrueExpr) {
        clause_buf.push_back(~factory->compile(e, solver));
    }
}

void
EncodingBuilder::cl_end()
{
    if (!clause_sat) {
        solver->add_clause(clause_buf.data(), clause_buf.size());
    }
}

void
EncodingBuilder::assert_exactly_one(const std::vector<ExprId>& options)
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

bool
EncodingBuilder::placed_apart(const std::vector<ExprId>& x,
                              const std::vector<ExprId>& y)
{
    TF_ASSERT(x.size() == y.size());
    for (std::size_t k = 0; k < x.size(); ++k) {
        if ((x[k] == rel::kTrueExpr && y[k] == rel::kFalseExpr) ||
            (x[k] == rel::kFalseExpr && y[k] == rel::kTrueExpr)) {
            return true;
        }
    }
    return false;
}

bool
EncodingBuilder::placed_together(const std::vector<ExprId>& x,
                                 const std::vector<ExprId>& y)
{
    TF_ASSERT(x.size() == y.size());
    for (std::size_t k = 0; k < x.size(); ++k) {
        if (x[k] == rel::kTrueExpr && y[k] == rel::kTrueExpr) {
            return true;
        }
    }
    return false;
}

ExprId
EncodingBuilder::va_eq(EventId a, EventId b)
{
    const std::size_t idx = static_cast<std::size_t>(a) * n + b;
    if (!va_eq_built[idx]) {
        ExprId acc = rel::kFalseExpr;
        if (a != b && !va[a].empty() && !va[b].empty()) {
            for (int v = 0; v < num_vas; ++v) {
                acc = factory->mk_or(acc, factory->mk_and(va[a][v], va[b][v]));
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
EncodingBuilder::pa_equal(EventId a, EventId b)
{
    ExprId acc = rel::kFalseExpr;
    for (int k = 0; k < num_pas; ++k) {
        acc = factory->mk_or(acc, factory->mk_and(pa[a][k], pa[b][k]));
    }
    return acc;
}

/// Per one-hot slot k, the clauses (!guard | !pa[a][k] | pa[b][k]) and
/// (!guard | !pa[b][k] | pa[a][k]).
void
EncodingBuilder::link_pa(ExprId guard, EventId a, EventId b)
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

void
EncodingBuilder::link_prov(ExprId guard, EventId a, EventId b)
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

/// Data locations are PAs under VM and VAs otherwise; PTE locations are
/// VAs.
ExprId
EncodingBuilder::same_class(EventId a, EventId b)
{
    const Event& ea = p->event(a);
    const Event& eb = p->event(b);
    if (elt::is_data_access(ea.kind) && elt::is_data_access(eb.kind)) {
        return vm ? pa_equal(a, b) : va_eq(a, b);
    }
    if (elt::is_pte_access(ea.kind) && elt::is_pte_access(eb.kind)) {
        return va_eq(a, b);
    }
    return rel::kFalseExpr;
}

// ----------------------------------------------------------------------
// The build.
// ----------------------------------------------------------------------

void
EncodingBuilder::begin(const elt::Program& program, bool vm_aware, int vas,
                       int pas, rel::BoolFactory* f, sat::Solver* s)
{
    TF_ASSERT(vas >= 1 && pas >= 1 && (!vm_aware || pas >= vas));
    p = &program;
    n = program.num_events();
    vm = vm_aware;
    num_vas = vas;
    num_pas = pas;
    factory = f;
    solver = s;
    factory->reset();
    solver->reset();
    expr_memo.clear();
    reset_rows(&va, n);
    reset_rows(&pa, n);
    reset_rows(&rf_choice, n);
    init_choice.assign(n, rel::kFalseExpr);
    reset_rows(&ptw_choice, n);
    reset_rows(&prov, n);
    prov_init.assign(n, rel::kFalseExpr);
    va_eq_tab.assign(static_cast<std::size_t>(n) * n, rel::kFalseExpr);
    va_eq_built.assign(static_cast<std::size_t>(n) * n, 0);
}

void
EncodingBuilder::build(unsigned needs,
                       const std::function<void(EventId)>& target_pa)
{
    build_choices();
    build_address_resolution(target_pa);
    build_coherence();
    build_derived(needs);
}

void
EncodingBuilder::build_choices()
{
    for (EventId r = 0; r < n; ++r) {
        const Event& e = p->event(r);
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
            const Event& we = p->event(w);
            const bool data_pair =
                elt::is_data_access(e.kind) && we.kind == EventKind::kWrite;
            const bool pte_pair = elt::is_pte_access(e.kind) &&
                                  elt::is_pte_access(we.kind) &&
                                  elt::is_write_like(we.kind);
            if (!data_pair && !pte_pair) {
                continue;
            }
            // A PTE read reads a same-VA PTE write, and so does an MCM data
            // read (VAs are the locations). A VM data read may read any
            // data write: the dynamic same-PA rule below gates it.
            const bool same_va = pte_pair || !vm;
            if (same_va && placed_apart(va[w], va[r])) {
                continue;
            }
            const ExprId choice = var();
            rf_choice[r].insert(w, choice);
            options.push_back(choice);
            if (same_va) {
                cl_begin();
                cl_neg(choice);
                cl_pos(va_eq(w, r));
                cl_end();
            }
        }
        assert_exactly_one(options);
    }

    if (!vm) {
        return;
    }
    for (EventId e = 0; e < n; ++e) {
        if (!elt::is_data_access(p->event(e).kind)) {
            continue;
        }
        std::vector<ExprId>& options = options_buf;
        options.clear();
        for (EventId w = 0; w < n; ++w) {
            const Event& we = p->event(w);
            if (we.kind != EventKind::kRptw ||
                we.thread != p->event(e).thread ||
                placed_apart(va[w], va[e])) {
                continue;
            }
            const EventId walker = we.parent;
            if (walker != e && !p->precedes(walker, e)) {
                continue;
            }
            // The walk's entry must survive until the use: no INVLPG-all,
            // and no same-VA INVLPG, on its core in between. Where the rows
            // place an INVLPG at the walk's VA, the pair is skipped;
            // otherwise the clause below decides it.
            bool blocked = false;
            for (EventId i = 0; i < n && !blocked; ++i) {
                const Event& inv = p->event(i);
                if (inv.thread != we.thread || !p->precedes(walker, i) ||
                    !p->precedes(i, e)) {
                    continue;
                }
                blocked = inv.kind == EventKind::kInvlpgAll ||
                          (inv.kind == EventKind::kInvlpg &&
                           placed_together(va[i], va[w]));
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
                if (p->event(i).kind == EventKind::kInvlpg &&
                    p->event(i).thread == we.thread &&
                    p->precedes(walker, i) && p->precedes(i, e)) {
                    cl_begin();
                    cl_neg(choice);
                    cl_neg(va_eq(i, w));
                    cl_end();
                }
            }
        }
        assert_exactly_one(options);
        // An access that invoked its own walk must use it (never blocked:
        // the walker is the access itself, so nothing fits between).
        const EventId own = p->rptw_of(e);
        if (own != kNone) {
            const ExprId* choice = ptw_choice[e].find(own);
            TF_ASSERT(choice != nullptr);
            factory->assert_true(*choice, solver);
        }
    }
}

void
EncodingBuilder::build_address_resolution(
    const std::function<void(EventId)>& target_pa)
{
    if (!vm) {
        return;
    }
    // One-hot pa and provenance vectors for memory events.
    for (EventId e = 0; e < n; ++e) {
        const Event& ev = p->event(e);
        if (!elt::is_memory(ev.kind)) {
            continue;
        }
        if (ev.kind == EventKind::kWpte) {
            target_pa(e);  // the mapping it installs
            TF_ASSERT(static_cast<int>(pa[e].size()) == num_pas);
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
            if (p->event(w).kind != EventKind::kWpte ||
                placed_apart(va[w], va[e])) {
                continue;
            }
            const ExprId flag = var();
            prov[e].insert(w, flag);
            options.push_back(flag);
            cl_begin();
            cl_neg(flag);
            cl_pos(va_eq(w, e));
            cl_end();
        }
        assert_exactly_one(options);
    }

    for (EventId e = 0; e < n; ++e) {
        const Event& ev = p->event(e);
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
            // Initial mapping: VA v -> PA v.
            for (int v = 0; v < num_vas; ++v) {
                cl_begin();
                cl_neg(init_choice[e]);
                cl_neg(va[e][v]);
                cl_pos(pa[e][v]);
                cl_end();
            }
            cl_begin();
            cl_neg(init_choice[e]);
            cl_pos(prov_init[e]);
            cl_end();
            for (const auto& [w, guard] : rf_choice[e]) {
                if (p->event(w).kind == EventKind::kWpte) {
                    for (int k = 0; k < num_pas; ++k) {
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
                } else {  // Wdb: the mapping propagates through
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
        if (!elt::is_data_access(p->event(r).kind)) {
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
EncodingBuilder::build_coherence()
{
    co.reset_empty(factory, n);
    co_pa.reset_empty(factory, n);
    std::vector<EventId>& writes = events_buf;
    writes.clear();
    for (EventId w = 0; w < n; ++w) {
        if (elt::is_write_like(p->event(w).kind)) {
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
            // rest). Every other combination's class is a VA guard.
            const bool dynamic_class = vm &&
                                       elt::is_data_access(p->event(a).kind) &&
                                       elt::is_data_access(p->event(b).kind);
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
                cl_pos(same_class(a, b));
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
                    cl_neg(same_class(a, b));
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
    // Dirty-bit value semantics: a Wdb takes the mapping value of its
    // immediate coherence predecessor at its PTE location (the initial
    // mapping when coherence-first). co is total per location, so the
    // values always ground out in a Wpte or the initial state.
    for (EventId d = 0; d < n; ++d) {
        if (p->event(d).kind != EventKind::kWdb) {
            continue;
        }
        // Peers: the PTE writes the rows do not place at another VA. A
        // peer at another VA has co(w, d) forced false by its class, which
        // collapses each clause below to the same-VA one.
        std::vector<EventId>& peers = peers_buf;
        peers.clear();
        for (EventId w = 0; w < n; ++w) {
            if (w != d && elt::is_pte_access(p->event(w).kind) &&
                elt::is_write_like(p->event(w).kind) &&
                !placed_apart(va[w], va[d])) {
                peers.push_back(w);
            }
        }
        // Coherence-first: no peer precedes d. Directly clausal, since
        // "not first" is a plain disjunction of co(w, d) literals.
        for (int v = 0; v < num_vas; ++v) {
            cl_begin();
            for (const EventId w : peers) {
                cl_pos(co.at(w, d));
            }
            cl_neg(va[d][v]);
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
            // immediate(w, d) = co(w, d) with nothing in between — the
            // one constraint here that is a genuine circuit; its
            // Tseitin literal compiles once and guards plain clauses.
            ExprId immediate = co.at(w, d);
            for (const EventId between : peers) {
                if (between != w) {
                    immediate = factory->mk_and(
                        immediate,
                        factory->mk_not(factory->mk_and(
                            co.at(w, between), co.at(between, d))));
                }
            }
            if (p->event(w).kind == EventKind::kWpte) {
                for (int k = 0; k < num_pas; ++k) {
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
    // co_pa: strict total order per target-PA class of Wptes, consistent
    // with co where both orders apply. A pair the rows place in different
    // classes gets no variable; otherwise the per-slot class-forcing
    // clause drives a cross-class pair false, and the totality clause only
    // fires within a class.
    std::vector<EventId>& wptes = events_buf;
    wptes.clear();
    for (EventId w = 0; w < n; ++w) {
        if (p->event(w).kind == EventKind::kWpte) {
            wptes.push_back(w);
        }
    }
    for (const EventId a : wptes) {
        for (const EventId b : wptes) {
            if (a != b && !placed_apart(pa[a], pa[b])) {
                co_pa.set(a, b, var());
            }
        }
    }
    for (const EventId a : wptes) {
        for (const EventId b : wptes) {
            if (a == b || co_pa.at(a, b) == rel::kFalseExpr) {
                continue;
            }
            for (int k = 0; k < num_pas; ++k) {
                cl_begin();
                cl_neg(co_pa.at(a, b));
                cl_neg(pa[a][k]);
                cl_pos(pa[b][k]);
                cl_end();
            }
            if (a < b) {
                // Strict total order per class: exactly one direction.
                // Totality comes first here, unlike co's, because the
                // encoding specialized to a program always emitted it so.
                for (int k = 0; k < num_pas; ++k) {
                    cl_begin();
                    cl_neg(pa[a][k]);
                    cl_neg(pa[b][k]);
                    cl_pos(co_pa.at(a, b));
                    cl_pos(co_pa.at(b, a));
                    cl_end();
                }
                cl_begin();
                cl_neg(co_pa.at(a, b));
                cl_neg(co_pa.at(b, a));
                cl_end();
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
            // co and co_pa agree where both apply: same VA (co compares
            // the pair) and same target PA (co_pa classes it).
            const ExprId both =
                factory->mk_and(va_eq(a, b), pa_equal(a, b));
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
EncodingBuilder::build_derived(unsigned needs)
{
    if (needs & kNeedRf) {
        rf.reset_empty(factory, n);
        for (EventId r = 0; r < n; ++r) {
            for (const auto& [w, guard] : rf_choice[r]) {
                rf.set(w, r, factory->mk_or(rf.at(w, r), guard));
            }
        }
    }
    if (needs & kNeedRfe) {
        rfe.reset_empty(factory, n);
        for (EventId r = 0; r < n; ++r) {
            for (const auto& [w, guard] : rf_choice[r]) {
                if (p->event(w).thread != p->event(r).thread) {
                    rfe.set(w, r, factory->mk_or(rfe.at(w, r), guard));
                }
            }
        }
    }
    // fr(r, w') = exists w: rf(w, r) & co(w, w')  |  init(r) & class(r, w').
    if (needs & kNeedFr) {
        fr.reset_empty(factory, n);
        for (EventId r = 0; r < n; ++r) {
            if (!elt::is_read_like(p->event(r).kind)) {
                continue;
            }
            for (EventId w2 = 0; w2 < n; ++w2) {
                if (!elt::is_write_like(p->event(w2).kind)) {
                    continue;
                }
                ExprId acc =
                    factory->mk_and(init_choice[r], same_class(r, w2));
                for (const auto& [w, guard] : rf_choice[r]) {
                    if (w != w2) {
                        acc = factory->mk_or(
                            acc, factory->mk_and(guard, co.at(w, w2)));
                    }
                }
                fr.set(r, w2, acc);
            }
        }
    }
    // po_loc over extended order.
    if (needs & kNeedPoLoc) {
        po_loc.reset_empty(factory, n);
        for (EventId a = 0; a < n; ++a) {
            for (EventId b = 0; b < n; ++b) {
                if (a != b && elt::is_memory(p->event(a).kind) &&
                    elt::is_memory(p->event(b).kind) && p->precedes(a, b)) {
                    po_loc.set(a, b, same_class(a, b));
                }
            }
        }
    }
    // Constants: po (transitive), po_mem, remap, ppo, fence, rmw, ghost.
    if (needs & kNeedPoConst) {
        po_const.reset_empty(factory, n);
        for (int t = 0; t < p->num_threads(); ++t) {
            const auto& seq = p->thread(t);
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
        po_mem_const.reset_empty(factory, n);
        for (EventId a = 0; a < n; ++a) {
            for (EventId b = 0; b < n; ++b) {
                if (a != b && elt::is_memory(p->event(a).kind) &&
                    elt::is_memory(p->event(b).kind) && p->precedes(a, b)) {
                    po_mem_const.set(a, b, rel::kTrueExpr);
                }
            }
        }
    }
    if (needs & kNeedRemapConst) {
        remap_const.reset_empty(factory, n);
        for (EventId i = 0; i < n; ++i) {
            const Event& e = p->event(i);
            if (e.kind == EventKind::kInvlpg && e.remap_src != kNone) {
                remap_const.set(e.remap_src, i, rel::kTrueExpr);
            }
        }
    }
    if (needs & kNeedRmwConst) {
        rmw_const.reset_empty(factory, n);
        for (const auto& [r, w] : p->rmw_pairs()) {
            rmw_const.set(r, w, rel::kTrueExpr);
        }
    }
    if (needs & kNeedGhostConst) {
        ghost_const.reset_empty(factory, n);
        for (EventId i = 0; i < n; ++i) {
            if (elt::is_ghost(p->event(i).kind)) {
                ghost_const.set(p->event(i).parent, i, rel::kTrueExpr);
            }
        }
    }
    if (needs & kNeedPpoFenceConst) {
        ppo_const.reset_empty(factory, n);
        fence_const.reset_empty(factory, n);
        for (EventId a = 0; a < n; ++a) {
            for (EventId b = 0; b < n; ++b) {
                if (a == b || !elt::is_memory(p->event(a).kind) ||
                    !elt::is_memory(p->event(b).kind) || !p->precedes(a, b)) {
                    continue;
                }
                if (!(elt::is_write_like(p->event(a).kind) &&
                      elt::is_read_like(p->event(b).kind))) {
                    ppo_const.set(a, b, rel::kTrueExpr);
                }
                for (EventId f = 0; f < n; ++f) {
                    if (p->event(f).kind == EventKind::kMfence &&
                        p->precedes(a, f) && p->precedes(f, b)) {
                        fence_const.set(a, b, rel::kTrueExpr);
                        break;
                    }
                }
            }
        }
    }
    if (!vm) {
        // A non-VM model may still carry VM axioms (Model is an open
        // "define your own MTM" API): their relations are simply empty
        // here, exactly as the eager builder produced them.
        if (needs & (kNeedRfPtw | kNeedPtwSource)) {
            rf_ptw_rel.reset_empty(factory, n);
            ptw_source.reset_empty(factory, n);
        }
        if (needs & kNeedRfPa) {
            rf_pa.reset_empty(factory, n);
        }
        if (needs & kNeedFrVa) {
            fr_va.reset_empty(factory, n);
        }
        if (needs & kNeedFrPa) {
            fr_pa.reset_empty(factory, n);
        }
        return;
    }

    if (needs & (kNeedRfPtw | kNeedPtwSource)) {
        rf_ptw_rel.reset_empty(factory, n);
        ptw_source.reset_empty(factory, n);
        for (EventId e = 0; e < n; ++e) {
            for (const auto& [walk, guard] : ptw_choice[e]) {
                rf_ptw_rel.set(walk, e,
                               factory->mk_or(rf_ptw_rel.at(walk, e), guard));
                const EventId walker = p->event(walk).parent;
                if (walker != e) {
                    ptw_source.set(
                        walker, e,
                        factory->mk_or(ptw_source.at(walker, e), guard));
                }
            }
        }
    }
    if (needs & kNeedRfPa) {
        rf_pa.reset_empty(factory, n);
        for (EventId e = 0; e < n; ++e) {
            if (!elt::is_data_access(p->event(e).kind)) {
                continue;
            }
            for (const auto& [wpte, flag] : prov[e]) {
                rf_pa.set(wpte, e, flag);
            }
        }
    }
    // fr_va: later Wptes (in PTE-location coherence) remapping e's VA.
    if (needs & kNeedFrVa) {
        fr_va.reset_empty(factory, n);
        for (EventId e = 0; e < n; ++e) {
            if (!elt::is_data_access(p->event(e).kind)) {
                continue;
            }
            for (EventId w2 = 0; w2 < n; ++w2) {
                if (p->event(w2).kind != EventKind::kWpte ||
                    placed_apart(va[e], va[w2])) {
                    continue;
                }
                ExprId acc = prov_init[e];
                for (const auto& [wpte, flag] : prov[e]) {
                    if (wpte != w2) {
                        acc = factory->mk_or(
                            acc, factory->mk_and(flag, co.at(wpte, w2)));
                    }
                }
                fr_va.set(e, w2, factory->mk_and(va_eq(e, w2), acc));
            }
        }
    }
    // fr_pa: co_pa-successors of the provenance (initial mapping
    // precedes every alias creation for its PA). co_pa is false across
    // target-PA classes, so no class filter is needed.
    if (needs & kNeedFrPa) {
        fr_pa.reset_empty(factory, n);
        for (EventId e = 0; e < n; ++e) {
            if (!elt::is_data_access(p->event(e).kind)) {
                continue;
            }
            for (EventId w2 = 0; w2 < n; ++w2) {
                if (p->event(w2).kind != EventKind::kWpte) {
                    continue;
                }
                ExprId acc = factory->mk_and(prov_init[e], pa_equal(e, w2));
                for (const auto& [wpte, flag] : prov[e]) {
                    if (wpte != w2) {
                        acc = factory->mk_or(
                            acc, factory->mk_and(flag, co_pa.at(wpte, w2)));
                    }
                }
                fr_pa.set(e, w2, acc);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Axiom circuits: `.mtm` expressions lowered over the circuits above.
// ----------------------------------------------------------------------

const RelExpr&
EncodingBuilder::base_circuit(spec::BaseRel base) const
{
    // Resolved through the same table that produced the need bits, so a
    // circuit can never be read without having been (re)built for this
    // build.
    return this->*(base_rel_info(base).circuit);
}

ExprId
EncodingBuilder::axiom_circuit(const Axiom& axiom)
{
    return form_circuit(
        axiom.def->form,
        lower_expr(
            *axiom.def->expr, *p, factory,
            [this](spec::BaseRel base) -> const RelExpr& {
                return base_circuit(base);
            },
            &expr_memo),
        factory);
}

}  // namespace transform::mtm
