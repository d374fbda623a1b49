/// \file
/// The one constraint builder behind both SAT front-ends, and what it
/// shares with them: the fresh per-query encoding (ProgramEncoding,
/// encoding.cpp) and the incremental probe session (IncrementalEncoding,
/// incremental.cpp) build a program's execution space through
/// EncodingBuilder (encoding_builder.cpp) and differ only in how they
/// fill its placement rows. Not part of the public API.
#pragma once

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "elt/event.h"
#include "elt/program.h"
#include "rel/bool_factory.h"
#include "rel/relation.h"
#include "sat/solver.h"
#include "spec/ast.h"
#include "spec/eval.h"
#include "util/logging.h"

namespace transform::mtm {

struct Axiom;

/// Which derived-relation circuits a query needs. The placement
/// constraints and choice variables are always built (they define the
/// execution space and the CNF the solver sees); the derived circuits are
/// pure factory nodes referenced only by axiom circuits, so building just
/// the ones the queried axioms touch skips megabytes of dead circuit per
/// program without changing the solver's clause stream at all.
enum RelNeed : unsigned {
    kNeedRf = 1u << 0,
    kNeedRfe = 1u << 1,
    kNeedFr = 1u << 2,
    kNeedPoLoc = 1u << 3,
    kNeedRfPtw = 1u << 4,
    kNeedPtwSource = 1u << 5,
    kNeedRfPa = 1u << 6,
    kNeedFrPa = 1u << 7,
    kNeedFrVa = 1u << 8,
    kNeedPoConst = 1u << 9,
    kNeedRemapConst = 1u << 10,
    kNeedPpoFenceConst = 1u << 11,
    kNeedPoMemConst = 1u << 12,
    kNeedRmwConst = 1u << 13,
    kNeedGhostConst = 1u << 14,
};

/// The relations axiom_circuit(axiom) touches.
unsigned needs_for(const Axiom& axiom);

/// The circuit stating that \p form holds of \p r: the last step of
/// EncodingBuilder::axiom_circuit.
rel::ExprId form_circuit(spec::AxiomForm form, const rel::RelExpr& r,
                         rel::BoolFactory* factory);

/// Per-build memo of lowered `let` bodies, keyed by body.
using ExprMemo = std::vector<std::pair<const spec::Expr*, rel::RelExpr>>;

/// Lowers a `.mtm` expression to a circuit over \p program's events — the
/// symbolic counterpart of spec/eval.cpp, behind
/// EncodingBuilder::axiom_circuit. \p base maps a base relation to the
/// builder's circuit for it (read in place, never copied into an
/// operand); the operators map 1:1 onto rel::RelExpr's algebra. A `let`
/// body compiles once per build (\p memo), so an expression whose lets
/// make it a DAG lowers in time linear in the DAG.
template <typename Base>
rel::RelExpr
lower_expr(const spec::Expr& e, const elt::Program& program,
           rel::BoolFactory* factory, const Base& base, ExprMemo* memo)
{
    const int n = program.num_events();
    // An operand's circuit: a base circuit in place, anything else
    // lowered into *storage.
    const auto operand = [&](const spec::Expr& child,
                             rel::RelExpr* storage) -> const rel::RelExpr& {
        if (child.op == spec::ExprOp::kBase) {
            return base(child.base);
        }
        *storage = lower_expr(child, program, factory, base, memo);
        return *storage;
    };
    rel::RelExpr lhs_storage;
    rel::RelExpr rhs_storage;
    switch (e.op) {
    case spec::ExprOp::kBase:
        return base(e.base);
    case spec::ExprOp::kEmpty:
        return rel::RelExpr::empty(factory, n);
    case spec::ExprOp::kIdSet: {
        rel::RelExpr id = rel::RelExpr::empty(factory, n);
        for (elt::EventId a = 0; a < n; ++a) {
            if (spec::event_in_set(e.set, program.event(a).kind)) {
                id.set(a, a, rel::kTrueExpr);
            }
        }
        return id;
    }
    case spec::ExprOp::kUnion:
    case spec::ExprOp::kIntersect:
    case spec::ExprOp::kMinus:
    case spec::ExprOp::kJoin: {
        const rel::RelExpr& lhs = operand(*e.lhs, &lhs_storage);
        const rel::RelExpr& rhs = operand(*e.rhs, &rhs_storage);
        switch (e.op) {
        case spec::ExprOp::kUnion:
            return lhs.rel_union(factory, rhs);
        case spec::ExprOp::kIntersect:
            return lhs.rel_intersect(factory, rhs);
        case spec::ExprOp::kMinus:
            return lhs.rel_minus(factory, rhs);
        default:
            return lhs.join(factory, rhs);
        }
    }
    case spec::ExprOp::kTranspose:
        return operand(*e.lhs, &lhs_storage).transpose(factory);
    case spec::ExprOp::kClosure:
        return operand(*e.lhs, &lhs_storage).closure(factory);
    case spec::ExprOp::kReflexiveClosure:
        return operand(*e.lhs, &lhs_storage)
            .closure(factory)
            .rel_union(factory, rel::RelExpr::identity(factory, n));
    case spec::ExprOp::kLetRef: {
        const spec::Expr* body = e.lhs.get();
        for (const auto& [key, circuit] : *memo) {
            if (key == body) {
                return circuit;
            }
        }
        rel::RelExpr circuit = lower_expr(*body, program, factory, base, memo);
        memo->emplace_back(body, circuit);
        return circuit;
    }
    }
    TF_PANIC("unknown expression op");
}

/// Flat replacement for the per-event std::map<EventId, ExprId> choice
/// maps: every builder loop inserts keys in ascending order, so the vector
/// stays sorted, lookups are binary searches, and — the point — clearing
/// keeps the node storage that a std::map would free per program.
struct ChoiceMap {
    std::vector<std::pair<elt::EventId, rel::ExprId>> kv;

    void clear() { kv.clear(); }
    bool empty() const { return kv.empty(); }

    /// Keys must arrive in strictly ascending order (asserted in debug).
    void
    insert(elt::EventId key, rel::ExprId value)
    {
        TF_ASSERT(kv.empty() || kv.back().first < key);
        kv.emplace_back(key, value);
    }

    /// Pointer to the value for \p key, or nullptr.
    const rel::ExprId*
    find(elt::EventId key) const
    {
        const auto it = std::lower_bound(
            kv.begin(), kv.end(), key,
            [](const std::pair<elt::EventId, rel::ExprId>& entry,
               elt::EventId k) { return entry.first < k; });
        return it != kv.end() && it->first == key ? &it->second : nullptr;
    }

    rel::ExprId
    at(elt::EventId key) const
    {
        const rel::ExprId* value = find(key);
        TF_ASSERT(value != nullptr);
        return *value;
    }

    auto begin() const { return kv.begin(); }
    auto end() const { return kv.end(); }
};

/// Events that carry a virtual address, i.e. that get a VA placement row.
constexpr bool
has_va(elt::EventKind kind)
{
    return kind != elt::EventKind::kMfence &&
           kind != elt::EventKind::kInvlpgAll;
}

/// The relational encoding of one program's execution space: choice
/// variables for the communication witnesses, the placement rules of
/// section IV-A as clauses, and the Table-I relations as circuits, built
/// into a caller-owned factory and solver.
///
/// Everything the builder knows about placement it reads through one-hot
/// *placement rows*: va[e] (every event with has_va) and, under VM, the
/// target-PA row pa[e] of every Wpte. The fresh encoding fills them with
/// constants (kTrueExpr at the event's va or map_pa), the probe with
/// selector variables that each candidate pins by assumption. The factory
/// folds constants, so over constant rows every VA guard folds to
/// kTrueExpr or kFalseExpr and a target-PA guard folds to the fresh
/// encoding's own literal (pa_equal(e, w) is pa[e][map_pa]).
///
/// Guard discipline: a pair's placement guard is settled before anything
/// is built for it. A pair the rows already place apart (placed_apart),
/// or a walk they place with an evicting INVLPG (placed_together), gets
/// no choice variable and no circuit node, exactly as in an encoding
/// specialized to the program. Every other pair gets its variable first
/// and then the clause "variable -> guard", which a kTrueExpr guard
/// drops. So over constant rows the builder creates the specialized
/// encoding's variables and clauses, with the same literals, in the same
/// order, and over selector rows, where only the candidate's pins decide
/// a guard, the superset encoding's. Skipping reads the rows and builds
/// nothing, which keeps a selector build's circuits in first-use order.
struct EncodingBuilder {
    /// Binds \p f and \p s for one build of \p program and resets both,
    /// along with every row and circuit below. VA rows span \p vas slots,
    /// PA rows \p pas (at least \p vas: VA i initially maps to PA i). The
    /// caller fills va[e] for every has_va event, then calls build().
    /// \p program must outlive the build's last call (axiom_circuit); the
    /// rows, choice variables and circuits stay readable after it.
    void begin(const elt::Program& program, bool vm_aware, int vas, int pas,
               rel::BoolFactory* f, sat::Solver* s);

    /// Builds the choice variables, address resolution, coherence and the
    /// derived circuits \p needs asks for. Under VM, \p target_pa fills
    /// pa[w] for each Wpte w, at its turn among the memory events' rows.
    void build(unsigned needs,
               const std::function<void(elt::EventId)>& target_pa);

    /// Circuit stating that \p axiom holds.
    rel::ExprId axiom_circuit(const Axiom& axiom);

    // Clause primitives. Nearly every placement constraint is a 2- or
    // 3-literal clause over choice variables; they go straight into the
    // solver through one reused buffer instead of through a circuit and
    // its Tseitin variable. Constants fold: a true term drops the clause,
    // a false term drops out of it. A non-variable term compiles once
    // (memoized) to its Tseitin literal.
    rel::ExprId var();
    void cl_begin();
    void cl_pos(rel::ExprId e);
    void cl_neg(rel::ExprId e);
    void cl_end();
    /// One at-least-one clause plus pairwise at-most-one clauses. An empty
    /// option list yields the empty clause, i.e. unsatisfiable.
    void assert_exactly_one(const std::vector<rel::ExprId>& options);

    // Inputs of the current build (bound by begin()).
    const elt::Program* p = nullptr;
    int n = 0;
    bool vm = false;
    int num_vas = 0;
    int num_pas = 0;
    rel::BoolFactory* factory = nullptr;
    sat::Solver* solver = nullptr;

    // Placement rows (see the struct comment).
    std::vector<std::vector<rel::ExprId>> va;
    /// pa[e][k]: the one-hot resolved PA of a memory event; a Wpte's row is
    /// its target-PA placement row.
    std::vector<std::vector<rel::ExprId>> pa;

    // Choice variables. rf_choice[r]: write -> variable, init_choice[r]
    // for the initial state; ptw_choice[e]: walk -> variable (data
    // accesses); prov[e]: Wpte -> variable, plus prov_init[e] (memory
    // events other than Wptes).
    std::vector<ChoiceMap> rf_choice;
    std::vector<rel::ExprId> init_choice;
    std::vector<ChoiceMap> ptw_choice;
    std::vector<ChoiceMap> prov;
    std::vector<rel::ExprId> prov_init;

    /// Coherence order over write-like events; alias-creation order over
    /// Wptes.
    rel::RelExpr co, co_pa;

    // Derived circuits (built as needs asks).
    rel::RelExpr rf, fr, po_loc, rfe, rf_ptw_rel, ptw_source, rf_pa, fr_pa,
        fr_va;
    rel::RelExpr po_const, remap_const, ppo_const, fence_const;
    rel::RelExpr po_mem_const, rmw_const, ghost_const;

    /// Memo for lower_expr, cleared per build.
    ExprMemo expr_memo;

  private:
    /// True when the rows fix \p x and \p y to different slots, or to
    /// the same one. Only constant rows fix a slot, and reading them
    /// builds nothing.
    static bool placed_apart(const std::vector<rel::ExprId>& x,
                             const std::vector<rel::ExprId>& y);
    static bool placed_together(const std::vector<rel::ExprId>& x,
                                const std::vector<rel::ExprId>& y);
    /// Circuit: \p a and \p b share a VA (kFalseExpr when either has no
    /// row). Built on first use and memoized per pair.
    rel::ExprId va_eq(elt::EventId a, elt::EventId b);
    /// Circuit: the PA rows of \p a and \p b select the same slot.
    rel::ExprId pa_equal(elt::EventId a, elt::EventId b);
    /// Asserts guard -> pa[a] == pa[b] and guard -> prov[a] == prov[b].
    void link_pa(rel::ExprId guard, elt::EventId a, elt::EventId b);
    void link_prov(rel::ExprId guard, elt::EventId a, elt::EventId b);
    /// Circuit: \p a and \p b access the same coherence location.
    rel::ExprId same_class(elt::EventId a, elt::EventId b);
    const rel::RelExpr& base_circuit(spec::BaseRel base) const;

    void build_choices();
    void build_address_resolution(
        const std::function<void(elt::EventId)>& target_pa);
    void build_coherence();
    void build_derived(unsigned needs);

    /// Symmetric n*n memo of va_eq circuits; va_eq_built marks a pair's
    /// construction, so pairs no constraint touches never build one.
    std::vector<rel::ExprId> va_eq_tab;
    std::vector<char> va_eq_built;

    std::vector<sat::Lit> clause_buf;
    bool clause_sat = false;
    std::vector<rel::ExprId> options_buf;
    std::vector<elt::EventId> events_buf;  ///< writes / Wptes scans
    std::vector<elt::EventId> peers_buf;   ///< same-location peers per Wdb
};

}  // namespace transform::mtm
