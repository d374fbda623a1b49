/// \file
/// Internals shared by the two SAT encodings of a program's execution
/// space: the per-query fresh encoding (encoding.cpp) and the incremental
/// assumption-based session (incremental.cpp). Not part of the public API.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "elt/event.h"
#include "elt/program.h"
#include "rel/bool_factory.h"
#include "rel/relation.h"
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

/// The relations axiom_circuit(axiom) touches (defined in encoding.cpp).
unsigned needs_for(const Axiom& axiom);

/// The circuit stating that \p form holds of \p r: the last step of
/// both encoders' axiom_circuit (defined in encoding.cpp).
rel::ExprId form_circuit(spec::AxiomForm form, const rel::RelExpr& r,
                         rel::BoolFactory* factory);

/// Per-query memo of lowered `let` bodies, keyed by body.
using ExprMemo = std::vector<std::pair<const spec::Expr*, rel::RelExpr>>;

/// Lowers a `.mtm` expression to a circuit over \p program's events — the
/// symbolic counterpart of spec/eval.cpp, shared by both encoders. \p base
/// maps a base relation to the encoder's circuit for it (read in place,
/// never copied into an operand); the operators map 1:1 onto
/// rel::RelExpr's algebra. A `let` body compiles once per query
/// (\p memo), so an expression whose lets make it a DAG lowers in time
/// linear in the DAG.
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

}  // namespace transform::mtm
