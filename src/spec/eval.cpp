#include "spec/eval.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace transform::spec {

using elt::CycleScratch;
using elt::DerivedRelations;
using elt::EdgeSet;
using elt::EventId;
using elt::EventKind;
using elt::Program;

bool
event_in_set(EventSet set, EventKind kind)
{
    switch (set) {
    case EventSet::kRead:
        return elt::is_read_like(kind);
    case EventSet::kWrite:
        return elt::is_write_like(kind);
    case EventSet::kMemory:
        return elt::is_memory(kind);
    case EventSet::kData:
        return elt::is_data_access(kind);
    case EventSet::kPte:
        return elt::is_pte_access(kind);
    case EventSet::kFence:
        return kind == EventKind::kMfence;
    case EventSet::kWpte:
        return kind == EventKind::kWpte;
    case EventSet::kInvlpg:
        return elt::is_tlb_invalidation(kind);
    case EventSet::kRptw:
        return kind == EventKind::kRptw;
    case EventSet::kWdb:
        return kind == EventKind::kWdb;
    case EventSet::kRdb:
        return kind == EventKind::kRdb;
    case EventSet::kGhost:
        return elt::is_ghost(kind);
    case EventSet::kUser:
        return elt::is_user(kind);
    }
    TF_PANIC("unknown event set");
}

namespace {

using elt::BitRow;

/// Pool-slot handles are indices: CycleScratch::spec_pool may reallocate
/// while children evaluate, so references must be re-fetched through the
/// evaluator after any acquire.
using Slot = std::size_t;

struct Evaluator {
    const Program& p;
    const DerivedRelations& d;
    CycleScratch& scratch;
    const int n;

    static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

    /// Pinned results for `let` bodies, keyed by body node. The AST is a
    /// DAG only through lets (the parser shares each body across its
    /// references), so evaluating every distinct body once — pinned below
    /// the expression stack, copied on reference — makes evaluation linear
    /// in the DAG instead of exponential in the let-chain depth.
    std::size_t
    pinned_slot(const Expr* body) const
    {
        for (const auto& [key, slot] : scratch.spec_memo) {
            if (key == body) {
                return slot;
            }
        }
        return kNoSlot;
    }

    /// Evaluates and pins every distinct let body reachable from \p e,
    /// dependencies first (a body may reference earlier lets). Each pinned
    /// slot stays live until the caller unwinds the arena.
    void
    pin_let_bodies(const Expr& e)
    {
        if (e.op == ExprOp::kLetRef) {
            const Expr* body = e.lhs.get();
            if (pinned_slot(body) == kNoSlot) {
                pin_let_bodies(*body);
                const Slot slot = eval(*body);
                scratch.spec_memo.emplace_back(body, slot);
            }
            return;
        }
        if (e.lhs != nullptr) {
            pin_let_bodies(*e.lhs);
        }
        if (e.rhs != nullptr) {
            pin_let_bodies(*e.rhs);
        }
    }

    /// A fresh slot holding the empty relation.
    Slot
    acquire()
    {
        if (scratch.spec_pool_live == scratch.spec_pool.size()) {
            scratch.spec_pool.emplace_back();
        }
        const Slot slot = scratch.spec_pool_live++;
        std::fill_n(at(slot), n, BitRow{0});
        return slot;
    }

    BitRow*
    at(Slot slot)
    {
        return scratch.spec_pool[slot].data();
    }

    /// The base relation's rows. po_mem is synthesized from the program (no
    /// DerivedRelations field stores it); everything else ORs in the edges
    /// of the corresponding derived field.
    void
    base_into(BaseRel base, BitRow* out) const
    {
        const EdgeSet* source = nullptr;
        switch (base) {
        case BaseRel::kPo: source = &d.po; break;
        case BaseRel::kPoLoc: source = &d.po_loc; break;
        case BaseRel::kRf: source = &d.rf; break;
        case BaseRel::kRfe: source = &d.rfe; break;
        case BaseRel::kCo: source = &d.co; break;
        case BaseRel::kFr: source = &d.fr; break;
        case BaseRel::kPpo: source = &d.ppo; break;
        case BaseRel::kFence: source = &d.fence; break;
        case BaseRel::kRmw: source = &d.rmw; break;
        case BaseRel::kGhost: source = &d.ghost; break;
        case BaseRel::kRfPtw: source = &d.rf_ptw; break;
        case BaseRel::kRfPa: source = &d.rf_pa; break;
        case BaseRel::kCoPa: source = &d.co_pa; break;
        case BaseRel::kFrPa: source = &d.fr_pa; break;
        case BaseRel::kFrVa: source = &d.fr_va; break;
        case BaseRel::kRemap: source = &d.remap; break;
        case BaseRel::kPtwSource: source = &d.ptw_source; break;
        case BaseRel::kPoMem:
            for (EventId a = 0; a < n; ++a) {
                if (!elt::is_memory(p.event(a).kind)) {
                    continue;
                }
                for (EventId b = 0; b < n; ++b) {
                    if (a != b && elt::is_memory(p.event(b).kind) &&
                        p.precedes(a, b)) {
                        out[a] |= BitRow{1} << b;
                    }
                }
            }
            return;
        }
        TF_ASSERT(source != nullptr);
        for (const auto& [from, to] : *source) {
            out[from] |= BitRow{1} << to;
        }
    }

    /// Evaluates \p e into a freshly acquired slot and returns it. Child
    /// slots are released before returning, so the live-slot high-water
    /// mark tracks expression depth, not node count.
    Slot
    eval(const Expr& e)
    {
        switch (e.op) {
        case ExprOp::kBase: {
            const Slot out = acquire();
            base_into(e.base, at(out));
            return out;
        }
        case ExprOp::kEmpty:
            return acquire();
        case ExprOp::kIdSet: {
            const Slot out = acquire();
            BitRow* rows = at(out);
            for (EventId a = 0; a < n; ++a) {
                if (event_in_set(e.set, p.event(a).kind)) {
                    rows[a] = BitRow{1} << a;
                }
            }
            return out;
        }
        case ExprOp::kUnion:
        case ExprOp::kIntersect:
        case ExprOp::kMinus:
        case ExprOp::kJoin: {
            const Slot lhs = eval(*e.lhs);
            const Slot rhs = eval(*e.rhs);
            combine(e.op, at(lhs), at(rhs));
            release_to(lhs + 1);
            return lhs;
        }
        case ExprOp::kTranspose: {
            const Slot inner = eval(*e.lhs);
            const Slot out = acquire();
            const BitRow* rows = at(inner);
            BitRow* transposed = at(out);
            for (EventId a = 0; a < n; ++a) {
                for (BitRow bits = rows[a]; bits != 0; bits &= bits - 1) {
                    transposed[std::countr_zero(bits)] |= BitRow{1} << a;
                }
            }
            std::copy_n(transposed, n, at(inner));
            release_to(inner + 1);
            return inner;
        }
        case ExprOp::kClosure: {
            const Slot inner = eval(*e.lhs);
            close_transitively(at(inner));
            return inner;
        }
        case ExprOp::kReflexiveClosure: {
            const Slot inner = eval(*e.lhs);
            BitRow* rows = at(inner);
            close_transitively(rows);
            for (EventId a = 0; a < n; ++a) {
                rows[a] |= BitRow{1} << a;
            }
            return inner;
        }
        case ExprOp::kLetRef: {
            const std::size_t pinned = pinned_slot(e.lhs.get());
            if (pinned != kNoSlot) {
                const Slot out = acquire();
                std::copy_n(at(pinned), n, at(out));
                return out;
            }
            // Unpinned bodies only occur when eval is entered without the
            // pin pass (never through the public entry points).
            return eval(*e.lhs);
        }
        }
        TF_PANIC("unknown expression op");
    }

    void
    release_to(Slot mark)
    {
        scratch.spec_pool_live = mark;
    }

    /// lhs = lhs <op> rhs, row by row. For the join, (lhs ; rhs) row a is
    /// the union of the rhs rows lhs row a selects; it reads only lhs row
    /// a, so it can overwrite lhs in place.
    void
    combine(ExprOp op, BitRow* lhs, const BitRow* rhs) const
    {
        for (EventId a = 0; a < n; ++a) {
            switch (op) {
            case ExprOp::kUnion: lhs[a] |= rhs[a]; break;
            case ExprOp::kIntersect: lhs[a] &= rhs[a]; break;
            case ExprOp::kMinus: lhs[a] &= ~rhs[a]; break;
            case ExprOp::kJoin: {
                BitRow joined = 0;
                for (BitRow bits = lhs[a]; bits != 0; bits &= bits - 1) {
                    joined |= rhs[std::countr_zero(bits)];
                }
                lhs[a] = joined;
                break;
            }
            default: TF_PANIC("not a binary relation operator");
            }
        }
    }

    /// Transitive closure in place (Warshall's algorithm on rows): after
    /// step k, row a reaches everything reachable through intermediate
    /// nodes 0..k.
    void
    close_transitively(BitRow* rows) const
    {
        for (EventId k = 0; k < n; ++k) {
            const BitRow via = BitRow{1} << k;
            for (EventId a = 0; a < n; ++a) {
                if (rows[a] & via) {
                    rows[a] |= rows[k];
                }
            }
        }
    }
};

}  // namespace

bool
axiom_holds(const AxiomDef& axiom, const Program& program,
            const DerivedRelations& d, CycleScratch* scratch)
{
    CycleScratch local;
    if (scratch == nullptr) {
        scratch = &local;
    }
    const int n = program.num_events();
    TF_ASSERT(n <= elt::kMaxBitEvents);
    const std::size_t mark = scratch->spec_pool_live;
    const std::size_t memo_mark = scratch->spec_memo.size();
    Evaluator eval{program, d, *scratch, n};
    eval.pin_let_bodies(*axiom.expr);
    const BitRow* rows = eval.at(eval.eval(*axiom.expr));
    bool holds = true;
    switch (axiom.form) {
    case AxiomForm::kAcyclic:
        holds = !elt::rows_have_cycle(rows, n);
        break;
    case AxiomForm::kIrreflexive:
        for (EventId a = 0; a < n && holds; ++a) {
            holds = (rows[a] & (BitRow{1} << a)) == 0;
        }
        break;
    case AxiomForm::kEmpty:
        holds = std::all_of(rows, rows + n,
                            [](BitRow row) { return row == 0; });
        break;
    }
    scratch->spec_memo.resize(memo_mark);
    scratch->spec_pool_live = mark;
    return holds;
}

void
eval_expr(const Expr& expr, const Program& program,
          const DerivedRelations& d, CycleScratch* scratch, EdgeSet* out)
{
    CycleScratch local;
    if (scratch == nullptr) {
        scratch = &local;
    }
    const int n = program.num_events();
    TF_ASSERT(n <= elt::kMaxBitEvents);
    const std::size_t mark = scratch->spec_pool_live;
    const std::size_t memo_mark = scratch->spec_memo.size();
    Evaluator eval{program, d, *scratch, n};
    eval.pin_let_bodies(expr);
    const BitRow* rows = eval.at(eval.eval(expr));
    // Row by row, low bits first: the sorted, duplicate-free edge order.
    out->clear();
    for (EventId a = 0; a < n; ++a) {
        for (BitRow bits = rows[a]; bits != 0; bits &= bits - 1) {
            out->emplace_back(a, std::countr_zero(bits));
        }
    }
    scratch->spec_memo.resize(memo_mark);
    scratch->spec_pool_live = mark;
}

}  // namespace transform::spec
