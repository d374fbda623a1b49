#include "spec/eval.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>

#include "util/logging.h"

namespace transform::spec {

using elt::BitRow;
using elt::BitRows;
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

/// The DerivedRelations field of every base relation, in BaseRel order —
/// the operand numbers RowProgram gives base relations.
constexpr BitRows DerivedRelations::*kBaseRows[] = {
    &DerivedRelations::po,     &DerivedRelations::po_loc,
    &DerivedRelations::po_mem, &DerivedRelations::rf,
    &DerivedRelations::rfe,    &DerivedRelations::co,
    &DerivedRelations::fr,     &DerivedRelations::ppo,
    &DerivedRelations::fence,  &DerivedRelations::rmw,
    &DerivedRelations::ghost,  &DerivedRelations::rf_ptw,
    &DerivedRelations::rf_pa,  &DerivedRelations::co_pa,
    &DerivedRelations::fr_pa,  &DerivedRelations::fr_va,
    &DerivedRelations::remap,  &DerivedRelations::ptw_source,
};
constexpr int kNumBases = static_cast<int>(std::size(kBaseRows));
static_assert(static_cast<int>(BaseRel::kPtwSource) == kNumBases - 1);

constexpr int kNumEventKinds = static_cast<int>(EventKind::kRdb) + 1;

/// A union ORs its operands into dst this many at a time; a short last
/// group reads kZeroRows for the missing operands.
constexpr int kUnionGroup = 4;
constexpr BitRows kZeroRows{};

/// dst = the union of \p count operands, whose rows \p rows resolves, row
/// by row and kUnionGroup operands at a time, each operand resolved once.
/// The first group reads row a of each operand before it writes dst's row
/// a, so dst may be the first operand.
template <typename Rows>
void
or_operands(BitRow* dst, const int* operands, int count, int n,
            const Rows& rows)
{
    static_assert(kUnionGroup == 4);
    for (int begin = 0; begin < count; begin += kUnionGroup) {
        const BitRow* o[kUnionGroup];
        for (int i = 0; i < kUnionGroup; ++i) {
            o[i] = begin + i < count ? rows(operands[begin + i])
                                     : kZeroRows.data();
        }
        for (EventId a = 0; a < n; ++a) {
            dst[a] = (begin == 0 ? 0 : dst[a]) | o[0][a] | o[1][a] | o[2][a] |
                     o[3][a];
        }
    }
}

/// Transitive closure in place (Warshall's algorithm on rows): after step
/// k, row a reaches everything reachable through intermediate nodes 0..k.
void
close_transitively(BitRow* rows, int n)
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

/// True when \p form holds of the relation \p rows over \p n events.
bool
form_holds(AxiomForm form, const BitRow* rows, int n)
{
    switch (form) {
    case AxiomForm::kAcyclic:
        return !elt::rows_have_cycle(rows, n);
    case AxiomForm::kIrreflexive:
        for (EventId a = 0; a < n; ++a) {
            if (rows[a] & (BitRow{1} << a)) {
                return false;
            }
        }
        return true;
    case AxiomForm::kEmpty:
        return std::all_of(rows, rows + n, [](BitRow row) { return row == 0; });
    }
    TF_PANIC("unknown axiom form");
}

}  // namespace

/// Lowers one expression into a RowProgram. A slot whose value only one
/// operation reads (a temporary) may take that operation's result in
/// place; a slot holding a `let` body used more than once is pinned.
struct RowProgram::Lowering {
    RowProgram& out;
    /// References to each `let` body in the expression's DAG.
    std::vector<std::pair<const Expr*, int>> uses;
    /// Operands of the let bodies lowered so far.
    std::vector<std::pair<const Expr*, int>> lowered;
    std::vector<bool> pinned;  ///< per slot

    static int*
    find(std::vector<std::pair<const Expr*, int>>& table, const Expr* key)
    {
        for (auto& [expr, value] : table) {
            if (expr == key) {
                return &value;
            }
        }
        return nullptr;
    }

    /// Counts let references, entering each body once (as lowering does).
    void
    count_uses(const Expr& e)
    {
        if (e.op == ExprOp::kLetRef) {
            if (int* count = find(uses, e.lhs.get())) {
                ++*count;
                return;
            }
            uses.emplace_back(e.lhs.get(), 1);
            count_uses(*e.lhs);
            return;
        }
        if (e.lhs != nullptr) {
            count_uses(*e.lhs);
        }
        if (e.rhs != nullptr) {
            count_uses(*e.rhs);
        }
    }

    bool
    inlined(const Expr& e)
    {
        return e.op == ExprOp::kLetRef && *find(uses, e.lhs.get()) == 1;
    }

    int
    new_slot()
    {
        pinned.push_back(false);
        return kNumBases + out.num_slots_++;
    }

    bool
    is_temp(int operand) const
    {
        return operand >= kNumBases && !pinned[operand - kNumBases];
    }

    void
    emit(Code code, int dst, int lhs = 0, int rhs = 0)
    {
        out.ops_.push_back({code, dst, lhs, rhs});
    }

    /// The operands of a union tree, looking through inlined lets.
    void
    union_leaves(const Expr& e, std::vector<int>* leaves)
    {
        if (e.op == ExprOp::kUnion) {
            union_leaves(*e.lhs, leaves);
            union_leaves(*e.rhs, leaves);
        } else if (inlined(e)) {
            union_leaves(*e.lhs, leaves);
        } else {
            leaves->push_back(lower(e));
        }
    }

    /// \p e with inlined let references stripped.
    const Expr&
    through_inlined(const Expr& e)
    {
        return inlined(e) ? through_inlined(*e.lhs) : e;
    }

    /// `(A ; B) & C` as one operation that joins only the rows C keeps.
    /// Row a reads A's and C's row a and every row of B, so A's or C's
    /// slot can take the result, never B's.
    int
    lower_masked_join(const Expr& join, const Expr& mask)
    {
        const int lhs = lower(*join.lhs);
        const int rhs = lower(*join.rhs);
        const int keep = lower(mask);
        const int dst = is_temp(lhs)    ? lhs
                        : is_temp(keep) ? keep
                                        : new_slot();
        out.ops_.push_back({Code::kMaskedJoin, dst, lhs, rhs, keep});
        return dst;
    }

    int
    lower(const Expr& e)
    {
        switch (e.op) {
        case ExprOp::kBase:
            return static_cast<int>(e.base);
        case ExprOp::kEmpty: {
            const int dst = new_slot();
            emit(Code::kZero, dst);
            return dst;
        }
        case ExprOp::kIdSet: {
            int kinds = 0;
            for (int k = 0; k < kNumEventKinds; ++k) {
                if (event_in_set(e.set, static_cast<EventKind>(k))) {
                    kinds |= 1 << k;
                }
            }
            const int dst = new_slot();
            emit(Code::kIdSet, dst, kinds);
            return dst;
        }
        case ExprOp::kUnion: {
            std::vector<int> leaves;
            union_leaves(e, &leaves);
            // A temporary operand takes the result in place. It goes
            // first: run() ORs the operands in groups, and only the first
            // group may read dst.
            const auto temp = std::find_if(
                leaves.begin(), leaves.end(),
                [this](int operand) { return is_temp(operand); });
            int dst = 0;
            if (temp != leaves.end()) {
                std::iter_swap(leaves.begin(), temp);
                dst = leaves.front();
            } else {
                dst = new_slot();
            }
            const int begin = static_cast<int>(out.union_operands_.size());
            out.union_operands_.insert(out.union_operands_.end(),
                                       leaves.begin(), leaves.end());
            emit(Code::kUnion, dst, begin,
                 static_cast<int>(out.union_operands_.size()));
            return dst;
        }
        case ExprOp::kIntersect: {
            const Expr& lhs = through_inlined(*e.lhs);
            const Expr& rhs = through_inlined(*e.rhs);
            if (lhs.op == ExprOp::kJoin) {
                return lower_masked_join(lhs, rhs);
            }
            if (rhs.op == ExprOp::kJoin) {
                return lower_masked_join(rhs, lhs);
            }
            [[fallthrough]];
        }
        case ExprOp::kMinus:
        case ExprOp::kJoin: {
            const int lhs = lower(*e.lhs);
            const int rhs = lower(*e.rhs);
            // Row by row, either operand's slot can take the result; a
            // join reads every rhs row, so only the lhs slot can.
            int dst = 0;
            if (is_temp(lhs)) {
                dst = lhs;
            } else if (is_temp(rhs) && e.op != ExprOp::kJoin) {
                dst = rhs;
            } else {
                dst = new_slot();
            }
            emit(e.op == ExprOp::kJoin        ? Code::kJoin
                 : e.op == ExprOp::kIntersect ? Code::kIntersect
                                              : Code::kMinus,
                 dst, lhs, rhs);
            return dst;
        }
        case ExprOp::kTranspose: {
            const int inner = lower(*e.lhs);
            const int dst = new_slot();
            emit(Code::kTranspose, dst, inner);
            return dst;
        }
        case ExprOp::kClosure:
        case ExprOp::kReflexiveClosure: {
            const int inner = lower(*e.lhs);
            const int dst = is_temp(inner) ? inner : new_slot();
            emit(e.op == ExprOp::kClosure ? Code::kClosure
                                          : Code::kReflexiveClosure,
                 dst, inner);
            return dst;
        }
        case ExprOp::kLetRef: {
            const Expr* body = e.lhs.get();
            if (inlined(e)) {
                return lower(*body);
            }
            if (const int* operand = find(lowered, body)) {
                return *operand;
            }
            const int operand = lower(*body);
            if (operand >= kNumBases) {
                pinned[operand - kNumBases] = true;
            }
            lowered.emplace_back(body, operand);
            return operand;
        }
        }
        TF_PANIC("unknown expression op");
    }
};

RowProgram::RowProgram(const Expr& expr)
{
    Lowering lowering{*this, {}, {}, {}};
    lowering.count_uses(expr);
    result_ = lowering.lower(expr);
}

const BitRow*
RowProgram::run(const Program& program, const DerivedRelations& d,
                CycleScratch* scratch) const
{
    const int n = program.num_events();
    TF_ASSERT(n <= elt::kMaxBitEvents);
    const std::size_t first = scratch->spec_pool_live;
    if (scratch->spec_pool.size() < first + num_slots_) {
        scratch->spec_pool.resize(first + num_slots_);
    }
    BitRows* slots = scratch->spec_pool.data() + first;
    const auto rows = [&](int operand) -> const BitRow* {
        return operand < kNumBases ? (d.*kBaseRows[operand]).data()
                                   : slots[operand - kNumBases].data();
    };
    for (const Op& op : ops_) {
        BitRow* dst = slots[op.dst - kNumBases].data();
        switch (op.code) {
        case Code::kZero:
            std::fill_n(dst, n, BitRow{0});
            break;
        case Code::kIdSet:
            for (EventId a = 0; a < n; ++a) {
                const int kind = static_cast<int>(program.event(a).kind);
                dst[a] = (op.lhs >> kind) & 1 ? BitRow{1} << a : 0;
            }
            break;
        case Code::kUnion: {
            // The lowering puts dst first when it is an operand.
            or_operands(dst, union_operands_.data() + op.lhs, op.rhs - op.lhs,
                        n, rows);
            break;
        }
        case Code::kIntersect: {
            const BitRow* lhs = rows(op.lhs);
            const BitRow* rhs = rows(op.rhs);
            for (EventId a = 0; a < n; ++a) {
                dst[a] = lhs[a] & rhs[a];
            }
            break;
        }
        case Code::kMinus: {
            const BitRow* lhs = rows(op.lhs);
            const BitRow* rhs = rows(op.rhs);
            for (EventId a = 0; a < n; ++a) {
                dst[a] = lhs[a] & ~rhs[a];
            }
            break;
        }
        case Code::kJoin: {
            // Row a of the join reads only lhs row a, so dst may be lhs.
            const BitRow* lhs = rows(op.lhs);
            const BitRow* rhs = rows(op.rhs);
            for (EventId a = 0; a < n; ++a) {
                BitRow joined = 0;
                for (BitRow bits = lhs[a]; bits != 0; bits &= bits - 1) {
                    joined |= rhs[std::countr_zero(bits)];
                }
                dst[a] = joined;
            }
            break;
        }
        case Code::kMaskedJoin: {
            const BitRow* lhs = rows(op.lhs);
            const BitRow* rhs = rows(op.rhs);
            const BitRow* keep = rows(op.mask);
            for (EventId a = 0; a < n; ++a) {
                BitRow joined = 0;
                if (keep[a] != 0) {
                    for (BitRow bits = lhs[a]; bits != 0; bits &= bits - 1) {
                        joined |= rhs[std::countr_zero(bits)];
                    }
                }
                dst[a] = joined & keep[a];
            }
            break;
        }
        case Code::kTranspose: {
            const BitRow* inner = rows(op.lhs);
            std::fill_n(dst, n, BitRow{0});
            for (EventId a = 0; a < n; ++a) {
                for (BitRow bits = inner[a]; bits != 0; bits &= bits - 1) {
                    dst[std::countr_zero(bits)] |= BitRow{1} << a;
                }
            }
            break;
        }
        case Code::kClosure:
        case Code::kReflexiveClosure: {
            const BitRow* inner = rows(op.lhs);
            if (inner != dst) {
                std::copy_n(inner, n, dst);
            }
            close_transitively(dst, n);
            if (op.code == Code::kReflexiveClosure) {
                for (EventId a = 0; a < n; ++a) {
                    dst[a] |= BitRow{1} << a;
                }
            }
            break;
        }
        }
    }
    return rows(result_);
}

bool
RowProgram::holds(AxiomForm form, const Program& program,
                  const DerivedRelations& d, CycleScratch* scratch) const
{
    return form_holds(form, run(program, d, scratch), program.num_events());
}

bool
axiom_holds(const AxiomDef& axiom, const Program& program,
            const DerivedRelations& d, CycleScratch* scratch)
{
    CycleScratch local;
    return RowProgram(*axiom.expr)
        .holds(axiom.form, program, d, scratch != nullptr ? scratch : &local);
}

void
eval_expr(const Expr& expr, const Program& program, const DerivedRelations& d,
          CycleScratch* scratch, EdgeSet* out)
{
    CycleScratch local;
    const int n = program.num_events();
    const BitRow* rows = RowProgram(expr).run(
        program, d, scratch != nullptr ? scratch : &local);
    BitRows result{};
    std::copy_n(rows, n, result.begin());
    *out = elt::edges_of(result, n);
}

}  // namespace transform::spec
