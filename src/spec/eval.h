/// \file
/// The concrete interpreter for `.mtm` axioms: evaluates a relational
/// expression over one candidate execution's elt::DerivedRelations and
/// decides the axiom's condition (acyclic / irreflexive / empty).
///
/// Every model's verdicts run here, on the synthesis engine's
/// per-candidate hot path (mtm::Model::violated_mask). An expression is
/// lowered once, when its model is compiled, into a RowProgram: a
/// straight-line list of row operations over the relations' 64-bit
/// adjacency rows (elt::BitRows; bit b of row a means a -> b). Base
/// relations are read in place from DerivedRelations; every intermediate
/// relation is a slot of the CycleScratch::spec_pool arena, reused across
/// evaluations, so a compiled axiom evaluates without allocating in
/// steady state.
///
/// Lowering flattens nested unions into one operation, evaluates each
/// `let` body used more than once a single time per evaluation (a body
/// used once is inlined), and overwrites an operand's slot in place when
/// nothing else reads it. `|`, `&` and `\` work row by row (a union four
/// operands at a time, each operand's rows resolved once); `;` ORs the
/// rhs rows each lhs row selects, and `(A ; B) & C` joins only the rows
/// where C is non-empty; `^-1` transposes; `^+` is Warshall's algorithm
/// on rows and `^*` adds the diagonal; `[S]` sets diagonal bits.
/// `acyclic` peels sinks (elt::rows_have_cycle), `irreflexive` tests the
/// diagonal and `empty` tests for all-zero rows.
///
/// The minimality judge also runs a RowProgram over the rows of an
/// execution restricted to a subset of its events, its survivors: the
/// form is then checked on the survivors alone (see RowProgram::holds).
#pragma once

#include <optional>
#include <vector>

#include "elt/derive.h"
#include "elt/execution.h"
#include "spec/ast.h"

namespace transform::spec {

/// True when \p event's kind belongs to \p set — the single definition both
/// compilers (concrete and symbolic) share.
bool event_in_set(EventSet set, elt::EventKind kind);

/// A relational expression lowered to row operations (see the file
/// comment). Immutable once built; one instance serves every thread.
class RowProgram {
  public:
    /// Lowers \p expr; linear in the expression's DAG (shared `let`
    /// bodies are lowered once).
    explicit RowProgram(const Expr& expr);

    /// Evaluates the expression over one well-formed execution (at most
    /// elt::kMaxBitEvents events) and returns the first
    /// program.num_events() rows of the result. The rows live either in
    /// \p d (a bare base relation) or in \p scratch's arena slots above
    /// spec_pool_live, which the next evaluation overwrites; nothing below
    /// spec_pool_live and nothing in \p d is written.
    const elt::BitRow* run(const elt::Program& program,
                           const elt::DerivedRelations& d,
                           elt::CycleScratch* scratch) const;

    /// True when \p form holds of the expression over one well-formed
    /// execution: run() and the form's check in one call, the verdicts'
    /// hot path (mtm::Model::violated_mask). The check reads only the
    /// pairs between events of \p survivors (elt::kAllEvents for a whole
    /// execution). Over relations that hold no pair touching a removed
    /// event, every operator keeps that so, except `[S]` and `^*`, which
    /// add the diagonal pair of a removed event; a pair that touches a
    /// removed event is then that event's diagonal pair, so it never links
    /// two survivors. The check thus decides the form of the execution
    /// restricted to the survivors. \p scratch must not be null; passing
    /// the worker's scratch makes repeated evaluations allocation-free.
    bool holds(AxiomForm form, const elt::Program& program,
               const elt::DerivedRelations& d, elt::BitRow survivors,
               elt::CycleScratch* scratch) const;

  private:
    enum class Code : unsigned char {
        kZero,      ///< dst = 0
        kIdSet,     ///< dst = [S]; lhs is the mask of event kinds in S
        kUnion,     ///< dst = OR of union_operands_[lhs, rhs)
        kIntersect,
        kMinus,
        kJoin,       ///< dst = lhs ; rhs (dst may be lhs, never rhs)
        kMaskedJoin,  ///< dst = (lhs ; rhs) & mask (dst is never rhs)
        kTranspose,  ///< dst = lhs^-1 (dst is never lhs)
        kClosure,    ///< dst = lhs^+
        kReflexiveClosure,
    };
    /// Operands number the base relations first (in BaseRel order), then
    /// the arena slots.
    struct Op {
        Code code;
        int dst;
        int lhs = 0;
        int rhs = 0;
        int mask = 0;
    };
    struct Lowering;

    std::vector<Op> ops_;
    std::vector<int> union_operands_;
    int result_ = 0;
    int num_slots_ = 0;
};

/// What remains of \p expr once the base relations in \p emptied (one bit
/// per BaseRel) are empty, with emptiness propagated through the
/// operators: a plain union of base relations, as their bits (0 is the
/// empty relation), or nullopt for anything else.
std::optional<unsigned> base_union(const Expr& expr, unsigned emptied = 0);

/// True when \p axiom holds over the derived relations of one well-formed
/// execution, lowering its expression first — the debugging and testing
/// entry point (compiled models lower once and call RowProgram::holds).
/// \p scratch may be null (a local scratch is used).
bool axiom_holds(const AxiomDef& axiom, const elt::Program& program,
                 const elt::DerivedRelations& d, elt::CycleScratch* scratch);

/// Replaces \p out with the expression's edges, listed row by row (sorted,
/// duplicate-free) — the debugging / testing entry point.
void eval_expr(const Expr& expr, const elt::Program& program,
               const elt::DerivedRelations& d, elt::CycleScratch* scratch,
               elt::EdgeSet* out);

}  // namespace transform::spec
