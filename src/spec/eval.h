/// \file
/// The concrete interpreter for `.mtm` axioms: evaluates a relational
/// expression over one candidate execution's elt::DerivedRelations and
/// decides the axiom's condition (acyclic / irreflexive / empty).
///
/// This is the DSL counterpart of the hand-written axiom closures in
/// mtm/model.cpp and runs in the same place — the synthesis engine's
/// per-candidate hot path — so it is scratch-threaded and allocation-free
/// in steady state: every intermediate relation is a slot of the
/// CycleScratch::spec_pool arena (capacity kept across evaluations), and a
/// null scratch falls back to a local one, exactly like the hardwired
/// evaluators.
///
/// A slot holds one 64-bit adjacency row per event (elt::BitRows; bit b of
/// row a means a -> b), which is why programs are capped at
/// elt::kMaxBitEvents events. A base relation ORs its DerivedRelations
/// edges into a slot; `|`, `&` and `\` work row by row; `;` ORs the rhs
/// rows each lhs row selects; `^-1` transposes; `^+` is Warshall's
/// algorithm on rows and `^*` adds the diagonal; `[S]` sets diagonal bits.
/// `acyclic` peels sinks (elt::rows_have_cycle), `irreflexive` tests the
/// diagonal and `empty` tests for all-zero rows.
#pragma once

#include "elt/derive.h"
#include "elt/execution.h"
#include "spec/ast.h"

namespace transform::spec {

/// True when \p event's kind belongs to \p set — the single definition both
/// compilers (concrete and symbolic) share.
bool event_in_set(EventSet set, elt::EventKind kind);

/// True when the axiom's condition HOLDS on the derived relations of one
/// well-formed execution (at most elt::kMaxBitEvents events). \p scratch
/// may be null (a local scratch is used); passing the worker's scratch
/// makes repeated evaluations allocation-free.
bool axiom_holds(const AxiomDef& axiom, const elt::Program& program,
                 const elt::DerivedRelations& d,
                 elt::CycleScratch* scratch);

/// Replaces \p out with the expression's edges, listed row by row (sorted,
/// duplicate-free) — the debugging / testing entry point.
void eval_expr(const Expr& expr, const elt::Program& program,
               const elt::DerivedRelations& d, elt::CycleScratch* scratch,
               elt::EdgeSet* out);

}  // namespace transform::spec
