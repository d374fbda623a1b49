/// \file
/// Abstract syntax for the `.mtm` transistency-model specification language
/// — the cat-style relational-algebra frontend that turns the model zoo
/// into data instead of C++ (in the tradition of herd's `.cat` files).
///
/// A model file names a model, declares its VM-awareness, binds reusable
/// relation definitions with `let`, and states axioms as `acyclic`,
/// `irreflexive` or `empty` conditions over relational expressions built
/// from the Table-I base relations with union `|`, intersection `&`,
/// difference `\`, join `;`, transpose `^-1`, transitive closure `^+`,
/// reflexive-transitive closure `^*`, and identity-on-set brackets `[S]`
/// (domain/range restriction via `[W] ; r ; [R]`). See docs/models.md for
/// the grammar and the catalogue.
///
/// This header is dependency-free (std only): the same AST feeds two
/// compilers — the concrete interpreter over elt::DerivedRelations
/// (spec/eval.h) and the symbolic lowering to rel::RelExpr circuits inside
/// the SAT encodings' shared builder (mtm/encoding_builder.cpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace transform::spec {

/// The base relations an expression can reference — every field of
/// elt::DerivedRelations (Table I plus the auxiliaries the x86t_elt axioms
/// need) and `po_mem`, the extended program order restricted to memory
/// events (ghosts included), which sequential-consistency variants need and
/// which no DerivedRelations field stores directly.
enum class BaseRel {
    kPo,         ///< same-thread sequencing of non-ghost events (transitive)
    kPoLoc,      ///< extended-order pairs at the same coherence class
    kPoMem,      ///< extended-order pairs over memory events (ghosts too)
    kRf,         ///< write -> read (data and PTE locations)
    kRfe,        ///< rf restricted to cross-thread pairs
    kCo,         ///< coherence order per class
    kFr,         ///< read -> co-successors of its source
    kPpo,        ///< TSO preserved program order (po_mem minus W->R)
    kFence,      ///< pairs ordered by an intervening MFENCE
    kRmw,        ///< declared rmw dependencies
    kGhost,      ///< user event -> invoked ghost
    kRfPtw,      ///< page-table walk -> users of its TLB entry
    kRfPa,       ///< Wpte -> accesses using its mapping
    kCoPa,       ///< alias-creation order per PA
    kFrPa,       ///< access -> co_pa-successors of its mapping source
    kFrVa,       ///< access -> later Wptes remapping its VA
    kRemap,      ///< Wpte -> the Invlpgs it invokes
    kPtwSource,  ///< walk's parent -> other users of the walk
};

/// The event classes usable inside identity brackets `[S]`.
enum class EventSet {
    kRead,    ///< R: read-like (Read, Rptw, Rdb)
    kWrite,   ///< W: write-like (Write, Wpte, Wdb)
    kMemory,  ///< M: shared-memory events
    kData,    ///< D: user-facing data accesses (Read, Write)
    kPte,     ///< PTE: accesses of PTE locations (Wpte, Rptw, Wdb, Rdb)
    kFence,   ///< F: MFENCE events
    kWpte,    ///< Wpte: PTE writes (remaps)
    kInvlpg,  ///< Invlpg: TLB invalidations (targeted or full-flush)
    kRptw,    ///< Rptw: page-table walks
    kWdb,     ///< Wdb: dirty-bit updates
    kRdb,     ///< Rdb: dirty-bit reads (RMW-dirty-bit ablation)
    kGhost,   ///< Ghost: hardware-invoked ghost instructions
    kUser,    ///< User: user-facing ISA instructions
};

/// Expression node kinds.
enum class ExprOp {
    kBase,       ///< a Table-I base relation
    kEmpty,      ///< the literal `0` (the empty relation)
    kIdSet,      ///< `[S]`: identity restricted to an event class
    kUnion,      ///< lhs | rhs
    kIntersect,  ///< lhs & rhs
    kMinus,      ///< lhs \ rhs
    kJoin,       ///< lhs ; rhs
    kTranspose,  ///< lhs ^-1
    kClosure,    ///< lhs ^+
    kReflexiveClosure,  ///< lhs ^* (closure unioned with full identity)
    kLetRef,     ///< reference to a `let` binding (lhs = the bound body)
};

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// One node of a relational expression. Nodes form a DAG: a `let` body is
/// parsed once and every reference shares it through `lhs`.
struct Expr {
    ExprOp op;
    BaseRel base = BaseRel::kPo;      ///< kBase only
    EventSet set = EventSet::kRead;   ///< kIdSet only
    ExprPtr lhs;                      ///< operand (kLetRef: the bound body)
    ExprPtr rhs;                      ///< second operand of binary ops
    std::string let_name;             ///< kLetRef only (for printing)
};

/// The three axiom condition forms of the language.
enum class AxiomForm {
    kAcyclic,      ///< the expression, viewed as a graph, has no cycle
    kIrreflexive,  ///< no (e, e) pair
    kEmpty,        ///< no pair at all
};

/// One axiom: `axiom name "description": form(expr)`.
struct AxiomDef {
    std::string name;
    std::string description;  ///< optional in the source (may be empty)
    AxiomForm form = AxiomForm::kAcyclic;
    ExprPtr expr;
};

/// One `let name = expr` binding, in declaration order.
struct LetDef {
    std::string name;
    ExprPtr expr;
};

/// A parsed `.mtm` model file.
struct ModelSpec {
    std::string name;
    bool vm = true;  ///< `vm on` (default) models transistency; `vm off` MCMs
    std::vector<LetDef> lets;
    std::vector<AxiomDef> axioms;
};

/// Spellings shared by the parser, the printer and the docs.
const char* base_rel_name(BaseRel rel);
const char* event_set_name(EventSet set);
const char* axiom_form_name(AxiomForm form);

}  // namespace transform::spec
