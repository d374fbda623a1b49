#include "mtm/spec_printer.h"

#include <sstream>

#include "spec/ast.h"
#include "spec/printer.h"
#include "util/logging.h"

namespace transform::mtm {

std::string
vocabulary_to_alloy()
{
    // Static text: the vocabulary is fixed by the library (Table I of the
    // paper plus this library's documented extensions); keeping it inline
    // makes the emitted module self-contained and reviewable.
    return R"(// TransForm MTM vocabulary (Table I), emitted by transform-cpp.
// Events ---------------------------------------------------------------
abstract sig Event { po: lone Event }           // program order (intra-thread)
abstract sig MemoryEvent extends Event { address: one Location }
sig Read extends MemoryEvent { rf: lone Write, rf_ptw: lone Rptw }
sig Write extends MemoryEvent { co: set Write, ghost_db: lone Wdb }
sig Mfence extends Event {}
// System-level (support) instructions ----------------------------------
sig Wpte extends MemoryEvent { maps: one PhysicalAddress,
                               remap: set Invlpg, co_pa: set Wpte }
sig Invlpg extends Event { evicts: one VirtualAddress }
sig InvlpgAll extends Event {}                  // extension: full TLB flush
// Hardware-level (ghost) instructions -----------------------------------
sig Rptw extends MemoryEvent { invoked_by: one MemoryEvent }
sig Wdb  extends MemoryEvent { invoked_by: one Write }
sig Rdb  extends MemoryEvent { invoked_by: one Write }  // RMW-dirty-bit mode
// Locations --------------------------------------------------------------
abstract sig Location {}
sig VirtualAddress extends Location { pte: one PteLocation }
sig PteLocation extends Location {}
sig PhysicalAddress {}
// Placement facts (section IV-A) ------------------------------------------
fact po_total_per_thread { /* po is a strict total order per thread;
                              ghosts inherit their parent's position and
                              are unordered against it */ }
fact walks_source_users  { all r: Rptw | r.invoked_by in r.~rf_ptw }
fact wdb_per_write       { all w: Write | one w.ghost_db }
fact remap_per_core      { all p: Wpte | one core: Thread | one
                           (p.remap & core.events) }
fact no_tlb_reuse_across_invlpg {
  /* rf_ptw may not span a same-VA INVLPG (or any INVLPGALL) between the
     walk's invoking access and the user, on their shared core */ }
fact spurious_invlpg_useful {
  /* an OS-initiated eviction requires a later same-core access it can
     affect (same VA for INVLPG, any VA for INVLPGALL) */ }
fact dirty_bit_value {
  /* a Wdb carries the mapping of its immediate coherence predecessor at
     its PTE location (initial mapping when coherence-first) */ }
// Derived relations --------------------------------------------------------
fun fr        { /* reads to co-successors of their rf source */ }
fun rf_pa     { /* Wpte to accesses whose translation it provided */ }
fun fr_pa     { /* accesses to co_pa-successors of their provenance */ }
fun fr_va     { /* accesses to later Wptes remapping their VA */ }
fun ptw_source{ /* walk's invoking access to other users of the entry */ }
fun po_loc    { /* ^po pairs at one location; ghosts take their parent's
                   position */ }
fun po_mem    { /* ^po pairs of memory events, ghosts included */ }
fun rfe       { /* rf between threads */ }
fun ppo       { /* x86-TSO preserved program order: po_mem - (W->R) */ }
fun fence     { /* pairs with an Mfence between them in po */ }
fun rmw       { /* a read to the write of its read-modify-write */ }
fun ghost     { /* a user event to the ghosts it invokes */ }
// Event classes of the .mtm language: [S] prints as (S <: iden) -----------
fun R         { Read + Rptw + Rdb }
fun W         { Write + Wpte + Wdb }
fun M         { MemoryEvent }
fun D         { Read + Write }
fun PTE       { Wpte + Rptw + Wdb + Rdb }
fun F         { Mfence }
fun Ghost     { Rptw + Wdb + Rdb }
fun User      { Read + Write + Mfence }
)";
}

namespace {

/// \p e with `let` references replaced by their bodies.
const spec::Expr&
inlined(const spec::Expr& e)
{
    return e.op == spec::ExprOp::kLetRef ? inlined(*e.lhs) : e;
}

/// Alloy binding strength, loosest first: `+` and `-` share the loosest
/// level, then `&`, then `.`; the prefix operators `~ ^ *` bind tightest.
/// `po` prints as `^po` (the vocabulary's po is the immediate successor),
/// a prefix expression.
int
alloy_level(const spec::Expr& e)
{
    switch (e.op) {
    case spec::ExprOp::kUnion:
    case spec::ExprOp::kMinus:
        return 1;
    case spec::ExprOp::kIntersect:
        return 2;
    case spec::ExprOp::kJoin:
        return 3;
    case spec::ExprOp::kTranspose:
    case spec::ExprOp::kClosure:
    case spec::ExprOp::kReflexiveClosure:
        return 4;
    case spec::ExprOp::kBase:
        return e.base == spec::BaseRel::kPo ? 4 : 5;
    case spec::ExprOp::kEmpty:
    case spec::ExprOp::kIdSet:
        return 5;
    case spec::ExprOp::kLetRef:
        return alloy_level(inlined(e));
    }
    TF_PANIC("unknown expression op");
}

/// Prints \p e as an Alloy expression, `let` references inlined. Binary
/// operators are left-associative: the right operand must bind strictly
/// tighter than its parent to keep the tree, unless both are the same
/// associative operator (`+`, `&` or `.`).
void
print_alloy(const spec::Expr& e, int min_level, std::ostream& out)
{
    const spec::Expr& node = inlined(e);
    const int level = alloy_level(node);
    if (level < min_level) {
        out << "(";
    }
    switch (node.op) {
    case spec::ExprOp::kUnion:
    case spec::ExprOp::kIntersect:
    case spec::ExprOp::kMinus:
    case spec::ExprOp::kJoin: {
        const bool regroups = node.op != spec::ExprOp::kMinus &&
                              inlined(*node.rhs).op == node.op;
        print_alloy(*node.lhs, level, out);
        out << (node.op == spec::ExprOp::kUnion       ? " + "
                : node.op == spec::ExprOp::kIntersect ? " & "
                : node.op == spec::ExprOp::kMinus     ? " - "
                                                      : ".");
        print_alloy(*node.rhs, regroups ? level : level + 1, out);
        break;
    }
    case spec::ExprOp::kTranspose:
    case spec::ExprOp::kClosure:
    case spec::ExprOp::kReflexiveClosure:
        out << (node.op == spec::ExprOp::kTranspose ? "~"
                : node.op == spec::ExprOp::kClosure ? "^"
                                                    : "*");
        print_alloy(*node.lhs, level, out);
        break;
    case spec::ExprOp::kBase:
        out << (node.base == spec::BaseRel::kPo
                    ? "^po"
                    : spec::base_rel_name(node.base));
        break;
    case spec::ExprOp::kEmpty:
        out << "(none -> none)";
        break;
    case spec::ExprOp::kIdSet:
        // The vocabulary's Invlpg sig leaves out the full flush.
        out << "("
            << (node.set == spec::EventSet::kInvlpg
                    ? "(Invlpg + InvlpgAll)"
                    : spec::event_set_name(node.set))
            << " <: iden)";
        break;
    case spec::ExprOp::kLetRef:
        break;  // inlined() never returns one
    }
    if (level < min_level) {
        out << ")";
    }
}

/// The body of an axiom's Alloy predicate.
std::string
alloy_condition(const spec::AxiomDef& def)
{
    std::ostringstream out;
    if (def.form == spec::AxiomForm::kEmpty) {
        out << "no (";
        print_alloy(*def.expr, 0, out);
        out << ")";
    } else {
        out << spec::axiom_form_name(def.form) << "[";
        print_alloy(*def.expr, 0, out);
        out << "]";
    }
    return out.str();
}

}  // namespace

std::string
model_to_alloy(const Model& model)
{
    std::ostringstream out;
    out << "module transform/" << model.name() << "\n\n";
    out << vocabulary_to_alloy() << "\n";
    out << "// Axioms ("
        << (model.vm_aware() ? "transistency" : "consistency")
        << " predicate of " << model.name() << ") ---------------------\n";
    for (const Axiom& axiom : model.axioms()) {
        out << "// " << axiom.description << "\n";
        out << "pred " << axiom.name << " { " << alloy_condition(*axiom.def)
            << " }\n\n";
    }
    out << "pred " << model.name() << "_predicate {\n";
    for (const Axiom& axiom : model.axioms()) {
        out << "  " << axiom.name << "\n";
    }
    out << "}\n";
    return out.str();
}

std::string
model_to_mtm(const Model& model)
{
    TF_ASSERT(model.source_spec() != nullptr);
    return spec::model_to_source(*model.source_spec());
}

}  // namespace transform::mtm
