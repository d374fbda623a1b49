#include "mtm/encoding.h"

#include <algorithm>
#include <utility>

#include "mtm/encoding_detail.h"
#include "obs/alloc.h"
#include "rel/bool_factory.h"
#include "rel/relation.h"
#include "sat/solver.h"
#include "util/logging.h"

namespace transform::mtm {

using elt::EventId;
using elt::Execution;
using elt::Program;
using rel::BoolFactory;
using rel::ExprId;

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

/// Sets \p row to the constant one-hot row of \p size slots selecting
/// \p slot.
void
one_hot(std::vector<ExprId>* row, int size, int slot)
{
    TF_ASSERT(slot >= 0 && slot < size);
    row->assign(size, rel::kFalseExpr);
    (*row)[slot] = rel::kTrueExpr;
}

/// Builds \p program's execution space into \p b over the scratch's
/// factory and solver, placing every event where the program puts it:
/// constant placement rows, so every placement guard folds and the CNF is
/// the one specialized to this program.
void
build_for(const Program& program, bool vm, unsigned needs,
          EncodingScratch* scratch, EncodingBuilder* b)
{
    b->begin(program, vm, std::max(program.num_vas(), 1),
             std::max(program.num_pas(), 1), &scratch->factory,
             &scratch->solver);
    for (EventId e = 0; e < b->n; ++e) {
        if (has_va(program.event(e).kind)) {
            one_hot(&b->va[e], b->num_vas, program.event(e).va);
        }
    }
    b->build(needs, [&](EventId w) {
        one_hot(&b->pa[w], b->num_pas, program.event(w).map_pa);
    });
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
    BoolFactory& factory = scratch_->factory;
    sat::Solver& solver = scratch_->solver;
    const Axiom* axiom = model_->axiom(axiom_name);
    TF_ASSERT(axiom != nullptr);
    EncodingBuilder b;
    build_for(program_, model_->vm_aware(), needs_for(*axiom), scratch_, &b);
    factory.assert_true(factory.mk_not(b.axiom_circuit(*axiom)), &solver);
    stats_.variables = solver.num_vars();
    stats_.circuit_nodes = static_cast<int>(factory.num_nodes());
    const sat::SolveResult verdict = solver.solve();
    require_decisive_or_interrupted(solver, verdict);
    if (verdict != sat::SolveResult::kSat) {
        return std::nullopt;
    }
    Execution out = Execution::empty_for(program_);
    b.freeze_projection();
    b.extract_into(&out);
    return out;
}

bool
ProgramEncoding::exists_permitted()
{
    BoolFactory& factory = scratch_->factory;
    sat::Solver& solver = scratch_->solver;
    unsigned needs = 0;
    for (const Axiom& axiom : model_->axioms()) {
        needs |= needs_for(axiom);
    }
    EncodingBuilder b;
    build_for(program_, model_->vm_aware(), needs, scratch_, &b);
    for (const Axiom& axiom : model_->axioms()) {
        factory.assert_true(b.axiom_circuit(axiom), &solver);
    }
    stats_.variables = solver.num_vars();
    stats_.circuit_nodes = static_cast<int>(factory.num_nodes());
    const sat::SolveResult verdict = solver.solve();
    require_decisive_or_interrupted(solver, verdict);
    return verdict == sat::SolveResult::kSat;
}

bool
ProgramEncoding::exists_execution()
{
    BoolFactory& factory = scratch_->factory;
    sat::Solver& solver = scratch_->solver;
    EncodingBuilder b;
    build_for(program_, model_->vm_aware(), /*needs=*/0, scratch_, &b);
    stats_.variables = solver.num_vars();
    stats_.circuit_nodes = static_cast<int>(factory.num_nodes());
    const sat::SolveResult verdict = solver.solve();
    require_decisive_or_interrupted(solver, verdict);
    return verdict == sat::SolveResult::kSat;
}

bool
ProgramEncoding::enumerate(const std::string& violating_axiom,
                           const ExecutionVisitor& visit)
{
    BoolFactory& factory = scratch_->factory;
    sat::Solver& solver = scratch_->solver;
    const Axiom* axiom = nullptr;
    if (!violating_axiom.empty()) {
        axiom = model_->axiom(violating_axiom);
        TF_ASSERT(axiom != nullptr);
    }
    EncodingBuilder b;
    build_for(program_, model_->vm_aware(),
              axiom == nullptr ? 0u : needs_for(*axiom), scratch_, &b);
    if (axiom != nullptr) {
        factory.assert_true(factory.mk_not(b.axiom_circuit(*axiom)), &solver);
    }
    stats_.variables = solver.num_vars();
    stats_.circuit_nodes = static_cast<int>(factory.num_nodes());
    stats_.models = 0;
    b.freeze_projection();
    Execution current = Execution::empty_for(program_);
    sat::Clause clause;
    while (true) {
        const sat::SolveResult verdict = solver.solve();
        require_decisive_or_interrupted(solver, verdict);
        if (verdict != sat::SolveResult::kSat) {
            // kUnsat exhausts the space; an interrupt kUnknown stops the
            // sweep like a visitor veto — the cancelled caller discards it.
            return verdict == sat::SolveResult::kUnsat;
        }
        b.extract_into(&current);
        ++stats_.models;
        if (!visit(current)) {
            return false;  // the visitor stopped the solver
        }
        const obs::ScopedAllocSite alloc_site(
            obs::AllocSite::kSiteBlockingClause);
        if (stats_.models == 1) {
            b.build_block_template();
        }
        b.blocking_clause(&clause);
        if (clause.empty() || !solver.add_clause(clause)) {
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
