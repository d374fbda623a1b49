#include "mtm/model.h"

#include <optional>

#include "spec/eval.h"
#include "spec/registry.h"
#include "util/logging.h"

namespace transform::mtm {

Model::Model(std::string name, bool vm_aware, std::vector<Axiom> axioms)
    : name_(std::move(name)), vm_aware_(vm_aware), axioms_(std::move(axioms))
{
    TF_ASSERT(static_cast<int>(axioms_.size()) <= kMaxAxioms);
}

const Axiom*
Model::axiom(const std::string& name) const
{
    for (const Axiom& a : axioms_) {
        if (a.name == name) {
            return &a;
        }
    }
    return nullptr;
}

int
Model::axiom_index(const std::string& name) const
{
    for (std::size_t i = 0; i < axioms_.size(); ++i) {
        if (axioms_[i].name == name) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

AxiomMask
Model::violated_mask(const elt::Program& program,
                     const elt::DerivedRelations& d,
                     elt::CycleScratch* scratch) const
{
    if (scratch == nullptr) {
        elt::CycleScratch local;
        return violated_mask(program, d, &local);
    }
    AxiomMask mask = 0;
    for (std::size_t i = 0; i < axioms_.size(); ++i) {
        const Axiom& axiom = axioms_[i];
        if (!axiom.program->holds(axiom.def->form, program, d, scratch)) {
            mask |= AxiomMask{1} << i;
        }
    }
    return mask;
}

bool
Model::violates_any(const elt::Program& program,
                    const elt::DerivedRelations& d,
                    elt::CycleScratch* scratch) const
{
    if (scratch == nullptr) {
        elt::CycleScratch local;
        return violates_any(program, d, &local);
    }
    for (const Axiom& axiom : axioms_) {
        if (!axiom.program->holds(axiom.def->form, program, d, scratch)) {
            return true;
        }
    }
    return false;
}

std::vector<std::string>
Model::mask_names(AxiomMask mask) const
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < axioms_.size(); ++i) {
        if (mask & (AxiomMask{1} << i)) {
            out.push_back(axioms_[i].name);
        }
    }
    return out;
}

std::vector<std::string>
Model::violated_axioms(const elt::Program& program,
                       const elt::DerivedRelations& d) const
{
    return mask_names(violated_mask(program, d));
}

std::vector<std::string>
Model::violated_axioms(const elt::Execution& e) const
{
    const elt::DerivedRelations d = elt::derive(e, derive_options());
    if (!d.well_formed) {
        return {"well_formed"};
    }
    return violated_axioms(e.program, d);
}

namespace {

/// A model the registry embeds; its source always compiles.
Model
registry_model(const std::string& name)
{
    std::string error;
    std::optional<spec::ResolvedModel> resolved =
        spec::resolve_model(name, &error);
    if (!resolved.has_value()) {
        TF_PANIC("embedded model " << name << " does not compile: " << error);
    }
    return std::move(resolved->model);
}

}  // namespace

Model
x86tso()
{
    return registry_model("x86tso");
}

Model
x86t_elt()
{
    return registry_model("x86t_elt");
}

Model
sc_t_elt()
{
    return registry_model("sc_t_elt");
}

std::vector<std::string>
x86t_elt_axiom_names()
{
    return {"sc_per_loc", "rmw_atomicity", "causality", "invlpg",
            "tlb_causality"};
}

}  // namespace transform::mtm
