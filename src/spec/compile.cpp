#include "spec/compile.h"

#include <memory>
#include <utility>

#include "spec/eval.h"
#include "spec/printer.h"
#include "util/logging.h"

namespace transform::spec {

mtm::Model
compile_model(const ModelSpec& spec)
{
    TF_ASSERT(static_cast<int>(spec.axioms.size()) <= mtm::kMaxAxioms);
    const auto shared = std::make_shared<const ModelSpec>(spec);
    std::vector<mtm::Axiom> axioms;
    axioms.reserve(shared->axioms.size());
    for (const AxiomDef& def : shared->axioms) {
        mtm::Axiom axiom;
        axiom.name = def.name;
        axiom.description = def.description.empty()
                                ? std::string(axiom_form_name(def.form)) +
                                      "(" + expr_to_source(*def.expr) + ")"
                                : def.description;
        // Alias the shared spec so one control block owns every axiom's AST.
        axiom.def = std::shared_ptr<const AxiomDef>(shared, &def);
        // Lowered once here; every evaluation runs the same row program.
        axiom.program = std::make_shared<const RowProgram>(*def.expr);
        if (def.form == AxiomForm::kAcyclic) {
            axiom.acyclic_union = base_union(*def.expr).value_or(0);
        }
        axioms.push_back(std::move(axiom));
    }
    mtm::Model model(spec.name, spec.vm, std::move(axioms));
    model.set_source_spec(shared);
    return model;
}

}  // namespace transform::spec
