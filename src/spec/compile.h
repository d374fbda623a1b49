/// \file
/// Compiles a parsed `.mtm` specification into an mtm::Model whose axioms
/// run on BOTH execution-space backends:
///  - concretely, through each axiom's expression lowered once into a
///    spec::RowProgram (the enumerative backend and the minimality judge
///    run these millions of times, scratch-threaded and allocation-free);
///  - symbolically, because each Axiom carries its AxiomDef and the SAT
///    encodings' shared builder lowers that AST to rel::RelExpr circuits
///    (mtm/encoding_builder.cpp).
#pragma once

#include "mtm/model.h"
#include "spec/ast.h"

namespace transform::spec {

/// Builds the Model for \p spec. The ModelSpec is copied into shared
/// ownership: the returned Model (and every copy of its axioms) keeps the
/// AST alive. Axiom order follows the file.
mtm::Model compile_model(const ModelSpec& spec);

}  // namespace transform::spec
