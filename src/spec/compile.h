/// \file
/// Compiles a parsed `.mtm` specification into an mtm::Model whose axioms
/// run on BOTH execution-space backends:
///  - concretely, through spec/eval.h closures tagged AxiomTag::kExpr
///    that run each axiom's expression lowered once into a RowProgram (the
///    enumerative backend and the minimality judge call these millions of
///    times — they are scratch-threaded like the hardwired closures);
///  - symbolically, because each Axiom carries its AxiomDef and
///    mtm::ProgramEncoding lowers that AST to rel::RelExpr circuits
///    generically (mtm/encoding.cpp), so user-defined models need no
///    hand-written circuit.
#pragma once

#include "mtm/model.h"
#include "spec/ast.h"

namespace transform::spec {

/// Builds the Model for \p spec. The ModelSpec is copied into shared
/// ownership: the returned Model (and every copy of its axioms) keeps the
/// AST alive. Axiom order follows the file.
mtm::Model compile_model(const ModelSpec& spec);

}  // namespace transform::spec
