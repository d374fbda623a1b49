/// \file
/// Emits a Model as an Alloy-style module — the format of the paper's
/// published artifact. The output documents the full vocabulary (signatures
/// for the event kinds and the Table-I relations, with their placement
/// facts) and one `pred`/`assert` pair per axiom of the model, so a reader
/// can diff this library's semantics against the original Alloy source.
#pragma once

#include <string>

#include "mtm/model.h"

namespace transform::mtm {

/// Renders the shared TransForm vocabulary (signatures, placement facts,
/// and a `fun` for each derived relation and event class of the `.mtm`
/// language) in Alloy-like syntax.
std::string vocabulary_to_alloy();

/// Renders \p model as an Alloy-like module: the vocabulary followed by one
/// predicate per axiom and the model's transistency predicate. Each axiom
/// prints its relational expression with Alloy's operators (`+ & - .` for
/// `| & \ ;`, prefix `~ ^ *` for `^-1 ^+ ^*`, `(S <: iden)` for `[S]`,
/// `^po` for `po`), with `let` bindings inlined; every name it uses is
/// declared by the vocabulary.
std::string model_to_alloy(const Model& model);

/// Renders \p model as `.mtm` DSL source (the language of spec/parser.h):
/// the canonical form of the spec it was compiled from, `let` bindings
/// preserved. \p model must carry its source spec (every model
/// spec::compile_model returns does). The output re-parses: the round-trip
/// tests hold parse(model_to_mtm(m)) to a fixed point.
std::string model_to_mtm(const Model& model);

}  // namespace transform::mtm
