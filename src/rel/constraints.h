/// \file
/// Higher-level constraint builders used by the SAT synthesis backend.
///
/// The closure-based RelExpr::acyclic is quadratic in circuit size; for the
/// axioms that only need "some union of relations is acyclic" as a
/// *requirement* (not as a violated target), an auxiliary rank ordering is
/// cheaper. Both styles are provided; tests check they agree.
#pragma once

#include "rel/bool_factory.h"
#include "rel/relation.h"

namespace transform::rel {

/// Asserts acyclicity of \p r by introducing a fresh strict total "rank"
/// order O over the universe and requiring r to be a subset of O. (A finite
/// digraph is acyclic iff it embeds in a strict total order.)
void assert_acyclic_with_order(BoolFactory* f, sat::Solver* solver,
                               const RelExpr& r);

}  // namespace transform::rel
