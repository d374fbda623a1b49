/// \file
/// Bounded binary relations as matrices of boolean expressions, plus the
/// relational algebra the MTM axioms are written in (union, intersection,
/// difference, join, transpose, transitive closure) and the three axiom
/// forms. Mirrors the Kodkod layer of the paper's Alloy implementation: a
/// relation over a universe of n atoms is an n x n matrix of circuit
/// entries; constant relations have constant entries, free relations have
/// fresh solver variables as entries.
#pragma once

#include <utility>
#include <vector>

#include "rel/bool_factory.h"

namespace transform::rel {

/// A binary relation over a universe of fixed size.
class RelExpr {
  public:
    RelExpr() = default;

    /// The empty binary relation.
    static RelExpr empty(BoolFactory* factory, int universe_size);

    /// Re-initializes THIS relation to the empty relation over
    /// \p universe_size atoms, reusing the entry matrix's capacity — the
    /// pooled form of empty() for callers (mtm::EncodingBuilder) that
    /// rebuild relations per build without reallocating.
    void reset_empty(BoolFactory* factory, int universe_size);

    /// A constant relation holding the listed (from, to) pairs.
    static RelExpr constant(BoolFactory* factory, int universe_size,
                            const std::vector<std::pair<int, int>>& pairs);

    /// The identity relation.
    static RelExpr identity(BoolFactory* factory, int universe_size);

    /// A free relation: one fresh solver variable per pair.
    static RelExpr free(BoolFactory* factory, sat::Solver* solver,
                        int universe_size);

    int size() const { return n_; }
    ExprId at(int from, int to) const { return entries_[from * n_ + to]; }
    void set(int from, int to, ExprId value) { entries_[from * n_ + to] = value; }

    /// Relational algebra. All operations allocate a fresh result.
    RelExpr rel_union(BoolFactory* f, const RelExpr& other) const;
    RelExpr rel_intersect(BoolFactory* f, const RelExpr& other) const;
    RelExpr rel_minus(BoolFactory* f, const RelExpr& other) const;
    RelExpr transpose(BoolFactory* f) const;

    /// Relational join: (this.other)(a,c) = OR_b this(a,b) AND other(b,c).
    RelExpr join(BoolFactory* f, const RelExpr& other) const;

    /// Transitive closure via iterative squaring (^R in the paper).
    RelExpr closure(BoolFactory* f) const;

    /// Formulas.
    ExprId is_empty(BoolFactory* f) const;

    /// Formula: the relation (viewed as a graph over atoms) has no cycle —
    /// i.e. the transitive closure is irreflexive.
    ExprId acyclic(BoolFactory* f) const;

    /// Formula: irreflexivity only.
    ExprId irreflexive(BoolFactory* f) const;

  private:
    int n_ = 0;
    std::vector<ExprId> entries_;
};

}  // namespace transform::rel
