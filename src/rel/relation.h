/// \file
/// Bounded relations as matrices of boolean expressions, plus the relational
/// algebra the MTM axioms are written in (union, intersection, difference,
/// join, transpose, transitive closure, products). Mirrors the Kodkod layer
/// of the paper's Alloy implementation: a relation over a universe of n
/// atoms is an n-vector (arity 1) or n x n matrix (arity 2) of circuit
/// entries; constant relations have constant entries, free relations have
/// fresh solver variables as entries.
#pragma once

#include <string>
#include <vector>

#include "rel/bool_factory.h"

namespace transform::rel {

/// A set of atoms: unary relation over a universe of fixed size.
class SetExpr {
  public:
    SetExpr() = default;

    /// An empty set over \p universe_size atoms.
    static SetExpr empty(BoolFactory* factory, int universe_size);

    /// A constant set holding the listed atoms.
    static SetExpr constant(BoolFactory* factory, int universe_size,
                            const std::vector<int>& atoms);

    /// A free set: one fresh solver variable per atom.
    static SetExpr free(BoolFactory* factory, sat::Solver* solver,
                        int universe_size);

    int size() const { return static_cast<int>(entries_.size()); }
    ExprId at(int atom) const { return entries_[atom]; }
    void set(int atom, ExprId value) { entries_[atom] = value; }

    /// Set algebra.
    SetExpr set_union(BoolFactory* f, const SetExpr& other) const;
    SetExpr set_intersect(BoolFactory* f, const SetExpr& other) const;
    SetExpr set_minus(BoolFactory* f, const SetExpr& other) const;

    /// Formula: this set is empty / non-empty / a subset of another.
    ExprId is_empty(BoolFactory* f) const;
    ExprId is_nonempty(BoolFactory* f) const;
    ExprId subset_of(BoolFactory* f, const SetExpr& other) const;

  private:
    std::vector<ExprId> entries_;
};

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

    /// The identity relation (optionally restricted to a set).
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

    /// Join with a set on the right: (this.s)(a) = OR_b this(a,b) AND s(b).
    SetExpr join_set(BoolFactory* f, const SetExpr& s) const;

    /// Transitive closure via iterative squaring (^R in the paper).
    RelExpr closure(BoolFactory* f) const;

    /// Restriction to a set on both sides: s <: R :> s.
    RelExpr restrict(BoolFactory* f, const SetExpr& domain,
                     const SetExpr& range) const;

    /// Cartesian product of two sets.
    static RelExpr product(BoolFactory* f, const SetExpr& a, const SetExpr& b);

    /// Formulas.
    ExprId is_empty(BoolFactory* f) const;
    ExprId subset_of(BoolFactory* f, const RelExpr& other) const;

    /// Formula: the relation (viewed as a graph over atoms) has no cycle —
    /// i.e. the transitive closure is irreflexive.
    ExprId acyclic(BoolFactory* f) const;

    /// Formula: irreflexivity only.
    ExprId irreflexive(BoolFactory* f) const;

    /// Formula: every atom in \p domain relates to exactly one atom of
    /// \p range (and to nothing outside it).
    ExprId functional_on(BoolFactory* f, const SetExpr& domain,
                         const SetExpr& range) const;

    /// Formula: the relation is a strict total order on \p s (transitive,
    /// irreflexive, and total over distinct members of s) and empty outside.
    ExprId strict_total_order_on(BoolFactory* f, const SetExpr& s) const;

  private:
    int n_ = 0;
    std::vector<ExprId> entries_;
};

}  // namespace transform::rel
