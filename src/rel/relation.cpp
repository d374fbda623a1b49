#include "rel/relation.h"

#include "util/logging.h"

namespace transform::rel {

// ---------------------------------------------------------------------------
// RelExpr
// ---------------------------------------------------------------------------

RelExpr
RelExpr::empty(BoolFactory* factory, int universe_size)
{
    RelExpr r;
    r.n_ = universe_size;
    r.entries_.assign(static_cast<std::size_t>(universe_size) * universe_size,
                      factory->mk_const(false));
    return r;
}

void
RelExpr::reset_empty(BoolFactory* factory, int universe_size)
{
    n_ = universe_size;
    entries_.assign(static_cast<std::size_t>(universe_size) * universe_size,
                    factory->mk_const(false));
}

RelExpr
RelExpr::constant(BoolFactory* factory, int universe_size,
                  const std::vector<std::pair<int, int>>& pairs)
{
    RelExpr r = empty(factory, universe_size);
    for (const auto& [from, to] : pairs) {
        TF_ASSERT(from >= 0 && from < universe_size);
        TF_ASSERT(to >= 0 && to < universe_size);
        r.set(from, to, factory->mk_const(true));
    }
    return r;
}

RelExpr
RelExpr::identity(BoolFactory* factory, int universe_size)
{
    RelExpr r = empty(factory, universe_size);
    for (int i = 0; i < universe_size; ++i) {
        r.set(i, i, factory->mk_const(true));
    }
    return r;
}

RelExpr
RelExpr::free(BoolFactory* factory, sat::Solver* solver, int universe_size)
{
    RelExpr r;
    r.n_ = universe_size;
    r.entries_.reserve(static_cast<std::size_t>(universe_size) * universe_size);
    for (int i = 0; i < universe_size * universe_size; ++i) {
        r.entries_.push_back(factory->mk_var(solver->new_var()));
    }
    return r;
}

RelExpr
RelExpr::rel_union(BoolFactory* f, const RelExpr& other) const
{
    TF_ASSERT(n_ == other.n_);
    RelExpr out = *this;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        out.entries_[i] = f->mk_or(entries_[i], other.entries_[i]);
    }
    return out;
}

RelExpr
RelExpr::rel_intersect(BoolFactory* f, const RelExpr& other) const
{
    TF_ASSERT(n_ == other.n_);
    RelExpr out = *this;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        out.entries_[i] = f->mk_and(entries_[i], other.entries_[i]);
    }
    return out;
}

RelExpr
RelExpr::rel_minus(BoolFactory* f, const RelExpr& other) const
{
    TF_ASSERT(n_ == other.n_);
    RelExpr out = *this;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        out.entries_[i] = f->mk_and(entries_[i], f->mk_not(other.entries_[i]));
    }
    return out;
}

RelExpr
RelExpr::transpose(BoolFactory* f) const
{
    RelExpr out = empty(f, n_);
    for (int a = 0; a < n_; ++a) {
        for (int b = 0; b < n_; ++b) {
            out.set(b, a, at(a, b));
        }
    }
    return out;
}

RelExpr
RelExpr::join(BoolFactory* f, const RelExpr& other) const
{
    TF_ASSERT(n_ == other.n_);
    RelExpr out = empty(f, n_);
    for (int a = 0; a < n_; ++a) {
        for (int c = 0; c < n_; ++c) {
            ExprId acc = f->mk_const(false);
            for (int b = 0; b < n_; ++b) {
                acc = f->mk_or(acc, f->mk_and(at(a, b), other.at(b, c)));
            }
            out.set(a, c, acc);
        }
    }
    return out;
}

RelExpr
RelExpr::closure(BoolFactory* f) const
{
    // Iterative squaring: R, R + R.R, ... log2(n) rounds.
    RelExpr acc = *this;
    for (int span = 1; span < n_; span *= 2) {
        acc = acc.rel_union(f, acc.join(f, acc));
    }
    return acc;
}

ExprId
RelExpr::is_empty(BoolFactory* f) const
{
    ExprId acc = f->mk_const(true);
    for (const ExprId e : entries_) {
        acc = f->mk_and(acc, f->mk_not(e));
    }
    return acc;
}

ExprId
RelExpr::acyclic(BoolFactory* f) const
{
    return closure(f).irreflexive(f);
}

ExprId
RelExpr::irreflexive(BoolFactory* f) const
{
    ExprId acc = f->mk_const(true);
    for (int i = 0; i < n_; ++i) {
        acc = f->mk_and(acc, f->mk_not(at(i, i)));
    }
    return acc;
}

}  // namespace transform::rel
