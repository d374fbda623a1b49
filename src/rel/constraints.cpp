#include "rel/constraints.h"

#include "util/logging.h"

namespace transform::rel {

void
assert_acyclic_with_order(BoolFactory* f, sat::Solver* solver, const RelExpr& r)
{
    const int n = r.size();
    // rank(a, b) == "a precedes b" in some strict total order.
    RelExpr rank = RelExpr::free(f, solver, n);
    for (int a = 0; a < n; ++a) {
        f->assert_true(f->mk_not(rank.at(a, a)), solver);
        f->assert_true(f->mk_not(r.at(a, a)), solver);  // no self-loops
        for (int b = 0; b < n; ++b) {
            if (a == b) {
                continue;
            }
            if (a < b) {
                f->assert_true(f->mk_xor(rank.at(a, b), rank.at(b, a)), solver);
            }
            for (int c = 0; c < n; ++c) {
                if (c == a || c == b) {
                    continue;
                }
                f->assert_true(f->mk_implies(f->mk_and(rank.at(a, b), rank.at(b, c)),
                                             rank.at(a, c)),
                               solver);
            }
            f->assert_true(f->mk_implies(r.at(a, b), rank.at(a, b)), solver);
        }
    }
}

}  // namespace transform::rel
