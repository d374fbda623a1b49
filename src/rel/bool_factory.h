/// \file
/// Hash-consed boolean expression DAG with a Tseitin compiler onto the CDCL
/// solver. This is the circuit layer underneath the relational algebra: the
/// entries of relation matrices are ExprIds, and relational operations build
/// new expressions out of them (exactly the role Kodkod's boolean circuits
/// play in the paper's Alloy pipeline).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sat/solver.h"
#include "sat/types.h"

namespace transform::rel {

/// Handle to a node in the expression arena.
using ExprId = std::int32_t;

/// Reserved ids for the constants.
inline constexpr ExprId kFalseExpr = 0;
inline constexpr ExprId kTrueExpr = 1;

/// Arena of hash-consed boolean expressions.
///
/// Nodes are immutable; construction applies constant folding and
/// idempotence simplifications, and structurally identical nodes are shared.
class BoolFactory {
  public:
    BoolFactory();

    /// Returns the arena to its freshly-constructed state (only the two
    /// constant nodes live) while keeping node storage and hash-table
    /// buckets, so a reused factory builds its next circuit without heap
    /// growth. Invalidates every previously returned ExprId except the
    /// constants.
    void reset();

    /// Wraps a solver variable as an expression.
    ExprId mk_var(sat::Var v);

    /// Constant expression.
    ExprId mk_const(bool value) { return value ? kTrueExpr : kFalseExpr; }

    /// Logical connectives (fold constants and share nodes).
    ExprId mk_not(ExprId a);
    ExprId mk_and(ExprId a, ExprId b);
    ExprId mk_or(ExprId a, ExprId b);

    /// Compiles the expression to a literal in \p solver (Tseitin transform
    /// with memoization; shared subgraphs compile once).
    sat::Lit compile(ExprId id, sat::Solver* solver);

    /// Asserts that \p id holds, exploiting top-level AND/OR structure to
    /// avoid auxiliary variables where possible.
    void assert_true(ExprId id, sat::Solver* solver);

    /// Number of live nodes (for the substrate micro-benchmarks).
    std::size_t num_nodes() const { return nodes_.size(); }

    /// Evaluates the expression under a concrete assignment of solver
    /// variables (how mtm::EncodingBuilder reads a placement guard off a
    /// model without compiling it).
    bool evaluate(ExprId id, const std::function<bool(sat::Var)>& value_of) const;

  private:
    enum class Op : std::uint8_t { kConst, kVar, kNot, kAnd, kOr };

    struct Node {
        Op op;
        std::int32_t a = -1;  // child or solver var
        std::int32_t b = -1;  // second child
    };

    struct NodeKey {
        std::uint8_t op;
        std::int32_t a;
        std::int32_t b;
        bool operator==(const NodeKey&) const = default;
    };
    struct NodeKeyHash {
        std::size_t operator()(const NodeKey& k) const
        {
            std::size_t h = k.op;
            h = h * 1000003u + static_cast<std::size_t>(k.a + 7);
            h = h * 1000003u + static_cast<std::size_t>(k.b + 7);
            return h;
        }
    };

    ExprId intern(Op op, std::int32_t a, std::int32_t b);

    std::vector<Node> nodes_;
    std::unordered_map<NodeKey, ExprId, NodeKeyHash> interned_;
    std::unordered_map<ExprId, sat::Lit> compiled_;
    sat::Solver* compiled_for_ = nullptr;
};

}  // namespace transform::rel
