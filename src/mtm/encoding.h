/// \file
/// The SAT-based execution-space backend: a relational (Kodkod-style)
/// encoding of all well-formed candidate executions of a fixed ELT program,
/// mirroring how the paper's Alloy pipeline turns MTM questions into SAT.
///
/// Given a program, the encoding introduces choice variables for the
/// communication witnesses (rf sources, translation sources, coherence
/// orders, alias-creation orders), constrains them by the placement rules of
/// section IV-A, builds the Table-I relations as boolean circuits, and
/// expresses each axiom of the model symbolically. Queries:
///  - does some execution violate a given axiom? (forbidden outcome exists)
///  - does some execution satisfy the whole transistency predicate?
///  - enumerate every execution (optionally filtered), used both by the
///    synthesis engine's SAT backend and to cross-check the explicit
///    enumerator (they must agree — see tests/integration).
///
/// Enumeration is streaming: the solver produces one model at a time and
/// the visitor decides whether to continue, so a caller looking for the
/// first qualifying witness (synth::find_witnesses) stops the AllSAT loop
/// right there instead of paying for the whole violating space up front.
/// The vector-returning overload is a thin materializing wrapper kept for
/// the cross-check tests and elt_check.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "elt/execution.h"
#include "mtm/model.h"
#include "rel/bool_factory.h"
#include "sat/solver.h"

namespace transform::mtm {

/// Statistics from one encoded query.
struct EncodingStats {
    int variables = 0;
    int circuit_nodes = 0;
    std::uint64_t models = 0;
};

/// Reusable substrate for ProgramEncoding queries: the expression arena,
/// the CDCL solver, and the per-query Build containers (witness-choice
/// maps, one-hot PA vectors, derived-relation RelExpr matrices), all reset
/// with capacities kept at the start of every query. The synthesis engine
/// owns one per worker and threads it through millions of per-program
/// encodings; without one, each ProgramEncoding query builds and tears
/// down everything. Not shareable between concurrent queries.
struct EncodingScratch {
    EncodingScratch();
    ~EncodingScratch();
    EncodingScratch(const EncodingScratch&) = delete;
    EncodingScratch& operator=(const EncodingScratch&) = delete;
    EncodingScratch(EncodingScratch&&) noexcept;
    EncodingScratch& operator=(EncodingScratch&&) noexcept;

    rel::BoolFactory factory;
    sat::Solver solver;

    /// The pooled Build containers (opaque here: the layout is a private
    /// contract of encoding.cpp).
    struct Pool;
    std::unique_ptr<Pool> pool;
};

/// Relational encoding of one program's execution space under a model.
class ProgramEncoding {
  public:
    /// The program must pass Program::validate(); the model selects both the
    /// axiom set and VM-awareness. \p scratch, when given, must outlive the
    /// encoding and provides the factory/solver storage every query reuses.
    ProgramEncoding(elt::Program program, const Model* model,
                    EncodingScratch* scratch = nullptr);

    /// True when some well-formed execution violates \p axiom_name.
    bool exists_violating(const std::string& axiom_name);

    /// True when some well-formed execution satisfies every axiom.
    bool exists_permitted();

    /// True when the program admits any well-formed execution at all.
    bool exists_execution();

    /// Returns a witness execution violating \p axiom_name, if any.
    std::optional<elt::Execution> find_violating(const std::string& axiom_name);

    /// A visitor for streaming enumeration: return true to keep enumerating,
    /// false to stop the solver. The Execution reference is only valid for
    /// the duration of the call (its buffers are reused between models).
    using ExecutionVisitor = std::function<bool(const elt::Execution&)>;

    /// Streams every well-formed execution to \p visit in a fixed solver
    /// order; when \p violating_axiom is non-empty only executions violating
    /// that axiom are produced. Each model is extracted into a reused
    /// buffer — no per-execution allocation in steady state — and the
    /// blocking clause is added only if the visitor continues. Returns
    /// false iff the visitor stopped the enumeration early.
    bool enumerate(const std::string& violating_axiom,
                   const ExecutionVisitor& visit);

    /// Materializing wrapper over the streaming form: collects the visited
    /// executions (in the same order). \p max_executions <= 0 means
    /// unlimited.
    std::vector<elt::Execution> enumerate(const std::string& violating_axiom = "",
                                          int max_executions = -1);

    /// Stats from the most recent query.
    const EncodingStats& stats() const { return stats_; }

    /// Per-query encoding state (defined in encoding.cpp; public so the
    /// extraction helpers there can reach it, but not part of the API).
    struct Build;

  private:
    elt::Program program_;
    const Model* model_;
    EncodingScratch* scratch_;          ///< the substrate queries build in
    std::unique_ptr<EncodingScratch> owned_scratch_;  ///< when none supplied
    EncodingStats stats_;
};

}  // namespace transform::mtm
