/// \file
/// The incremental assumption-based probe session: the second front-end,
/// beside ProgramEncoding, of the one execution-space builder
/// (mtm::EncodingBuilder, encoding_detail.h). One live sat::Solver per
/// probe session hosts a *structure-lifetime* base encoding shared by every
/// candidate program with the same skeleton structure, and each candidate
/// is solved purely under assumptions — no per-candidate clause emission
/// at all.
///
/// The split exploits how the skeleton enumerator orders candidates:
/// siblings differing only in VA assignment and Wpte target-PA choice are
/// enumerated contiguously (the "structure" — event kinds, threads, ghost
/// parents, remap links and rmw pairs — changes last). The session builds
/// one superset encoding per structure by handing the builder *selector*
/// variables as its VA and target-PA placement rows where ProgramEncoding
/// hands it constants, compiles the axiom circuit once, and pins each
/// concrete candidate with one positive selector assumption per placement
/// slot. Placement-validity rules that the fresh encoding's constant rows
/// fold into its candidate sets (same-VA rf pairing, walk/INVLPG blocking,
/// provenance VA matching, co_pa target-PA classes) stay selector-guarded
/// base clauses here, so unit propagation under the pinned selectors
/// retires every invalid choice variable — the per-candidate assumption
/// vector stays a handful of literals.
///
/// AllSAT blocking clauses are the only per-candidate clauses and carry a
/// per-candidate activation literal; advancing to the next candidate
/// retires the literal (one unit clause) instead of resetting the solver,
/// so learned clauses survive across a whole structure and reduce_db keeps
/// managing the learned set as usual. The solver is reset only when the
/// structure itself changes.
///
/// Structures are not visited contiguously, though: the enumerator's last
/// stages (rmw marking, linking variants) ping-pong between a handful of
/// nearby structures. The session therefore keeps a small cache of built
/// bases keyed by the structure signature — each base owns its solver,
/// factory and projection templates, and revisiting a cached signature
/// swaps the frozen base back in (bases_reused) instead of rebuilding
/// (bases_built). The va_eq selector circuits inside a base are built
/// lazily, on the first constraint that touches a pair — all before the
/// projection freeze, so the no-clauses-after-freeze discipline holds.
///
/// Contract against a fresh ProgramEncoding (asserted by
/// tests/sat_incremental_test and the engine's replay discipline): for
/// every candidate, the verdict (does a violating execution exist / how
/// many are there) and the set of enumerated executions match
/// ProgramEncoding::enumerate exactly; only the *order* models stream in
/// may differ, because the live solver's heuristic state carries over.
/// Callers that need a first-found witness that depends on the program
/// alone (the synthesis engine) replay accepted candidates through
/// ProgramEncoding.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "elt/execution.h"
#include "elt/program.h"
#include "mtm/model.h"
#include "sat/solver.h"

namespace transform::mtm {

/// One incremental encoding session. Not shareable between concurrent
/// queries; each synthesis worker owns one per target axiom.
class IncrementalEncoding {
  public:
    IncrementalEncoding();
    ~IncrementalEncoding();
    IncrementalEncoding(const IncrementalEncoding&) = delete;
    IncrementalEncoding& operator=(const IncrementalEncoding&) = delete;
    IncrementalEncoding(IncrementalEncoding&&) noexcept;
    IncrementalEncoding& operator=(IncrementalEncoding&&) noexcept;

    /// See ProgramEncoding::ExecutionVisitor — same contract, including
    /// buffer reuse between models.
    using ExecutionVisitor = std::function<bool(const elt::Execution&)>;

    /// (Re)configures the session for a run: the model and violated axiom
    /// every subsequent enumerate() queries (empty \p axiom_name = no
    /// axiom filter, enumerate all well-formed executions), and the
    /// symbolic-domain bounds every candidate must fit in — \p max_vas
    /// bounds every event's VA index, \p max_pas bounds num_pas() and
    /// every Wpte's map_pa. Drops any live or cached base encoding, so the
    /// next enumerate() starts from a freshly built base; the session's
    /// timing, conflict budget, interrupt, observer and cache capacity
    /// stay as set.
    void configure(const Model* model, std::string axiom_name, int max_vas,
                   int max_pas);

    /// Streams every well-formed execution of \p program violating the
    /// configured axiom. Verdict and model count match
    /// ProgramEncoding::enumerate on the same program; model order may
    /// differ (see file comment). Returns false iff the visitor stopped
    /// the enumeration early. The program must share the configured
    /// model's VM-awareness and fit the configured domain bounds.
    bool enumerate(const elt::Program& program, const ExecutionVisitor& visit);

    /// Enables/disables solve-wall-clock accounting on every solver the
    /// session holds or later creates (cached bases included).
    void set_timing(bool enabled);

    /// Applies a persistent per-solve conflict budget (0 = unlimited) to
    /// every solver the session holds or later creates. A budget-exhausted
    /// candidate query makes enumerate() throw sat::BudgetExhausted — the
    /// engine treats that as a retryable shard fault (docs/robustness.md).
    void set_conflict_budget(std::int64_t budget);

    /// Installs a cooperative interrupt hook (see sat::Solver::set_interrupt)
    /// on every solver the session holds or later creates. An interrupted
    /// candidate query makes enumerate() return false, like a visitor veto;
    /// the cancelled caller discards the partial result.
    void set_interrupt(std::function<bool()> poll);

    /// Installs a per-solve latency observer (see
    /// sat::Solver::set_solve_observer) on every solver the session holds
    /// or later creates. Fires only under set_timing(true).
    void set_solve_observer(std::function<void(std::uint64_t)> observer);

    /// Merged lifetime counters across every solver the session ever
    /// owned (live base, cached bases, evicted bases' folded epochs),
    /// plus the session's bases_built/bases_reused. This is what the
    /// engine merges into SuiteResult::solver.
    sat::SolverStats lifetime_stats() const;

    /// Caps how many structure bases the session retains, the live one
    /// included. 0 and 1 both mean no caching (every structure change
    /// rebuilds — the pre-cache behavior, kept reachable for the
    /// differential tests). Takes effect at the next enumerate();
    /// shrinking evicts least-recently-used bases. Default 8.
    void set_base_cache_capacity(int capacity);

    /// Session-level reuse counters.
    struct SessionStats {
        std::uint64_t candidates = 0;   ///< enumerate() calls served
        std::uint64_t bases_built = 0;  ///< bases built from scratch
        std::uint64_t bases_reused = 0; ///< cache hits (frozen base swapped
                                        ///  back in, no solver reset)
    };
    const SessionStats& session_stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace transform::mtm
