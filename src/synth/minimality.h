/// \file
/// The spanning-set criteria of section IV-B: a synthesized candidate
/// execution enters the suite iff it is *interesting* (contains a write and
/// has a forbidden outcome) and *minimal* (every isolated relaxation of the
/// test makes the outcome permitted).
///
/// Judging is the second-hottest call in the synthesis inner loop (one
/// derivation per relaxation of every violating candidate), so it comes in
/// three forms: the diagnostic `judge(model, execution)` that fills the
/// string fields, the scratch-reusing overload, which derives every relaxed
/// execution into reused buffers and never touches a string on the accept
/// path, and the overload the engine calls, which also takes the caller's
/// verdict mask so the execution itself is not derived a second time.
#pragma once

#include <string>
#include <vector>

#include "elt/execution.h"
#include "mtm/model.h"
#include "mtm/relax.h"
#include "obs/metrics.h"

namespace transform::synth {

/// Reusable buffers for judge: the derived relations of the execution (and
/// of each relaxed execution, sequentially), the derivation scratches, and
/// the relaxation-rebuild scratch (each relaxed execution is built into
/// relax.relaxed rather than materialized per relaxation). One per worker;
/// not shareable between concurrent judges.
struct JudgeScratch {
    elt::DerivedRelations derived;
    /// Derives the execution itself, and holds the axiom arena.
    elt::DeriveScratch derive;
    /// relaxed[i] derives the execution of relaxation i. A candidate's
    /// judge calls rebuild the same relaxed program at each index, so each
    /// scratch keeps that program's static facts from call to call.
    std::vector<elt::DeriveScratch> relaxed;
    mtm::RelaxScratch relax;
    /// When set, the scratch-reusing judge overload attributes its own time
    /// to Phase::kJudge and the relaxation rebuilds to Phase::kRelax on
    /// \p worker's cell (the engine no longer wraps the call site).
    obs::MetricsRegistry* metrics = nullptr;
    int worker = 0;
};

/// Result of judging one candidate.
struct MinimalityVerdict {
    bool interesting = false;
    bool minimal = false;
    /// Axioms the candidate violates, as a bitset over model.axioms().
    mtm::AxiomMask violated_mask = 0;
    /// Axiom names (filled by the diagnostic judge overload only; the
    /// scratch overload leaves it empty and reports via violated_mask).
    std::vector<std::string> violated;
    /// For non-minimal candidates: description of a relaxation that stays
    /// forbidden (diagnostic overload only).
    std::string blocking_relaxation;
};

/// True when the execution contains at least one write-like event (the
/// paper's first vector-space criterion).
bool contains_write(const elt::Program& program);

/// Judges a candidate execution against \p model: computes the violated
/// axioms, the interesting criterion, and minimality under the restricted
/// relaxations of mtm/relax.h. Fills the diagnostic string fields.
MinimalityVerdict judge(const mtm::Model& model,
                        const elt::Execution& execution);

/// As judge, but reuses \p scratch for every derivation and skips the
/// diagnostic strings (violated stays empty, violated_mask is authoritative;
/// blocking_relaxation stays empty). The interesting/minimal verdict is
/// identical to the diagnostic overload.
MinimalityVerdict judge(const mtm::Model& model,
                        const elt::Execution& execution,
                        JudgeScratch* scratch);

/// As the scratch overload, for an execution the caller has already derived
/// (well-formed) and masked: \p violated must equal model.violated_mask of
/// \p execution. Only the relaxations are derived; the verdict is identical
/// to the other overloads'. The engine's witness search calls this, so each
/// candidate execution is derived once.
MinimalityVerdict judge(const mtm::Model& model,
                        const elt::Execution& execution,
                        mtm::AxiomMask violated, JudgeScratch* scratch);

}  // namespace transform::synth
