/// \file
/// The spanning-set criteria of section IV-B: a synthesized candidate
/// execution enters the suite iff it is *interesting* (contains a write and
/// has a forbidden outcome) and *minimal* (every isolated relaxation of the
/// test makes the outcome permitted).
///
/// Judging is the second-hottest call in the synthesis inner loop: every
/// violating candidate execution X has each of its relaxations decided.
/// Most relaxations only delete events: no surviving event reads from a
/// deleted one, translates through a deleted walk, or takes its mapping
/// from a deleted Wpte. Such a relaxation is a *restriction* of X, and the
/// relaxed execution's relations are X's relations on the survivors
/// (except `fence` when an MFENCE goes and `rmw` when an rmw pair is
/// dropped). The judge decides each relaxation in three steps:
///  1. the cycle core: for a violated axiom that is acyclic over a plain
///     union of base relations, a restriction whose removal group misses
///     the union's cycle core, and which changes no member of the union,
///     keeps the violation;
///  2. the restricted verdict: any other restriction but an MFENCE removal
///     runs the axioms over X's rows masked to the survivors;
///  3. the rest is rebuilt (mtm/relax.h) and derived again.
/// Each step decides exactly, so the verdict is the one that rebuilding
/// every relaxation gives. docs/performance.md has the argument.
///
/// The judge comes in three forms: the diagnostic `judge(model,
/// execution)` that fills the string fields, the scratch-reusing overload,
/// which never touches a string on the accept path, and the overload the
/// engine calls, which also takes the caller's derivation and verdict mask
/// so the execution itself is not derived a second time.
#pragma once

#include <string>
#include <vector>

#include "elt/execution.h"
#include "mtm/model.h"
#include "mtm/relax.h"
#include "obs/metrics.h"

namespace transform::synth {

/// Reusable buffers for judge: the derived relations of the execution and
/// of one relaxed execution at a time, the derivation scratches, the
/// relaxation-rebuild scratch (each rebuilt execution is built into
/// relax.relaxed rather than materialized per relaxation), and the
/// relaxations of the last program judged. One per worker; not shareable
/// between concurrent judges.
struct JudgeScratch {
    /// The execution's relations, when the judge derives them itself.
    elt::DerivedRelations derived;
    /// A relaxed execution's relations: the execution's restricted to the
    /// survivors, or a rebuilt execution's derivation.
    elt::DerivedRelations relaxed_derived;
    /// Derives the execution itself, and holds the axiom arena.
    elt::DeriveScratch derive;
    /// relaxed[i] derives the rebuilt execution of relaxation i. A
    /// candidate's judge calls rebuild the same relaxed program at each
    /// index, so each scratch keeps that program's static facts.
    std::vector<elt::DeriveScratch> relaxed;
    mtm::RelaxScratch relax;
    /// The relaxations of `program` and, beside each, its removal group
    /// (mtm::removal_group). Both depend on the program alone, so they are
    /// kept while the judged program stays the same, compared by content
    /// as elt::ProgramFacts is (the empty program has none).
    elt::Program program;
    std::vector<mtm::Relaxation> relaxations;
    std::vector<elt::BitRow> groups;
    /// Per relaxation, for the execution being judged: 1 when it is a
    /// restriction of the execution.
    std::vector<char> restriction;
    /// When set, the scratch-reusing judge overloads attribute their own
    /// time to Phase::kJudge and the relaxation rebuilds to Phase::kRelax
    /// on \p worker's cell: a call enters kJudge once, and each rebuild
    /// enters kRelax and then kJudge for its derivation.
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
    /// For non-minimal candidates: description of the relaxation that
    /// settled the verdict, which stays forbidden (diagnostic overload
    /// only).
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
/// into \p derived (well-formed) and masked: \p violated must equal
/// model.violated_mask of \p execution. The verdict is identical to the
/// other overloads'. The engine's witness search calls this, so each
/// candidate execution is derived once.
MinimalityVerdict judge(const mtm::Model& model,
                        const elt::Execution& execution,
                        const elt::DerivedRelations& derived,
                        mtm::AxiomMask violated, JudgeScratch* scratch);

/// The step of the judge that decides a relaxation (see the file comment).
enum class JudgeStep : unsigned char {
    kCycleCore,   ///< step 1: a kept cycle core (only ever forbidden)
    kRestricted,  ///< step 2: the axioms over the restricted rows
    kRebuilt,     ///< step 3: the rebuilt relaxation, derived
};

/// How the judge decides one relaxation.
struct RelaxationVerdict {
    JudgeStep step = JudgeStep::kRebuilt;
    bool forbidden = false;  ///< the relaxed execution stays forbidden
};

/// Decides every relaxation of \p execution as judge does, without
/// stopping at a blocking one: entry i is the verdict on
/// scratch->relaxations[i]. \p derived and \p violated are as for the
/// engine's overload. The tests hold each step to the rebuilt relaxation.
std::vector<RelaxationVerdict> judge_relaxations(
    const mtm::Model& model, const elt::Execution& execution,
    const elt::DerivedRelations& derived, mtm::AxiomMask violated,
    JudgeScratch* scratch);

}  // namespace transform::synth
