#include "synth/minimality.h"

#include "elt/derive.h"
#include "mtm/relax.h"
#include "obs/alloc.h"
#include "util/logging.h"

namespace transform::synth {

bool
contains_write(const elt::Program& program)
{
    for (elt::EventId id = 0; id < program.num_events(); ++id) {
        if (elt::is_write_like(program.event(id).kind)) {
            return true;
        }
    }
    return false;
}

namespace {

/// One implementation behind every judge overload; \p diagnostics selects
/// whether the string fields (violated names, blocking_relaxation) are
/// filled — the scratch-reusing hot path skips them. A non-null
/// \p known_violated is the caller's mask for the already-derived,
/// well-formed execution, which then is not derived again.
MinimalityVerdict
judge_impl(const mtm::Model& model, const elt::Execution& execution,
           const mtm::AxiomMask* known_violated, JudgeScratch* scratch,
           bool diagnostics)
{
    MinimalityVerdict verdict;
    // Verdict-side allocations (violated-name strings, relaxation-list
    // growth) carry their own call-site bucket in the alloc breakdown.
    const obs::ScopedAllocSite alloc_site(
        obs::AllocSite::kSiteJudgeVerdict);
    {
        obs::ScopedPhase judge_phase(scratch->metrics, scratch->worker,
                                     obs::Phase::kJudge);
        if (known_violated != nullptr) {
            verdict.violated_mask = *known_violated;
        } else {
            elt::derive_into(execution, model.derive_options(),
                             &scratch->derived, &scratch->derive);
            if (!scratch->derived.well_formed) {
                return verdict;  // not even a candidate
            }
            verdict.violated_mask = model.violated_mask(
                execution.program, scratch->derived, &scratch->derive.cycle);
        }
        if (diagnostics) {
            verdict.violated = model.mask_names(verdict.violated_mask);
        }
        verdict.interesting =
            contains_write(execution.program) && verdict.violated_mask != 0;
        if (!verdict.interesting) {
            return verdict;
        }
        mtm::applicable_relaxations_into(execution.program,
                                         &scratch->relax.relaxations);
    }
    // Minimality: every isolated relaxation must be permitted. Each relaxed
    // execution is rebuilt into scratch->relax (kRelax phase), then derived
    // into the same reused relations as the original (kJudge phase — the
    // original's relations are no longer needed at this point) through
    // its index's derivation scratch.
    const std::vector<mtm::Relaxation>& relaxations =
        scratch->relax.relaxations;
    if (scratch->relaxed.size() < relaxations.size()) {
        scratch->relaxed.resize(relaxations.size());
    }
    for (std::size_t i = 0; i < relaxations.size(); ++i) {
        const mtm::Relaxation& relaxation = relaxations[i];
        const elt::Execution* relaxed = nullptr;
        {
            obs::ScopedPhase relax_phase(scratch->metrics, scratch->worker,
                                         obs::Phase::kRelax);
            relaxed = &mtm::apply_relaxation_into(
                execution, relaxation, model.vm_aware(), &scratch->relax);
        }
        if (relaxed->program.num_events() == 0) {
            continue;  // the relaxation emptied the test: trivially permitted
        }
        obs::ScopedPhase judge_phase(scratch->metrics, scratch->worker,
                                     obs::Phase::kJudge);
        elt::derive_into(*relaxed, model.derive_options(), &scratch->derived,
                         &scratch->relaxed[i]);
        // An ill-formed relaxed execution is trivially permitted (the
        // string API reported it as the "well_formed" pseudo-axiom, which
        // the old code did not count as still-forbidden either). Which
        // axioms a relaxation violates does not matter, so the verdict
        // stops at the first one.
        const bool still_forbidden =
            scratch->derived.well_formed &&
            model.violates_any(relaxed->program, scratch->derived,
                               &scratch->derive.cycle);
        if (still_forbidden) {
            if (diagnostics) {
                verdict.blocking_relaxation =
                    relaxation.describe(execution.program);
            }
            return verdict;  // minimal stays false
        }
    }
    verdict.minimal = true;
    return verdict;
}

}  // namespace

MinimalityVerdict
judge(const mtm::Model& model, const elt::Execution& execution)
{
    JudgeScratch scratch;
    return judge_impl(model, execution, nullptr, &scratch,
                      /*diagnostics=*/true);
}

MinimalityVerdict
judge(const mtm::Model& model, const elt::Execution& execution,
      JudgeScratch* scratch)
{
    return judge_impl(model, execution, nullptr, scratch,
                      /*diagnostics=*/false);
}

MinimalityVerdict
judge(const mtm::Model& model, const elt::Execution& execution,
      mtm::AxiomMask violated, JudgeScratch* scratch)
{
    return judge_impl(model, execution, &violated, scratch,
                      /*diagnostics=*/false);
}

}  // namespace transform::synth
