#include "synth/minimality.h"

#include <bit>

#include "elt/derive.h"
#include "mtm/relax.h"
#include "obs/alloc.h"
#include "spec/ast.h"
#include "spec/eval.h"
#include "util/logging.h"

namespace transform::synth {

using elt::BitRow;
using elt::DerivedRelations;
using elt::EventId;
using mtm::Relaxation;

bool
contains_write(const elt::Program& program)
{
    for (EventId id = 0; id < program.num_events(); ++id) {
        if (elt::is_write_like(program.event(id).kind)) {
            return true;
        }
    }
    return false;
}

namespace {

constexpr BitRow
bit(int index)
{
    return BitRow{1} << index;
}

/// The base relations a restriction changes beyond deleting its group:
/// `fence` loses the pairs a removed MFENCE ordered, and `rmw` the
/// dropped pair.
unsigned
changed_bases(Relaxation::Kind kind)
{
    switch (kind) {
    case Relaxation::Kind::kRemoveMfence:
        return 1u << static_cast<int>(spec::BaseRel::kFence);
    case Relaxation::Kind::kDropRmw:
        return 1u << static_cast<int>(spec::BaseRel::kRmw);
    default:
        return 0;
    }
}

/// Refills the scratch's relaxations and their removal groups unless
/// they are already \p program's.
void
cache_relaxations(const elt::Program& program, JudgeScratch* scratch)
{
    if (scratch->program == program) {
        return;
    }
    scratch->program = program;
    mtm::applicable_relaxations_into(program, &scratch->relaxations);
    scratch->groups.clear();
    for (const Relaxation& relaxation : scratch->relaxations) {
        scratch->groups.push_back(
            mtm::removal_group(program, relaxation, &scratch->relax));
    }
    if (scratch->relaxed.size() < scratch->relaxations.size()) {
        scratch->relaxed.resize(scratch->relaxations.size());
    }
}

/// Marks the relaxations that are restrictions of the execution \p x: no
/// event outside the group reads from one inside it (rf, on data and PTE
/// locations), translates through one of its walks (rf_ptw), or takes its
/// mapping from one of its Wptes (provenance: a Wdb copies its coherence
/// predecessor's mapping, which rf does not show). Every survivor then
/// keeps its source, its walk and its resolved PA, no walk is kept or
/// re-parented, and the relaxed execution is well-formed with X's
/// relations on the survivors.
void
mark_restrictions(const DerivedRelations& x, JudgeScratch* scratch)
{
    BitRow readers[elt::kMaxBitEvents];
    for (EventId a = 0; a < x.num_events; ++a) {
        readers[a] = x.rf[a] | x.rf_ptw[a];
    }
    for (EventId e = 0; e < static_cast<EventId>(x.provenance.size()); ++e) {
        const EventId source = x.provenance[e];
        if (source != elt::kNone && source != e) {
            readers[source] |= bit(e);
        }
    }
    scratch->restriction.resize(scratch->relaxations.size());
    for (std::size_t i = 0; i < scratch->relaxations.size(); ++i) {
        const BitRow group = scratch->groups[i];
        BitRow read = 0;
        for (BitRow rest = group; rest != 0; rest &= rest - 1) {
            read |= readers[std::countr_zero(rest)];
        }
        scratch->restriction[i] = (read & ~group) == 0;
    }
}

/// The cycle cores of X's violated axioms that are acyclic over a plain
/// union of base relations, with each union's members.
struct CycleCores {
    BitRow core[mtm::kMaxAxioms];
    unsigned bases[mtm::kMaxAxioms];
    int count = 0;
};

/// The cores of X's violated axioms; each one's row program evaluates its
/// union to the union's rows.
CycleCores
cycle_cores(const mtm::Model& model, mtm::AxiomMask violated,
            const elt::Program& program, const DerivedRelations& x,
            JudgeScratch* scratch)
{
    CycleCores cores;
    for (mtm::AxiomMask rest = violated; rest != 0; rest &= rest - 1) {
        const mtm::Axiom& axiom =
            model.axioms()[static_cast<std::size_t>(std::countr_zero(rest))];
        if (axiom.acyclic_union == 0) {
            continue;
        }
        const BitRow core = elt::rows_cycle_core(
            axiom.program->run(program, x, &scratch->derive.cycle),
            x.num_events);
        if (core != 0) {
            cores.core[cores.count] = core;
            cores.bases[cores.count] = axiom.acyclic_union;
            ++cores.count;
        }
    }
    return cores;
}

/// Step 1, the cycle core: a violated axiom's union has a cycle inside
/// its cycle core. A restriction whose group misses that core and that
/// changes no member of the union keeps every pair of the core, so
/// relaxation \p i stays forbidden when this holds.
bool
keeps_a_core(const CycleCores& cores, const JudgeScratch& scratch,
             std::size_t i)
{
    if (!scratch.restriction[i]) {
        return false;
    }
    const unsigned changed = changed_bases(scratch.relaxations[i].kind);
    for (int c = 0; c < cores.count; ++c) {
        if ((scratch.groups[i] & cores.core[c]) == 0 &&
            (changed & cores.bases[c]) == 0) {
            return true;
        }
    }
    return false;
}

/// True when step 2 decides relaxation \p i: a restriction that removes
/// no MFENCE, whose relaxed relations are X's on the survivors (rmw
/// aside).
bool
restricted(const JudgeScratch& scratch, std::size_t i)
{
    return scratch.restriction[i] &&
           scratch.relaxations[i].kind != Relaxation::Kind::kRemoveMfence;
}

/// Step 2, the restricted verdict on relaxation \p i: every axiom runs
/// over X's rows masked to the survivors (a dropped rmw pair also leaves
/// `rmw`), and its form is checked on the survivors. Exact for every form
/// and operator (see spec::RowProgram::holds).
bool
restricted_forbidden(const mtm::Model& model, const elt::Program& program,
                     const DerivedRelations& x, JudgeScratch* scratch,
                     std::size_t i)
{
    const Relaxation& relaxation = scratch->relaxations[i];
    const BitRow survivors = elt::event_mask(x.num_events) & ~scratch->groups[i];
    DerivedRelations& relaxed = scratch->relaxed_derived;
    elt::restrict_relations(x, survivors, &relaxed);
    if (relaxation.kind == Relaxation::Kind::kDropRmw) {
        const auto& pairs = program.rmw_pairs();
        for (const auto& [r, w] : pairs) {
            relaxed.rmw[r] = 0;
        }
        for (int p = 0; p < static_cast<int>(pairs.size()); ++p) {
            if (p != relaxation.target) {
                relaxed.rmw[pairs[p].first] |= bit(pairs[p].second);
            }
        }
    }
    return model.violates_any(program, relaxed, &scratch->derive.cycle,
                              survivors);
}

/// Step 3 on relaxation \p i: rebuilds it (kRelax phase) and derives it
/// (kJudge phase) through its index's derivation scratch.
bool
rebuilt_forbidden(const mtm::Model& model, const elt::Execution& execution,
                  JudgeScratch* scratch, std::size_t i)
{
    const elt::Execution* relaxed = nullptr;
    {
        obs::ScopedPhase relax_phase(scratch->metrics, scratch->worker,
                                     obs::Phase::kRelax);
        relaxed = &mtm::apply_relaxation_into(
            execution, scratch->relaxations[i], model.vm_aware(),
            &scratch->relax);
    }
    if (relaxed->program.num_events() == 0) {
        return false;  // the relaxation emptied the test: trivially permitted
    }
    obs::ScopedPhase judge_phase(scratch->metrics, scratch->worker,
                                 obs::Phase::kJudge);
    elt::derive_into(*relaxed, model.derive_options(),
                     &scratch->relaxed_derived, &scratch->relaxed[i]);
    // An ill-formed relaxed execution is trivially permitted. Which axioms
    // a relaxation violates does not matter, so the verdict stops at the
    // first one.
    return scratch->relaxed_derived.well_formed &&
           model.violates_any(relaxed->program, scratch->relaxed_derived,
                              &scratch->derive.cycle);
}

/// One implementation behind every judge overload; \p diagnostics selects
/// whether the string fields (violated names, blocking_relaxation) are
/// filled — the scratch-reusing hot path skips them. A non-null \p derived
/// holds the caller's derivation of the well-formed execution, and
/// \p violated its mask; otherwise the execution is derived here.
MinimalityVerdict
judge_impl(const mtm::Model& model, const elt::Execution& execution,
           const DerivedRelations* derived, mtm::AxiomMask violated,
           JudgeScratch* scratch, bool diagnostics)
{
    MinimalityVerdict verdict;
    // Verdict-side allocations (violated-name strings, relaxation-list
    // growth) carry their own call-site bucket in the alloc breakdown.
    const obs::ScopedAllocSite alloc_site(
        obs::AllocSite::kSiteJudgeVerdict);
    const elt::Program& program = execution.program;
    std::size_t count = 0;
    // The first relaxation i < count for which \p blocks holds, or count.
    const auto first = [&count](auto&& blocks) {
        std::size_t i = 0;
        while (i < count && !blocks(i)) {
            ++i;
        }
        return i;
    };
    std::size_t blocking = 0;
    {
        obs::ScopedPhase judge_phase(scratch->metrics, scratch->worker,
                                     obs::Phase::kJudge);
        if (derived == nullptr) {
            elt::derive_into(execution, model.derive_options(),
                             &scratch->derived, &scratch->derive);
            if (!scratch->derived.well_formed) {
                return verdict;  // not even a candidate
            }
            derived = &scratch->derived;
            violated = model.violated_mask(program, *derived,
                                           &scratch->derive.cycle);
        }
        verdict.violated_mask = violated;
        if (diagnostics) {
            verdict.violated = model.mask_names(violated);
        }
        verdict.interesting = contains_write(program) && violated != 0;
        if (!verdict.interesting) {
            return verdict;
        }
        // Minimality: every isolated relaxation must be permitted. Only
        // whether some relaxation blocks matters, and each step decides
        // exactly, so each step runs over every relaxation before the
        // next, costlier one.
        cache_relaxations(program, scratch);
        mark_restrictions(*derived, scratch);
        count = scratch->relaxations.size();
        const CycleCores cores =
            cycle_cores(model, violated, program, *derived, scratch);
        blocking = first([&](std::size_t i) {
            return keeps_a_core(cores, *scratch, i);
        });
        if (blocking == count) {
            blocking = first([&](std::size_t i) {
                return restricted(*scratch, i) &&
                       restricted_forbidden(model, program, *derived, scratch,
                                            i);
            });
        }
    }
    if (blocking == count) {
        blocking = first([&](std::size_t i) {
            return !restricted(*scratch, i) &&
                   rebuilt_forbidden(model, execution, scratch, i);
        });
    }
    if (blocking < count) {
        if (diagnostics) {
            verdict.blocking_relaxation =
                scratch->relaxations[blocking].describe(program);
        }
        return verdict;  // minimal stays false
    }
    verdict.minimal = true;
    return verdict;
}

}  // namespace

MinimalityVerdict
judge(const mtm::Model& model, const elt::Execution& execution)
{
    JudgeScratch scratch;
    return judge_impl(model, execution, nullptr, 0, &scratch,
                      /*diagnostics=*/true);
}

MinimalityVerdict
judge(const mtm::Model& model, const elt::Execution& execution,
      JudgeScratch* scratch)
{
    return judge_impl(model, execution, nullptr, 0, scratch,
                      /*diagnostics=*/false);
}

MinimalityVerdict
judge(const mtm::Model& model, const elt::Execution& execution,
      const DerivedRelations& derived, mtm::AxiomMask violated,
      JudgeScratch* scratch)
{
    return judge_impl(model, execution, &derived, violated, scratch,
                      /*diagnostics=*/false);
}

std::vector<RelaxationVerdict>
judge_relaxations(const mtm::Model& model, const elt::Execution& execution,
                  const DerivedRelations& derived, mtm::AxiomMask violated,
                  JudgeScratch* scratch)
{
    cache_relaxations(execution.program, scratch);
    mark_restrictions(derived, scratch);
    const CycleCores cores = cycle_cores(model, violated, execution.program,
                                         derived, scratch);
    std::vector<RelaxationVerdict> verdicts;
    for (std::size_t i = 0; i < scratch->relaxations.size(); ++i) {
        if (keeps_a_core(cores, *scratch, i)) {
            verdicts.push_back({JudgeStep::kCycleCore, true});
        } else if (restricted(*scratch, i)) {
            verdicts.push_back(
                {JudgeStep::kRestricted,
                 restricted_forbidden(model, execution.program, derived,
                                      scratch, i)});
        } else {
            verdicts.push_back(
                {JudgeStep::kRebuilt,
                 rebuilt_forbidden(model, execution, scratch, i)});
        }
    }
    return verdicts;
}

}  // namespace transform::synth
