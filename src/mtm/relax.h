/// \file
/// The paper's restricted relaxations (section IV-B): the minimality
/// criterion requires a forbidden candidate execution to become permitted
/// under *every* isolated relaxation.
///
/// A relaxation removes one "removal group" — an event together with the
/// events that cannot legally outlive it:
///  - a user-facing MemoryEvent goes together with its ghost instructions
///    (a page-table walk whose TLB entry sources other accesses is
///    re-parented to the earliest surviving user instead of vanishing);
///  - a Wpte goes together with the Invlpgs it remap-invoked;
///  - a spurious Invlpg or an Mfence is removed in isolation;
///  - an rmw dependency may be dropped without removing events.
///
/// The events a relaxation deletes depend on the program alone (its
/// removal group, removal_group) but for one exception: a walk that a
/// surviving access still translates through is kept.
///
/// After removal, witnesses are restricted and repaired deterministically:
/// reads sourced by a removed write fall back to the initial state,
/// coherence positions are re-compacted preserving order, and rf edges
/// invalidated by changed address resolution are dropped.
///
/// The minimality judge applies every relaxation of every forbidden
/// candidate, so application comes in two forms (the derive/derive_into
/// discipline): the materializing `apply_relaxation` / `remove_events`,
/// and `_into` twins that rebuild the relaxed program and witnesses into a
/// caller-owned RelaxScratch — flat remap/grouping arrays instead of
/// per-call maps, reused event vectors, no steady-state allocation.
#pragma once

#include <string>
#include <vector>

#include "elt/derive.h"
#include "elt/execution.h"

namespace transform::mtm {

/// One applicable relaxation of an execution.
struct Relaxation {
    enum class Kind {
        kRemoveUserEvent,    ///< user Read/Write + its ghosts
        kRemoveWpte,         ///< Wpte + its remap Invlpgs
        kRemoveSpuriousInvlpg,
        kRemoveMfence,
        kDropRmw,            ///< drop one rmw dependency
    };
    Kind kind;
    /// Event removed (or the rmw pair index for kDropRmw).
    int target;
    std::string describe(const elt::Program& program) const;
};

/// Enumerates every relaxation applicable to the execution's program.
std::vector<Relaxation> applicable_relaxations(const elt::Program& program);

/// As applicable_relaxations(), writing into \p out (cleared first,
/// capacity kept) — the judge's per-candidate enumeration without the
/// per-call vector.
void applicable_relaxations_into(const elt::Program& program,
                                 std::vector<Relaxation>* out);

/// Reusable storage for the `_into` relaxation paths. Owns the relaxed
/// execution the twins return a reference to — valid until the next
/// `_into` call on the same scratch. One per worker; not shareable
/// between concurrent relaxations.
struct RelaxScratch {
    /// The relaxed execution (output slot, rebuilt in place per call).
    elt::Execution relaxed;

    // Rebuild working set (removal closure, id remapping, coherence
    // re-compaction rows) — internal to the twins.
    std::vector<char> removed;
    std::vector<elt::EventId> new_parent;
    std::vector<elt::EventId> remap_id;
    std::vector<int> old_pos;
    struct Row {
        int key;  ///< coherence-class key (VA / resolved PA / target PA)
        int pos;  ///< translated old position (order preserved within key)
        elt::EventId id;
    };
    std::vector<Row> rows;
    /// Address re-resolution over the rebuilt program.
    elt::ResolutionResult resolution;
    elt::DeriveScratch resolve;
};

/// The removal group of \p relaxation, one bit per event of \p program:
/// the events it deletes before the exception above. The seed goes; the
/// ghosts of a removed user event follow it; the remap INVLPGs of a
/// removed Wpte follow it; a spurious INVLPG or an INVLPGALL follows when
/// no surviving same-core access (of its VA, for a targeted INVLPG) comes
/// after it. kDropRmw deletes nothing. \p program has at most
/// elt::kMaxBitEvents events; \p scratch lends its working rows.
elt::BitRow removal_group(const elt::Program& program,
                          const Relaxation& relaxation, RelaxScratch* scratch);

/// Applies one relaxation, producing the relaxed execution (with witnesses
/// restricted and repaired as described above). \p vm_enabled must match
/// the model's VM-awareness (MCM executions carry no translations).
elt::Execution apply_relaxation(const elt::Execution& execution,
                                const Relaxation& relaxation,
                                bool vm_enabled = true);

/// As apply_relaxation(), rebuilding into \p scratch and returning a
/// reference to scratch->relaxed (valid until the next call). Field-
/// identical to the materializing overload on the same inputs — asserted
/// by the differential battery in tests/relax_test.cpp.
const elt::Execution& apply_relaxation_into(const elt::Execution& execution,
                                            const Relaxation& relaxation,
                                            bool vm_enabled,
                                            RelaxScratch* scratch);

/// Removes an arbitrary set of *user/support* events (with their dependent
/// ghosts and Invlpgs pulled in automatically) — used by the comparison
/// tool's category-2 reduction search. Events are identified by id in the
/// original program. Returns the reduced execution.
elt::Execution remove_events(const elt::Execution& execution,
                             const std::vector<elt::EventId>& to_remove,
                             bool vm_enabled = true);

/// As remove_events(), rebuilding into \p scratch (same reference contract
/// as apply_relaxation_into).
const elt::Execution& remove_events_into(
    const elt::Execution& execution,
    const std::vector<elt::EventId>& to_remove, bool vm_enabled,
    RelaxScratch* scratch);

}  // namespace transform::mtm
