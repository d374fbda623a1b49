/// \file
/// Derivation of the full Table-I relation set from a candidate execution,
/// plus well-formedness checking (the paper's "placement rules", section IV-A).
///
/// Derivation performs address-translation value resolution: each data
/// access's physical address is resolved through the TLB entry it reads
/// (rf_ptw), whose mapping value comes from what the page-table walk read
/// (a Wpte's new mapping, a Wdb's preserved mapping, or the initial
/// mapping). Dirty-bit writes preserve their parent's resolved mapping, so
/// resolution is a fixpoint over a dependency graph; cyclic value
/// dependencies render the execution ill-formed.
///
/// Every relation is a set of bit rows: one 64-bit adjacency row per event,
/// bit b of row a meaning a -> b. No program has more than kMaxBitEvents
/// events — Program::validate rejects larger ones, so derive marks them
/// ill-formed and no axiom ever sees them.
///
/// The synthesis hot path derives millions of candidate executions; to keep
/// that loop allocation-free, derivation comes in two forms: the
/// convenience `derive()` returning a fresh DerivedRelations, and
/// `derive_into()` which clears and reuses a caller-owned DerivedRelations
/// plus a DeriveScratch holding the resolver state, the program-static
/// facts and the axiom evaluators' arena. Half of a derivation depends on
/// the program alone (validation, program order, ppo, fences, rmw, ghosts,
/// remaps); DeriveScratch keeps that half for the last program it saw,
/// keyed by the program's content, so the executions of one candidate pay
/// for it once. In steady state derive_into makes no heap allocation on a
/// well-formed execution; docs/performance.md has the reuse contract and
/// the measurement.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "elt/execution.h"

namespace transform::elt {

/// Most events a program may have: every event gets one bit of a 64-bit
/// adjacency row (also the cap on elt_synth --bound).
inline constexpr int kMaxBitEvents = 64;

/// One event's successors: bit b set means an edge to event b.
using BitRow = std::uint64_t;

/// A relation over at most kMaxBitEvents events as adjacency rows.
using BitRows = std::array<BitRow, kMaxBitEvents>;

/// The edges of the first \p num_events rows, row by row (sorted and
/// duplicate-free) — how printers and tests read a relation.
EdgeSet edges_of(const BitRows& rows, int num_events);

/// Every relation of Table I (plus the auxiliary ones the x86t_elt axioms
/// need), derived from one candidate execution. Rows [0, num_events) of
/// each relation hold its edges; every other row is zero, so two
/// derivations compare equal exactly when their relations do.
struct DerivedRelations {
    bool well_formed = false;
    std::vector<std::string> problems;  ///< non-empty iff !well_formed

    /// Per data access: resolved physical address (kNone if unresolvable).
    std::vector<PaId> resolved_pa;

    /// Per data access: the Wpte that provided its mapping, or kNone when
    /// the initial mapping was used.
    std::vector<EventId> provenance;

    /// The program's event count when well_formed, else 0 (every
    /// relation is then empty).
    int num_events = 0;

    // Baseline MCM relations.
    BitRows po{};       ///< same-thread sequencing of non-ghost events
    BitRows po_loc{};   ///< extended-order pairs at the same coherence class
    BitRows po_mem{};   ///< extended-order pairs over memory events
    BitRows rf{};       ///< write -> read, data (same PA) and PTE locations
    BitRows co{};       ///< coherence order per class
    BitRows fr{};       ///< read -> co-successors of its source
    BitRows rfe{};      ///< rf restricted to cross-thread pairs
    BitRows ppo{};      ///< TSO preserved program order (po_mem minus W->R)
    BitRows fence{};    ///< pairs ordered by an intervening MFENCE
    BitRows rmw{};      ///< declared rmw dependencies

    // Transistency relations (Table I).
    BitRows ghost{};       ///< user event -> invoked ghost
    BitRows rf_ptw{};      ///< page-table walk -> users of its TLB entry
    BitRows rf_pa{};       ///< Wpte -> accesses using its mapping
    BitRows co_pa{};       ///< alias-creation order per PA
    BitRows fr_pa{};       ///< access -> co_pa-successors of its mapping source
    BitRows fr_va{};       ///< access -> later Wptes remapping its VA
    BitRows remap{};       ///< Wpte -> the Invlpgs it invokes
    BitRows ptw_source{};  ///< walk's parent -> other users of the walk

    /// Empties every relation (zeroing only the rows in use) and clears
    /// the vectors while keeping their capacity — the reset step of the
    /// derive_into reuse contract.
    void clear();

    bool operator==(const DerivedRelations&) const = default;
};

/// Options controlling derivation (the MCM-only baseline of prior work runs
/// with VM modelling disabled; see synth::Options::enable_vm).
struct DeriveOptions {
    /// When false, data accesses need no translation (ptw_src is ignored and
    /// VAs are treated as distinct physical locations) — the classic MCM
    /// setting used for the x86-TSO baseline comparison.
    bool vm_enabled = true;
};

/// True when the graph whose first \p num_nodes rows are \p rows has a
/// cycle (a self-loop counts). Peels sinks — live nodes with no live
/// successor — until none is left; a cycle exists iff live nodes remain.
bool rows_have_cycle(const BitRow* rows, int num_nodes);

/// Reusable state for the axiom evaluators, threaded through
/// mtm::Model::violated_mask.
struct CycleScratch {
    /// Slot arena for the lowered `.mtm` axioms (spec/eval.h): an
    /// evaluation takes the slots its axiom needs above spec_pool_live and
    /// gives them back when it returns, so in steady state a DSL axiom
    /// evaluates without allocating.
    std::vector<BitRows> spec_pool;
    std::size_t spec_pool_live = 0;  ///< slots currently taken
};

/// The program-static half of a derivation: everything derive_into
/// computes from the program and the VM setting alone. DeriveScratch
/// keeps the facts of the last program it derived; \p program is the key,
/// compared by content.
struct ProgramFacts {
    bool filled = false;
    bool vm_enabled = false;
    Program program;
    std::vector<std::string> problems;  ///< Program::validate(vm_enabled)
    /// False when the program has more than kMaxBitEvents events: only
    /// problems is meaningful then.
    bool has_rows = false;

    // Event masks by kind.
    BitRow memory = 0;
    BitRow write_like = 0;
    BitRow read_like = 0;
    BitRow data = 0;
    BitRow pte = 0;
    BitRow wpte = 0;
    BitRow invlpg = 0;      ///< targeted Invlpgs
    BitRow invlpg_all = 0;  ///< full flushes
    /// Spurious invalidations that no later same-core access justifies.
    BitRow useless_invlpg = 0;

    BitRows ext{};          ///< ext[a]: every b with program.precedes(a, b)
    BitRows ext_before{};   ///< ext_before[b]: every a with precedes(a, b)
    BitRows same_va_pte{};  ///< PTE accesses of event a's VA
    BitRows same_pa_wpte{};  ///< for a Wpte: the Wptes mapping the same PA

    // Relations that depend on the program only (stale when problems is
    // non-empty: no execution of the program is well-formed then).
    BitRows po{};
    BitRows po_mem{};
    BitRows ppo{};
    BitRows fence{};
    BitRows rmw{};
    BitRows ghost{};
    BitRows remap{};
};

/// Reusable buffers for derive_into: everything derive allocates per call
/// when no scratch is supplied. One scratch per worker thread; a scratch
/// must not be shared between concurrent derivations.
struct DeriveScratch {
    // Address-resolution state (per event).
    std::vector<int> resolver_state;
    std::vector<PaId> resolver_pa;
    std::vector<EventId> resolver_prov;
    /// The last derived program's static half (see ProgramFacts).
    ProgramFacts facts;
    /// Axiom-evaluator scratch, threaded through Model::violated_mask.
    CycleScratch cycle;
};

/// Derives all relations and runs the well-formedness checks.
DerivedRelations derive(const Execution& execution,
                        const DeriveOptions& options = {});

/// As derive(), but writes into \p out (cleared first, capacity kept) and
/// takes every internal buffer from \p scratch. Field-identical to a fresh
/// derive() on the same inputs — asserted by the differential tests. Either
/// pointer argument must be non-null.
void derive_into(const Execution& execution, const DeriveOptions& options,
                 DerivedRelations* out, DeriveScratch* scratch);

/// Address resolution alone (no witness validation): per-event resolved PA
/// and mapping provenance. Needed by the relaxation engine, which must
/// recompute coherence classes after removing events and before coherence
/// witnesses are rebuilt.
struct ResolutionResult {
    bool ok = false;
    std::vector<PaId> resolved_pa;      ///< kNone where not applicable/failed
    std::vector<EventId> provenance;    ///< kNone = initial mapping
};
ResolutionResult resolve_addresses(const Execution& execution,
                                   const DeriveOptions& options = {});

/// As resolve_addresses(), but writes into \p out (vectors re-assigned,
/// capacity kept) and resolves through \p scratch's buffers —
/// allocation-free in steady state when the execution is well-formed.
/// Field-identical to the materializing overload on the same inputs.
void resolve_addresses_into(const Execution& execution,
                            const DeriveOptions& options,
                            ResolutionResult* out, DeriveScratch* scratch);

}  // namespace transform::elt
