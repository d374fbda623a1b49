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
/// The synthesis hot path derives millions of candidate executions; to keep
/// that loop allocation-free, derivation comes in two forms: the
/// convenience `derive()` returning a fresh DerivedRelations, and
/// `derive_into()` which clears and reuses a caller-owned DerivedRelations
/// plus a DeriveScratch holding the resolver state, coherence-class buckets
/// and the axiom evaluators' arena. In steady state derive_into makes no
/// heap allocation on a well-formed execution; docs/performance.md has the
/// reuse contract and the measurement.
///
/// Axiom verdicts run on bit rows: a relation over a program's events is one
/// 64-bit adjacency row per event, bit b of row a meaning a -> b. No program
/// has more than kMaxBitEvents events — Program::validate rejects larger
/// ones, so derive marks them ill-formed and no axiom ever sees them.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "elt/execution.h"

namespace transform::elt {

/// Every relation of Table I (plus the auxiliary ones the x86t_elt axioms
/// need), derived from one candidate execution.
struct DerivedRelations {
    bool well_formed = false;
    std::vector<std::string> problems;  ///< non-empty iff !well_formed

    /// Per data access: resolved physical address (kNone if unresolvable).
    std::vector<PaId> resolved_pa;

    /// Per data access: the Wpte that provided its mapping, or kNone when
    /// the initial mapping was used.
    std::vector<EventId> provenance;

    // Baseline MCM relations.
    EdgeSet po;       ///< same-thread sequencing of non-ghost events
    EdgeSet po_loc;   ///< extended-order pairs at the same coherence class
    EdgeSet rf;       ///< write -> read, data (same PA) and PTE locations
    EdgeSet co;       ///< coherence order per class
    EdgeSet fr;       ///< read -> co-successors of its source
    EdgeSet rfe;      ///< rf restricted to cross-thread pairs
    EdgeSet ppo;      ///< TSO preserved program order (po minus W->R)
    EdgeSet fence;    ///< pairs ordered by an intervening MFENCE
    EdgeSet rmw;      ///< declared rmw dependencies

    // Transistency relations (Table I).
    EdgeSet ghost;       ///< user event -> invoked ghost
    EdgeSet rf_ptw;      ///< page-table walk -> users of its TLB entry
    EdgeSet rf_pa;       ///< Wpte -> accesses using its mapping
    EdgeSet co_pa;       ///< alias-creation order per PA
    EdgeSet fr_pa;       ///< access -> co_pa-successors of its mapping source
    EdgeSet fr_va;       ///< access -> later Wptes remapping its VA
    EdgeSet remap;       ///< Wpte -> the Invlpgs it invokes
    EdgeSet ptw_source;  ///< walk's parent -> other users of the walk

    /// Clears every field while keeping vector capacity — the reset step of
    /// the derive_into reuse contract.
    void clear();
};

/// Options controlling derivation (the MCM-only baseline of prior work runs
/// with VM modelling disabled; see synth::Options::enable_vm).
struct DeriveOptions {
    /// When false, data accesses need no translation (ptw_src is ignored and
    /// VAs are treated as distinct physical locations) — the classic MCM
    /// setting used for the x86-TSO baseline comparison.
    bool vm_enabled = true;
};

/// Most events a program may have: the verdict kernel gives every event one
/// bit of a 64-bit adjacency row (also the cap on elt_synth --bound).
inline constexpr int kMaxBitEvents = 64;

/// One event's successors: bit b set means an edge to event b.
using BitRow = std::uint64_t;

/// A relation over at most kMaxBitEvents events as adjacency rows; only the
/// first num_events rows (and bits) are meaningful.
using BitRows = std::array<BitRow, kMaxBitEvents>;

/// True when the graph whose first \p num_nodes rows are \p rows has a
/// cycle (a self-loop counts). Peels sinks — live nodes with no live
/// successor — until none is left; a cycle exists iff live nodes remain.
bool rows_have_cycle(const BitRow* rows, int num_nodes);

/// Reusable state for the axiom evaluators, threaded through
/// mtm::Model::violated_mask. has_cycle itself needs none: its rows live
/// on the stack.
struct CycleScratch {
    /// Caller-side temporary for axioms that need to assemble an edge-set
    /// union before the cycle check (e.g. the SC causality variant).
    EdgeSet tmp_edges;
    /// Relation arena for the `.mtm` DSL axiom evaluator (spec/eval.h):
    /// slots are acquired stack-wise per expression node and released
    /// wholesale at the end of each axiom evaluation, so in steady state a
    /// DSL axiom evaluates without allocating. Indexed (not referenced)
    /// because the vector may grow mid-evaluation.
    std::vector<BitRows> spec_pool;
    std::size_t spec_pool_live = 0;  ///< slots currently acquired
    /// Evaluator bookkeeping (opaque AST-node keys -> pinned slots /
    /// visit marks), pooled here for the same reuse reasons.
    std::vector<std::pair<const void*, std::size_t>> spec_memo;
};

/// Reusable buffers for derive_into: everything derive allocates per call
/// when no scratch is supplied. One scratch per worker thread; a scratch
/// must not be shared between concurrent derivations.
struct DeriveScratch {
    // Address-resolution state (per event).
    std::vector<int> resolver_state;
    std::vector<PaId> resolver_pa;
    std::vector<EventId> resolver_prov;
    // Coherence-class buckets, replacing the per-call std::map groupings:
    // (encoded class key, sort position) and (key, position, event) rows
    // sorted in place, plus the contiguous group index built from them.
    std::vector<std::pair<std::int64_t, int>> keyed_positions;
    struct KeyedWrite {
        std::int64_t key;
        int pos;
        EventId id;
    };
    std::vector<KeyedWrite> keyed_writes;
    struct ClassGroup {
        std::int64_t key;
        int begin;
        int end;
    };
    std::vector<ClassGroup> class_groups;
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

/// True when the directed graph over \p num_nodes nodes with the union of
/// the given edge sets contains a cycle (a self-loop counts). Requires
/// num_nodes <= kMaxBitEvents; allocation-free.
bool has_cycle(int num_nodes, const EdgeSet* const* edge_sets,
               std::size_t num_edge_sets);

inline bool
has_cycle(int num_nodes, std::initializer_list<const EdgeSet*> edge_sets)
{
    return has_cycle(num_nodes, edge_sets.begin(), edge_sets.size());
}

inline bool
has_cycle(int num_nodes, const std::vector<const EdgeSet*>& edge_sets)
{
    return has_cycle(num_nodes, edge_sets.data(), edge_sets.size());
}

}  // namespace transform::elt
