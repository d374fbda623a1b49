/// \file
/// Explicit enumeration of all well-formed candidate executions of a fixed
/// ELT program — the fast counterpart of the SAT backend in
/// mtm/encoding.h. Both backends enumerate the same space (asserted by the
/// integration tests); this one backtracks directly over witness choices:
/// translation sources, PTE-read sources, data-read sources, coherence
/// permutations and alias-creation permutations.
///
/// The synthesis engine enumerates every candidate program of a bound, so
/// the search keeps its state on the backtracking path instead of
/// rebuilding it per leaf: an ExecEnumScratch holds the execution under
/// construction and the program's choice tables as flat vectors, each
/// coherence class is one slice of a vector that std::next_permutation
/// permutes in place, and the data-coherence classes are grouped once per
/// address resolution rather than once per data-read assignment. With one
/// scratch per worker an enumeration allocates nothing in steady state
/// (`SteadyState.ExecutionEnumerationAllocatesNothing`).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "elt/derive.h"
#include "elt/execution.h"

namespace transform::synth {

/// Statistics from one enumeration.
struct ExecEnumStats {
    std::uint64_t executions = 0;   ///< well-formed executions visited
    std::uint64_t rejected = 0;     ///< partial assignments pruned
};

/// Options or classes stored flat: entry i owns the slice
/// [offsets[i], offsets[i + 1]) of items.
struct FlatTable {
    std::vector<elt::EventId> items;
    std::vector<int> offsets;

    std::size_t size() const { return offsets.size() - 1; }
    elt::EventId* begin(std::size_t i) { return items.data() + offsets[i]; }
    elt::EventId* end(std::size_t i) { return items.data() + offsets[i + 1]; }

    /// Empties the table (capacity kept).
    void clear()
    {
        items.clear();
        offsets.assign(1, 0);
    }
    /// Ends the entry under construction at the current item count.
    void close_entry() { offsets.push_back(static_cast<int>(items.size())); }
};

/// Reusable state for for_each_execution: the execution under
/// construction and the choice tables of the program it enumerates. Every
/// call rebuilds the tables for its program into these vectors (capacity
/// kept), so the visit order never depends on what the scratch served
/// before, and a call that stopped early — or whose visitor threw —
/// leaves nothing the next call reads. One per worker; a scratch must not
/// be shared between concurrent enumerations.
struct ExecEnumScratch {
    /// The execution handed to the visitor (copy-assigned from the
    /// program, witness fields reset to kNone).
    elt::Execution exec;

    // Per-program tables, in backtracking order.
    std::vector<elt::EventId> data_events;  ///< accesses needing a walk
    FlatTable walks;       ///< per data event: the walks it may use
    std::vector<elt::EventId> pte_reads;    ///< Rptw/Rdb events
    FlatTable pte_sources;  ///< per PTE read: kNone (initial), then writers
    std::vector<elt::EventId> data_reads;
    std::vector<elt::EventId> data_writes;
    /// Coherence classes: ascending key, members by ascending event id,
    /// each slice permuted in place (and restored) while enumerating.
    FlatTable pte_co;   ///< PTE writes per VA
    FlatTable co_pa;    ///< Wptes per target PA (map_pa is static)
    FlatTable data_co;  ///< data writes per location, per resolution
    /// (key, event) pairs: the buffer classes are grouped in.
    std::vector<std::pair<int, elt::EventId>> keyed;

    // Address resolution under the current PTE choices.
    elt::ResolutionResult resolution;
    elt::DeriveScratch resolve;
};

/// Enumerates every well-formed execution of \p program. \p vm_enabled
/// selects the MTM vocabulary (translations required) or the plain-MCM
/// setting. \p visit may return false to stop early; the function returns
/// false in that case. The execution \p visit receives is \p scratch's,
/// valid for the duration of the callback. Visits exactly the sequence
/// the scratch-free overload visits.
bool for_each_execution(const elt::Program& program, bool vm_enabled,
                        const std::function<bool(const elt::Execution&)>& visit,
                        ExecEnumScratch* scratch,
                        ExecEnumStats* stats = nullptr);

/// As above, with a fresh scratch (tools, tests, one-off callers).
bool for_each_execution(const elt::Program& program, bool vm_enabled,
                        const std::function<bool(const elt::Execution&)>& visit,
                        ExecEnumStats* stats = nullptr);

}  // namespace transform::synth
