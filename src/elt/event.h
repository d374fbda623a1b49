/// \file
/// Event vocabulary for enhanced litmus tests (ELTs), following Table I of
/// the TransForm paper (Hossain, Trippel, Martonosi, ISCA 2020).
///
/// Three tiers of events:
///  - user-facing ISA instructions: Read, Write, Mfence (plus RMW pairs,
///    expressed as a Read and a Write joined by an rmw dependency);
///  - system-level *support* instructions, invoked by system calls:
///    Wpte (a Write to a page-table entry installing a VA->PA mapping) and
///    Invlpg (TLB-entry eviction, remap-induced or spurious);
///  - hardware-level *ghost* instructions, invoked on behalf of user
///    instructions: Rptw (page-table walk: a Read of a PTE location),
///    Wdb (dirty-bit update: a Write of a PTE location) and, optionally,
///    Rdb (the Read half of a dirty-bit RMW; only present under the
///    dirty-bit-as-RMW ablation of section III-A2).
#pragma once

#include <cstdint>
#include <string>

namespace transform::elt {

/// Index of an event within a Program.
using EventId = int;

/// Index of a data virtual address (x = 0, y = 1, u = 2, ...).
using VaId = int;

/// Index of a physical address (a = 0, b = 1, c = 2, ...). Initially each
/// VA i maps to PA i (ELT simplifying assumption 2 in the paper).
using PaId = int;

/// Sentinel for "none".
inline constexpr int kNone = -1;

/// The kinds of events TransForm models.
///
/// kInvlpgAll is this library's implementation of the paper's named
/// extension point (section III-B2: "support for additional IPIs is
/// possible in future TransForm extensions"): a full-TLB-flush IPI that
/// evicts *every* entry of its core's TLB, the way a CR3 write or a
/// global shootdown does. It is always OS-initiated (spurious — never
/// remap-invoked, since a PTE write targets one VA) and is excluded from
/// synthesis unless SkeletonOptions::allow_full_flush is set.
enum class EventKind : std::uint8_t {
    kRead,       ///< user-facing load from a data VA
    kWrite,      ///< user-facing store to a data VA
    kMfence,     ///< user-facing fence
    kWpte,       ///< support: PTE write remapping a VA (system call)
    kInvlpg,     ///< support: TLB entry invalidation for a VA
    kInvlpgAll,  ///< support: full TLB flush on its core (extension)
    kRptw,       ///< ghost: hardware page-table walk (Read of a PTE)
    kWdb,        ///< ghost: dirty-bit update (Write of a PTE)
    kRdb,        ///< ghost: dirty-bit read (only in the RMW-dirty-bit ablation)
};

/// True for instructions fetched in the user-level instruction stream.
constexpr bool
is_user(EventKind k)
{
    return k == EventKind::kRead || k == EventKind::kWrite ||
           k == EventKind::kMfence;
}

/// True for OS-invoked support instructions.
constexpr bool
is_support(EventKind k)
{
    return k == EventKind::kWpte || k == EventKind::kInvlpg ||
           k == EventKind::kInvlpgAll;
}

/// True for TLB-invalidating instructions (targeted or full-flush).
constexpr bool
is_tlb_invalidation(EventKind k)
{
    return k == EventKind::kInvlpg || k == EventKind::kInvlpgAll;
}

/// True for hardware-invoked ghost instructions (not in po).
constexpr bool
is_ghost(EventKind k)
{
    return k == EventKind::kRptw || k == EventKind::kWdb ||
           k == EventKind::kRdb;
}

/// True for events that access shared memory (MemoryEvent in the paper).
constexpr bool
is_memory(EventKind k)
{
    return k == EventKind::kRead || k == EventKind::kWrite ||
           k == EventKind::kWpte || k == EventKind::kRptw ||
           k == EventKind::kWdb || k == EventKind::kRdb;
}

/// True for events that write some location.
constexpr bool
is_write_like(EventKind k)
{
    return k == EventKind::kWrite || k == EventKind::kWpte ||
           k == EventKind::kWdb;
}

/// True for events that read some location.
constexpr bool
is_read_like(EventKind k)
{
    return k == EventKind::kRead || k == EventKind::kRptw ||
           k == EventKind::kRdb;
}

/// True for user-facing accesses of *data* locations.
constexpr bool
is_data_access(EventKind k)
{
    return k == EventKind::kRead || k == EventKind::kWrite;
}

/// True for accesses of *PTE* locations.
constexpr bool
is_pte_access(EventKind k)
{
    return k == EventKind::kWpte || k == EventKind::kRptw ||
           k == EventKind::kWdb || k == EventKind::kRdb;
}

/// Short printable name ("R", "W", "WPTE", ...).
const char* kind_name(EventKind k);

/// One event (micro-op) of an ELT.
///
/// The `va` operand is overloaded by kind, mirroring the paper's notation:
///  - Read/Write: the data VA accessed;
///  - Rptw/Wdb/Rdb/Wpte: the VA whose PTE is accessed (the PTE itself lives
///    at a dedicated PTE location per VA — `z` holds x's mapping, etc.);
///  - Invlpg: the VA whose TLB entry is evicted;
///  - Mfence: kNone.
struct Event {
    EventKind kind = EventKind::kRead;
    int thread = 0;          ///< core id (ghosts: core of their parent)
    VaId va = kNone;         ///< VA operand (see above)
    PaId map_pa = kNone;     ///< Wpte only: PA the VA is being mapped to
    EventId parent = kNone;  ///< ghosts only: user event that invoked it
    EventId remap_src = kNone;  ///< Invlpg only: invoking Wpte (kNone = spurious)

    bool operator==(const Event&) const = default;
};

/// Human-readable one-line rendering ("W0 x", "WPTE2 z = VA y -> PA c", ...).
std::string event_to_string(EventId id, const Event& event);

/// Names for VAs (x, y, u, w, ...), PTE VAs (z, v, q, t, ...) and PAs
/// (a, b, c, ...), matching the paper's figures for the first few indices.
std::string va_name(VaId va);
std::string pte_name(VaId va);
std::string pa_name(PaId pa);

}  // namespace transform::elt
