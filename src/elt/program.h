/// \file
/// ELT programs: events, per-thread program order, ghost/remap structure and
/// rmw dependencies. A Program plus communication witnesses (rf, co, rf_ptw,
/// co_pa — see execution.h) forms a candidate execution.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "elt/event.h"

namespace transform::elt {

/// A static ELT program.
///
/// Non-ghost events (user + support instructions) are sequenced per thread
/// by `po`; ghost events are attached to a parent and inherit its program
/// position. The paper's convention that each VA initially maps to the
/// same-indexed PA is baked in: `num_pas() >= num_vas()` and PA i is VA i's
/// initial frame.
class Program {
  public:
    Program() = default;
    /// Copies the live state only (threads dropped by reset stay behind).
    Program(const Program& other);
    /// Copies \p other's live state into this program's storage: every
    /// vector — per-thread ones included — keeps its capacity, so copying
    /// programs of similar size into one object stops allocating.
    Program& operator=(const Program& other);
    Program(Program&& other) noexcept;
    Program& operator=(Program&& other) noexcept;

    /// Equality of the live state: events, threads, positions and rmw
    /// pairs. Capacity and dropped threads do not count.
    bool operator==(const Program& other) const;

    /// Appends a new empty thread; returns its index.
    int add_thread();

    /// Clears the program back to \p num_threads empty threads while
    /// keeping every vector's capacity, including that of threads beyond
    /// \p num_threads — the reuse step of the pooled construction paths
    /// (relaxation rebuild, skeleton materialization). After reset the
    /// program is indistinguishable from a fresh one with the same
    /// add_thread() calls.
    void reset(int num_threads);

    /// Appends a non-ghost event to its thread's program order.
    /// The event's `thread` field selects the thread (must exist).
    EventId add_event(Event event);

    /// Adds a ghost event attached to `event.parent` (same thread).
    EventId add_ghost(Event event);

    /// Declares an rmw dependency between a Read and the Write it pairs with.
    void add_rmw(EventId read, EventId write);

    /// Replaces the stored event at \p id. Structure-preserving: kind and
    /// thread must not change (only operands such as remap_src / map_pa may
    /// be retargeted). Used by the relaxation engine after renumbering.
    void replace_event(EventId id, const Event& event);

    // Accessors -------------------------------------------------------------

    int num_events() const { return static_cast<int>(events_.size()); }
    int num_threads() const { return num_threads_; }
    const Event& event(EventId id) const { return events_[id]; }
    const std::vector<Event>& events() const { return events_; }
    const std::vector<EventId>& thread(int t) const { return threads_[t]; }
    std::span<const std::vector<EventId>> threads() const
    {
        return {threads_.data(), static_cast<std::size_t>(num_threads_)};
    }
    const std::vector<std::pair<EventId, EventId>>& rmw_pairs() const
    {
        return rmws_;
    }

    /// Number of distinct data VAs referenced (max va index + 1).
    int num_vas() const;

    /// Number of PAs in play: at least num_vas() (initial frames) plus any
    /// additional Wpte targets.
    int num_pas() const;

    /// Program-order position of an event within its thread (ghosts inherit
    /// their parent's position).
    int position_of(EventId id) const;

    /// Sub-position used only to lay out ghosts under their parent when
    /// printing: Rdb=0 < Wdb=1 < Rptw=2 < parent=3. Carries no ordering
    /// semantics (same-position events are mutually unordered).
    int subposition_of(EventId id) const;

    /// True when \p before precedes \p after in the extended per-thread
    /// order. Ghosts occupy their parent's position; events at the same
    /// position (an instruction and its ghosts) are unordered.
    bool precedes(EventId before, EventId after) const;

    /// Ghost children of a user event, if any (Rptw / Wdb / Rdb).
    EventId rptw_of(EventId user) const;
    EventId wdb_of(EventId user) const;
    EventId rdb_of(EventId user) const;

    /// All Invlpg events remap-invoked by \p wpte.
    std::vector<EventId> remap_targets(EventId wpte) const;

    /// Structural validation; returns a list of problems (empty when valid).
    /// Checked: thread/parent/remap indices, ghost parent kinds, one ghost
    /// of each kind per parent, Wpte has exactly one Invlpg per core with a
    /// same-core Invlpg po-after it, Invlpg va matches its Wpte's va, rmw
    /// pairs adjacent same-thread same-VA Read->Write, every user Write has
    /// a Wdb ghost, and at most elt::kMaxBitEvents (64) events in all (the
    /// axiom verdicts' bit rows). With \p vm_enabled false (the MCM
    /// baseline), VM events must be absent and the ghost requirements are
    /// waived. A valid program allocates nothing here.
    std::vector<std::string> validate(bool vm_enabled = true) const;

    /// Total event count (the paper's instruction bound counts every event,
    /// ghosts included — ptwalk2 is a 4-instruction test).
    int instruction_count() const { return num_events(); }

  private:
    /// Makes \p num_threads threads live: dropped ones are cleared (never
    /// freed) and new ones reuse the cleared spares.
    void reset_threads(int num_threads);

    std::vector<Event> events_;
    /// Per-thread event sequences; the first num_threads_ are live. The
    /// rest are empty and keep their capacity for later threads.
    std::vector<std::vector<EventId>> threads_;
    int num_threads_ = 0;
    std::vector<int> positions_;  // per event; ghosts: parent's position
    std::vector<std::pair<EventId, EventId>> rmws_;
};

/// Fluent builder for writing ELTs by hand (tests, fixtures, examples).
///
/// Usage:
///   ProgramBuilder b;
///   b.thread();
///   EventId w = b.W(0);           // W x
///   b.wdb(w); b.rptw(w);          // its ghost instructions
///   b.thread();
///   EventId p = b.wpte(0, 1);     // WPTE z = VA x -> PA b
///   b.invlpg_for(p, 0);           // remap-invoked INVLPG on core 0
///   Program prog = b.build();
class ProgramBuilder {
  public:
    /// Starts a new thread; subsequent instructions land on it.
    ProgramBuilder& thread();

    /// User-facing instructions.
    EventId R(VaId va);
    EventId W(VaId va);
    EventId mfence();

    /// Support instructions.
    EventId wpte(VaId va, PaId new_pa);
    EventId invlpg(VaId va);                     ///< spurious
    EventId invlpg_all();                        ///< full TLB flush (extension)
    EventId invlpg_for(EventId wpte_id);         ///< remap-invoked, this thread
    EventId invlpg_for(EventId wpte_id, int core);  ///< remap-invoked, given core

    /// Ghost instructions attached to a previously added user event.
    EventId rptw(EventId user);
    EventId wdb(EventId user);
    EventId rdb(EventId user);

    /// Declares an rmw dependency.
    void rmw(EventId read, EventId write);

    /// Finalizes and returns the program.
    Program build() { return program_; }

  private:
    EventId add_on_thread(Event event, int t);

    Program program_;
    int current_thread_ = -1;
};

}  // namespace transform::elt
