#include "synth/skeleton.h"

#include <algorithm>
#include <vector>

#include "util/logging.h"

namespace transform::synth {

using elt::Event;
using elt::EventId;
using elt::EventKind;
using elt::kNone;
using elt::Program;

namespace {

/// Slot kinds at the skeleton level (miss/hit chooses ghost structure).
enum class Slot : int {
    kReadMiss,
    kReadHit,
    kWriteMiss,
    kWriteHit,
    kFence,
    kWpte,
    kInvlpg,
    kInvlpgAll,
};

struct SlotInfo {
    Slot slot;
    int va = kNone;       // assigned in the VA stage
    int map_pa = kNone;   // Wpte target, assigned in the PA stage
    int link = -1;        // Invlpg: global index of linked Wpte (-1 spurious)
    bool rmw = false;     // Read slots: marked as the read of an RMW
};

/// The full skeleton under construction: per-thread slot lists.
struct Draft {
    std::vector<std::vector<SlotInfo>> threads;
};

/// Weight (event count) of a slot.
int
weight(Slot s, const SkeletonOptions& opt)
{
    const int db = opt.dirty_bit_as_rmw ? 2 : 1;  // Wdb (+Rdb in ablation)
    if (!opt.vm_enabled) {
        return 1;  // plain MCM instructions
    }
    switch (s) {
    case Slot::kReadMiss: return 2;
    case Slot::kReadHit: return 1;
    case Slot::kWriteMiss: return 2 + db;
    case Slot::kWriteHit: return 1 + db;
    case Slot::kFence: return 1;
    case Slot::kWpte: return 1;
    case Slot::kInvlpg: return 1;
    case Slot::kInvlpgAll: return 1;
    }
    return 1;
}

bool
is_read_slot(Slot s)
{
    return s == Slot::kReadMiss || s == Slot::kReadHit;
}

bool
is_write_slot(Slot s)
{
    return s == Slot::kWriteMiss || s == Slot::kWriteHit;
}

bool
is_data_slot(Slot s)
{
    return is_read_slot(s) || is_write_slot(s);
}

bool
has_walk(Slot s)
{
    return s == Slot::kReadMiss || s == Slot::kWriteMiss;
}

std::vector<Slot>
available_slots(const SkeletonOptions& opt)
{
    std::vector<Slot> out;
    if (opt.vm_enabled) {
        out = {Slot::kReadMiss, Slot::kReadHit, Slot::kWriteMiss,
               Slot::kWriteHit, Slot::kWpte, Slot::kInvlpg};
    } else {
        out = {Slot::kReadHit, Slot::kWriteHit};
    }
    out.push_back(Slot::kFence);
    if (opt.vm_enabled && opt.allow_full_flush) {
        out.push_back(Slot::kInvlpgAll);
    }
    return out;
}

/// The lexicographic thread-symmetry order: true when thread \p a's slot
/// string sorts before \p b's (threads are emitted with non-increasing slot
/// strings).
bool
slots_less(const std::vector<SlotInfo>& a, const std::vector<SlotInfo>& b)
{
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(),
        [](const SlotInfo& x, const SlotInfo& y) { return x.slot < y.slot; });
}

/// One placed non-ghost event while materializing (creation order).
struct Placed {
    EventId id;
    const SlotInfo* info;
    int thread;
};

/// A WPTE or INVLPG slot of the draft, for remap linking.
struct SlotRef {
    int thread;
    int index;
    int global;  // Wpte global index (wptes) / claimed-by (invlpgs)
};

/// Reusable storage for one enumerator: the candidate Program handed to
/// the visitor, the placement bookkeeping of materialize_into, and the
/// per-structure tables of the Linker and Assigner stages. The shard
/// search emits millions of candidates, and rebuilding into pooled vectors
/// keeps the emit path allocation-free in steady state.
struct MaterializePool {
    Program program;
    std::vector<Placed> placed;
    std::vector<EventId> wpte_ids;  // by global Wpte index
    std::vector<int> wpte_vas;      // Assigner: WPTE VAs by global index
    std::vector<SlotRef> wptes;     // Linker: WPTE slots, draft order
    std::vector<SlotRef> invlpgs;   // Linker: INVLPG slots, draft order
    std::vector<SlotInfo*> ordered;  // Assigner: every slot, draft order
};

/// Builds the final Program from a fully-assigned draft, into the pool.
void
materialize_into(const Draft& draft, const SkeletonOptions& opt,
                 MaterializePool* pool)
{
    Program& p = pool->program;
    p.reset(static_cast<int>(draft.threads.size()));
    // First pass: add all non-ghost events in per-thread order, remembering
    // ids so Invlpgs can reference their Wpte and ghosts their parent.
    std::vector<Placed>& placed = pool->placed;
    std::vector<EventId>& wpte_ids = pool->wpte_ids;
    placed.clear();
    wpte_ids.clear();
    for (std::size_t t = 0; t < draft.threads.size(); ++t) {
        for (const SlotInfo& s : draft.threads[t]) {
            Event e;
            e.thread = static_cast<int>(t);
            switch (s.slot) {
            case Slot::kReadMiss:
            case Slot::kReadHit:
                e.kind = EventKind::kRead;
                e.va = s.va;
                break;
            case Slot::kWriteMiss:
            case Slot::kWriteHit:
                e.kind = EventKind::kWrite;
                e.va = s.va;
                break;
            case Slot::kFence:
                e.kind = EventKind::kMfence;
                break;
            case Slot::kWpte:
                e.kind = EventKind::kWpte;
                e.va = s.va;
                e.map_pa = s.map_pa;
                break;
            case Slot::kInvlpg:
                e.kind = EventKind::kInvlpg;
                e.va = s.va;
                e.remap_src = s.link;  // patched to an EventId below
                break;
            case Slot::kInvlpgAll:
                e.kind = EventKind::kInvlpgAll;
                break;
            }
            const EventId id = p.add_event(e);
            placed.push_back({id, &s, static_cast<int>(t)});
            if (s.slot == Slot::kWpte) {
                wpte_ids.push_back(id);
            }
        }
    }
    // Patch Invlpg remap references from global Wpte index to EventId.
    for (const Placed& pl : placed) {
        if (pl.info->slot == Slot::kInvlpg && pl.info->link >= 0) {
            Event e = p.event(pl.id);
            e.remap_src = wpte_ids[pl.info->link];
            p.replace_event(pl.id, e);
        }
    }
    // Ghosts.
    for (const Placed& pl : placed) {
        if (is_write_slot(pl.info->slot) && opt.vm_enabled) {
            if (opt.dirty_bit_as_rmw) {
                p.add_ghost({EventKind::kRdb, 0, kNone, kNone, pl.id, kNone});
            }
            p.add_ghost({EventKind::kWdb, 0, kNone, kNone, pl.id, kNone});
        }
        if (has_walk(pl.info->slot) && opt.vm_enabled) {
            p.add_ghost({EventKind::kRptw, 0, kNone, kNone, pl.id, kNone});
        }
    }
    // rmw pairs: a marked Read pairs with the immediately following Write.
    for (std::size_t t = 0; t < draft.threads.size(); ++t) {
        const auto& seq = p.thread(t);
        const auto& slots = draft.threads[t];
        for (std::size_t i = 0; i + 1 < slots.size(); ++i) {
            if (slots[i].rmw) {
                p.add_rmw(seq[i], seq[i + 1]);
            }
        }
    }
}

/// Stage 4/5: assign VAs (canonical first-use numbering), then Wpte target
/// PAs, then rmw marks, and emit programs.
class Assigner {
  public:
    Assigner(Draft* draft, const SkeletonOptions& opt,
             const std::function<bool(const Program&)>& visit,
             MaterializePool* pool)
        : draft_(draft), opt_(opt), visit_(visit), pool_(pool),
          ordered_(pool->ordered)
    {
        ordered_.clear();
        for (auto& thread : draft_->threads) {
            for (auto& slot : thread) {
                ordered_.push_back(&slot);
            }
        }
    }

    bool run() { return assign_va(0, 0); }

  private:
    /// True when a hit slot can find a live TLB entry: some earlier
    /// same-thread same-VA slot with a walk, with no same-VA INVLPG between.
    bool
    hit_feasible(int thread_index, int position) const
    {
        const auto& slots = draft_->threads[thread_index];
        const int va = slots[position].va;
        for (int i = position - 1; i >= 0; --i) {
            if ((slots[i].slot == Slot::kInvlpg && slots[i].va == va) ||
                slots[i].slot == Slot::kInvlpgAll) {
                return false;  // entry evicted; nothing earlier survives
            }
            if (is_data_slot(slots[i].slot) && slots[i].va == va &&
                has_walk(slots[i].slot)) {
                return true;
            }
        }
        return false;
    }

    /// VA stage: walk slots in order; each VA-bearing slot picks an
    /// existing VA or the next fresh one (canonical first-use numbering).
    /// Linked INVLPGs inherit their WPTE's VA.
    bool
    assign_va(std::size_t index, int used_vas)
    {
        if (index == ordered_.size()) {
            return check_va_constraints() ? assign_pa(0, 0) : true;
        }
        SlotInfo& slot = *ordered_[index];
        if (slot.slot == Slot::kFence || slot.slot == Slot::kInvlpgAll) {
            slot.va = kNone;
            return assign_va(index + 1, used_vas);
        }
        if (slot.slot == Slot::kInvlpg && slot.link >= 0) {
            // Inherits the WPTE's VA; resolved in check_va_constraints once
            // all WPTEs have VAs (the WPTE may come later in order).
            slot.va = -2;  // placeholder: linked
            const bool keep = assign_va(index + 1, used_vas);
            slot.va = kNone;
            return keep;
        }
        const int limit = std::min(opt_.max_vas, used_vas + 1);
        for (int va = 0; va < limit; ++va) {
            slot.va = va;
            const int next_used = std::max(used_vas, va + 1);
            if (!assign_va(index + 1, next_used)) {
                return false;
            }
        }
        slot.va = kNone;
        return true;
    }

    /// Resolves linked-INVLPG VAs and validates hit feasibility.
    bool
    check_va_constraints()
    {
        // Collect WPTE VAs by global index (pooled — this runs once per
        // complete VA assignment).
        std::vector<int>& wpte_vas = pool_->wpte_vas;
        wpte_vas.clear();
        for (const SlotInfo* s : ordered_) {
            if (s->slot == Slot::kWpte) {
                wpte_vas.push_back(s->va);
            }
        }
        for (SlotInfo* s : ordered_) {
            if (s->slot == Slot::kInvlpg && s->link >= 0) {
                s->va = wpte_vas[s->link];
            }
        }
        // Hits need a live same-VA walk earlier on their thread; spurious
        // INVLPGs need a later same-thread same-VA data access.
        for (std::size_t t = 0; t < draft_->threads.size(); ++t) {
            const auto& slots = draft_->threads[t];
            for (std::size_t i = 0; i < slots.size(); ++i) {
                if (opt_.vm_enabled && is_data_slot(slots[i].slot) &&
                    !has_walk(slots[i].slot) &&
                    !hit_feasible(static_cast<int>(t), static_cast<int>(i))) {
                    return false;
                }
                if ((slots[i].slot == Slot::kInvlpg && slots[i].link < 0) ||
                    slots[i].slot == Slot::kInvlpgAll) {
                    bool useful = false;
                    for (std::size_t j = i + 1; j < slots.size(); ++j) {
                        if (is_data_slot(slots[j].slot) &&
                            (slots[i].slot == Slot::kInvlpgAll ||
                             slots[j].va == slots[i].va)) {
                            useful = true;
                            break;
                        }
                    }
                    if (!useful) {
                        return false;
                    }
                }
            }
        }
        return true;
    }

    /// PA stage: each WPTE picks a target among the frames of used VAs and
    /// up to max_fresh_pas fresh frames (canonical first-use numbering).
    bool
    assign_pa(std::size_t index, int used_fresh)
    {
        if (index == ordered_.size()) {
            return assign_rmw(0);
        }
        SlotInfo& slot = *ordered_[index];
        if (slot.slot != Slot::kWpte) {
            return assign_pa(index + 1, used_fresh);
        }
        int num_vas = 0;
        for (const SlotInfo* s : ordered_) {
            if (s->va != kNone && s->va >= num_vas) {
                num_vas = s->va + 1;
            }
        }
        const int fresh_limit = std::min(opt_.max_fresh_pas, used_fresh + 1);
        for (int pa = 0; pa < num_vas + fresh_limit; ++pa) {
            slot.map_pa = pa;
            const int next_fresh =
                std::max(used_fresh, pa - num_vas + 1);
            if (!assign_pa(index + 1, pa >= num_vas ? next_fresh : used_fresh)) {
                return false;
            }
        }
        slot.map_pa = kNone;
        return true;
    }

    /// rmw stage: optionally mark adjacent same-thread same-VA (Read, Write)
    /// pairs; pairs must not overlap (a slot joins at most one pair).
    bool
    assign_rmw(std::size_t thread_index)
    {
        if (!has_any_rmw_candidate()) {
            if (opt_.require_rmw) {
                return true;  // prune: axiom needs an rmw pair
            }
            return emit();
        }
        return assign_rmw_in_thread(thread_index, 0);
    }

    bool
    has_any_rmw_candidate() const
    {
        for (const auto& slots : draft_->threads) {
            for (std::size_t i = 0; i + 1 < slots.size(); ++i) {
                if (is_read_slot(slots[i].slot) &&
                    is_write_slot(slots[i + 1].slot) &&
                    slots[i].va == slots[i + 1].va) {
                    return true;
                }
            }
        }
        return false;
    }

    bool
    assign_rmw_in_thread(std::size_t t, std::size_t i)
    {
        if (t == draft_->threads.size()) {
            if (opt_.require_rmw) {
                bool any = false;
                for (const auto& slots : draft_->threads) {
                    for (const auto& s : slots) {
                        any = any || s.rmw;
                    }
                }
                if (!any) {
                    return true;
                }
            }
            return emit();
        }
        auto& slots = draft_->threads[t];
        if (i + 1 >= slots.size()) {
            return assign_rmw_in_thread(t + 1, 0);
        }
        // Option A: no mark here.
        if (!assign_rmw_in_thread(t, i + 1)) {
            return false;
        }
        // Option B: mark, if this is a valid non-overlapping candidate.
        const bool candidate = is_read_slot(slots[i].slot) &&
                               is_write_slot(slots[i + 1].slot) &&
                               slots[i].va == slots[i + 1].va &&
                               (i == 0 || !slots[i - 1].rmw);
        if (candidate) {
            slots[i].rmw = true;
            const bool keep = assign_rmw_in_thread(t, i + 2);
            slots[i].rmw = false;
            if (!keep) {
                return false;
            }
        }
        return true;
    }

    bool
    emit()
    {
        materialize_into(*draft_, opt_, pool_);
        const Program& program = pool_->program;
        TF_ASSERT(program.validate(opt_.vm_enabled).empty());
        return visit_(program);
    }

    Draft* draft_;
    const SkeletonOptions& opt_;
    const std::function<bool(const Program&)>& visit_;
    MaterializePool* pool_;
    std::vector<SlotInfo*>& ordered_;  ///< pooled
};

/// Stage 3: remap linking. Each WPTE (global index) must claim exactly one
/// INVLPG on every thread; a same-thread INVLPG must come after its WPTE.
/// Remaining INVLPGs are spurious.
class Linker {
  public:
    Linker(Draft* draft, const SkeletonOptions& opt,
           const std::function<bool(const Program&)>& visit,
           MaterializePool* pool)
        : draft_(draft), opt_(opt), visit_(visit), pool_(pool),
          wptes_(pool->wptes), invlpgs_(pool->invlpgs)
    {
        wptes_.clear();
        invlpgs_.clear();
        int wpte_index = 0;
        for (std::size_t t = 0; t < draft->threads.size(); ++t) {
            for (std::size_t i = 0; i < draft->threads[t].size(); ++i) {
                if (draft->threads[t][i].slot == Slot::kWpte) {
                    wptes_.push_back({static_cast<int>(t), static_cast<int>(i),
                                      wpte_index++});
                }
                if (draft->threads[t][i].slot == Slot::kInvlpg) {
                    invlpgs_.push_back({static_cast<int>(t),
                                        static_cast<int>(i), -1});
                }
            }
        }
    }

    bool
    run()
    {
        if (opt_.require_wpte && wptes_.empty()) {
            return true;  // prune
        }
        return link(0, 0);
    }

  private:
    /// Assigns, for wpte `w`, an invlpg on thread `t`; advances through the
    /// (wpte, thread) grid.
    bool
    link(std::size_t w, std::size_t t)
    {
        if (w == wptes_.size()) {
            return finish();
        }
        if (t == draft_->threads.size()) {
            return link(w + 1, 0);
        }
        const SlotRef& wpte = wptes_[w];
        for (SlotRef& inv : invlpgs_) {
            if (inv.thread != static_cast<int>(t) || inv.global != -1) {
                continue;
            }
            // Same-core INVLPG must follow its WPTE in program order.
            if (inv.thread == wpte.thread && inv.index <= wpte.index) {
                continue;
            }
            inv.global = wpte.global;
            draft_->threads[inv.thread][inv.index].link = wpte.global;
            if (!link(w, t + 1)) {
                return false;
            }
            inv.global = -1;
            draft_->threads[inv.thread][inv.index].link = -1;
        }
        return true;  // no valid INVLPG on this core: this linking dies
    }

    bool
    finish()
    {
        Assigner assigner(draft_, opt_, visit_, pool_);
        return assigner.run();
    }

    Draft* draft_;
    const SkeletonOptions& opt_;
    const std::function<bool(const Program&)>& visit_;
    MaterializePool* pool_;
    std::vector<SlotRef>& wptes_;    ///< pooled
    std::vector<SlotRef>& invlpgs_;  ///< pooled
};

/// Sentinel for "no forced decision" while replaying a shard prefix.
constexpr int kFreeChoice = -2;

/// Stages 1-2: choose per-thread slot sequences whose weights sum to the
/// bound, with non-increasing slot signatures across threads (thread
/// symmetry pruning; full canonicalization happens at dedup time).
///
/// A non-empty \p prefix pins the first decisions of the slot-structure
/// decision stream — slot ordinals and kCloseThread markers, running across
/// threads — restricting the search to one SkeletonShard; the visit order
/// within the shard is unchanged, so shards in partition order concatenate
/// to the full enumeration stream.
class SlotEnumerator {
  public:
    SlotEnumerator(const SkeletonOptions& opt, std::vector<int> prefix,
                   const std::function<bool(const Program&)>& visit)
        : opt_(opt), prefix_(std::move(prefix)), visit_(visit),
          slots_(available_slots(opt))
    {
    }

    /// False when the visitor stopped the enumeration.
    bool
    run()
    {
        Draft draft;
        return enumerate_threads(draft, opt_.num_events);
    }

  private:
    bool
    enumerate_threads(Draft& draft, int remaining)
    {
        if (remaining == 0 && !draft.threads.empty()) {
            if (opt_.require_shared_walk && !has_possible_hit(draft)) {
                return true;  // prune: tlb_causality needs a shared entry
            }
            Linker linker(&draft, opt_, visit_, &pool_);
            return linker.run();
        }
        if (static_cast<int>(draft.threads.size()) >= opt_.max_threads ||
            remaining <= 0) {
            return true;
        }
        // Closed threads' slot vectors wait in spare_threads_ for the next
        // thread to open, so their capacity is reused.
        if (spare_threads_.empty()) {
            draft.threads.emplace_back();
        } else {
            draft.threads.push_back(std::move(spare_threads_.back()));
            spare_threads_.pop_back();
        }
        const bool keep = enumerate_slots(draft, remaining, /*budget_used=*/0);
        draft.threads.back().clear();
        spare_threads_.push_back(std::move(draft.threads.back()));
        draft.threads.pop_back();
        return keep;
    }

    bool
    enumerate_slots(Draft& draft, int remaining, int used_in_thread)
    {
        // Shard replay: decisions up to the prefix length are forced
        // instead of enumerated. The depth counter runs across threads, so
        // a prefix may reach past a kCloseThread into thread 1+ decisions
        // (closed-prefix shards).
        const int forced =
            depth_ < prefix_.size() ? prefix_[depth_] : kFreeChoice;
        // Option: close this thread (it must be non-empty) and open the next.
        if (!draft.threads.back().empty() &&
            (forced == kFreeChoice || forced == kCloseThread)) {
            // Thread-symmetry pruning: signatures non-increasing.
            const std::size_t k = draft.threads.size();
            if (k < 2 ||
                !slots_less(draft.threads[k - 2], draft.threads[k - 1])) {
                ++depth_;
                const bool keep = enumerate_threads(draft, remaining);
                --depth_;
                if (!keep) {
                    return false;
                }
            }
        }
        if (forced == kCloseThread) {
            return true;
        }
        for (std::size_t si = 0; si < slots_.size(); ++si) {
            if (forced != kFreeChoice && forced != static_cast<int>(si)) {
                continue;
            }
            const Slot s = slots_[si];
            const int w = weight(s, opt_);
            if (w > remaining) {
                continue;
            }
            ++depth_;
            draft.threads.back().push_back({s});
            const bool keep =
                enumerate_slots(draft, remaining - w, used_in_thread + w);
            draft.threads.back().pop_back();
            --depth_;
            if (!keep) {
                return false;
            }
        }
        return true;
    }

    /// A hit is possible when some thread has a hit slot (the VA stage
    /// verifies true feasibility; this is the cheap structural check).
    static bool
    has_possible_hit(const Draft& draft)
    {
        for (const auto& slots : draft.threads) {
            for (const SlotInfo& s : slots) {
                if (is_data_slot(s.slot) && !has_walk(s.slot)) {
                    return true;
                }
            }
        }
        return false;
    }

    const SkeletonOptions& opt_;
    std::vector<int> prefix_;
    const std::function<bool(const Program&)>& visit_;
    std::vector<Slot> slots_;
    MaterializePool pool_;  ///< candidate Program + placement, reused
    std::vector<std::vector<SlotInfo>> spare_threads_;  ///< cleared, reused
    std::size_t depth_ = 0;  ///< decisions made on the current path
};

}  // namespace

bool
for_each_skeleton(const SkeletonOptions& options,
                  const std::function<bool(const Program&)>& visit)
{
    return SlotEnumerator(options, {}, visit).run();
}

bool
for_each_skeleton(const SkeletonShard& shard,
                  const std::function<bool(const Program&)>& visit)
{
    return SlotEnumerator(shard.options, shard.prefix, visit).run();
}

std::vector<SkeletonShard>
split_shard(const SkeletonShard& shard)
{
    std::vector<SkeletonShard> children;
    const std::vector<Slot> slots = available_slots(shard.options);
    int used = 0;
    int closed_threads = 0;
    for (const int ordinal : shard.prefix) {
        if (ordinal == kCloseThread) {
            ++closed_threads;
        } else {
            used += weight(slots[static_cast<std::size_t>(ordinal)],
                           shard.options);
        }
    }
    const int remaining = shard.options.num_events - used;
    const bool thread_open =
        !shard.prefix.empty() && shard.prefix.back() != kCloseThread;
    if (!thread_open) {
        // The prefix sits at a thread start (empty prefix: thread 0;
        // closed prefix: thread closed_threads). No decision remains when
        // the event budget is spent (the slot structure is complete —
        // linking/VA variants still fan out below, but there is nothing
        // left to pin) or when no further thread may open.
        if (remaining <= 0 || closed_threads >= shard.options.max_threads) {
            return children;
        }
    }
    // Enumerator child order: close-thread first (only once the thread
    // under construction is non-empty), then each slot that still fits the
    // event budget. Children may turn out empty for deeper reasons (thread
    // symmetry, linking, VA feasibility), which is harmless — order, not
    // non-emptiness, is the contract.
    std::vector<int> child = shard.prefix;
    child.push_back(kCloseThread);
    if (thread_open) {
        children.push_back({shard.options, child});
    }
    for (std::size_t si = 0; si < slots.size(); ++si) {
        if (used + weight(slots[si], shard.options) <=
            shard.options.num_events) {
            child.back() = static_cast<int>(si);
            children.push_back({shard.options, child});
        }
    }
    return children;
}

std::vector<SkeletonShard>
partition_skeletons_at_depth(const SkeletonOptions& options, int depth)
{
    TF_ASSERT(depth >= 1);
    std::vector<SkeletonShard> shards = split_shard({options, {}});
    for (int d = 1; d < depth; ++d) {
        // Replace every splittable shard with its children, in child order.
        std::vector<SkeletonShard> next;
        next.reserve(shards.size() * 2);
        for (SkeletonShard& shard : shards) {
            std::vector<SkeletonShard> children = split_shard(shard);
            if (children.empty()) {
                next.push_back(std::move(shard));
            } else {
                for (SkeletonShard& child : children) {
                    next.push_back(std::move(child));
                }
            }
        }
        shards = std::move(next);
    }
    return shards;
}

}  // namespace transform::synth
