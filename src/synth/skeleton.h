/// \file
/// Bounded enumeration of ELT program skeletons.
///
/// The paper's synthesis bound counts *every* event, ghost instructions
/// included (ptwalk2 = 4 events). Enumeration proceeds per thread over
/// weighted instruction slots:
///   - Read  (TLB miss: R + Rptw = 2 events | hit: R = 1 event)
///   - Write (miss: W + Wdb + Rptw = 3 | hit: W + Wdb = 2; with the
///     dirty-bit-as-RMW ablation each Write also carries an Rdb)
///   - MFENCE (1)
///   - WPTE (1; later linked to exactly one INVLPG per core)
///   - INVLPG (1; linked to a WPTE or spurious)
/// followed by remap linking, canonical VA assignment, WPTE target-PA
/// assignment and optional rmw marking. In MCM mode (vm_enabled = false)
/// only plain Reads/Writes/fences exist with weight 1, reproducing the
/// prior-work litmus synthesis setting used as our baseline.
#pragma once

#include <cstdint>
#include <functional>

#include "elt/program.h"

namespace transform::synth {

/// Knobs for skeleton generation.
struct SkeletonOptions {
    int num_events = 4;       ///< exact total event count
    int max_threads = 2;      ///< cores to consider
    int max_vas = 2;          ///< distinct data VAs
    int max_fresh_pas = 1;    ///< extra PAs beyond the initial frames
    bool vm_enabled = true;   ///< MTM (true) or plain MCM (false) vocabulary
    bool allow_rmw = true;    ///< generate rmw-marked adjacent pairs
    bool allow_fences = true; ///< generate MFENCE slots
    bool allow_full_flush = false;  ///< extension: INVLPGALL (full TLB flush)
    bool dirty_bit_as_rmw = false;  ///< ablation: Writes carry Rdb + Wdb

    // Static per-axiom requirements (soundness-preserving pruning): a
    // violation of the target axiom structurally requires these features.
    bool require_wpte = false;   ///< invlpg axiom needs a PTE write
    bool require_rmw = false;    ///< rmw_atomicity needs an rmw pair
    bool require_shared_walk = false;  ///< tlb_causality needs a TLB hit
};

/// Invokes \p visit for every valid program skeleton with exactly
/// `num_events` events. \p visit returns false to stop early; the function
/// returns false in that case.
bool for_each_skeleton(const SkeletonOptions& options,
                       const std::function<bool(const elt::Program&)>& visit);

/// In a shard prefix, ends the thread under construction instead of
/// appending a slot.
inline constexpr int kCloseThread = -1;

/// A contiguous slice of the skeleton space: every skeleton whose slot
/// structure begins with the given sequence of decisions. A decision is an
/// ordinal into the enumerator's slot vocabulary (append that slot to the
/// thread under construction) or kCloseThread (end the thread). The stream
/// runs across threads: after a kCloseThread, later decisions constrain the
/// next thread — so prefixes can descend past a closed first thread into
/// thread 1+, which is what lets deep adaptive re-splits keep subdividing a
/// heavy one-slot-first-thread subtree. Shards are the unit of work of the
/// parallel synthesis runtime: they are disjoint, they can be searched
/// independently, and visiting the shards of partition_skeletons_at_depth()
/// in list order yields exactly the program sequence of
/// for_each_skeleton(options) — the property the engine's deterministic
/// merge relies on.
struct SkeletonShard {
    SkeletonOptions options;
    std::vector<int> prefix;
};

/// Splits the skeleton space of \p options to exactly \p depth fixed
/// decisions (shards whose subtree bottoms out earlier stay shallower).
/// depth must be >= 1. Prefixes that cannot fit in the event budget are
/// dropped; shards may still turn out empty for deeper reasons (linking,
/// VA feasibility), which is harmless. Shards in list order concatenate to
/// the full enumeration stream.
std::vector<SkeletonShard> partition_skeletons_at_depth(
    const SkeletonOptions& options, int depth);

/// Splits \p shard one decision deeper: returns its children in the
/// enumerator's child order (close-thread first — only when the thread
/// under construction is non-empty — then each slot that fits the event
/// budget). A prefix that has closed thread 0 splits on the *next* thread's
/// decisions (closed-prefix splitting), so deep re-splits never dead-end on
/// a heavy one-slot-first-thread subtree. Visiting the children in list
/// order replays the parent's program stream exactly, which is what lets
/// the engine's lazy re-splitting preserve the deterministic-suite
/// contract. Returns an empty vector only when no structural decision
/// remains (the prefix pins the complete slot structure: the event budget
/// is spent and the last thread is closed, or no further thread may open) —
/// such a shard still holds the linking/VA/PA variants of that one
/// structure, but cannot be subdivided further.
std::vector<SkeletonShard> split_shard(const SkeletonShard& shard);

/// Counts the programs in \p shard, stopping early at \p limit. The count
/// is a pure function of the shard (no scheduling dependence).
std::uint64_t count_skeletons(const SkeletonShard& shard,
                              std::uint64_t limit);

/// As for_each_skeleton(options, visit), restricted to one shard.
bool for_each_skeleton(const SkeletonShard& shard,
                       const std::function<bool(const elt::Program&)>& visit);

/// Where a bounded shard search pass stopped (see search_skeletons).
struct ShardSearchStop {
    /// An unvisited candidate remains beyond the visit limit; resume_*
    /// describe where to pick the search back up.
    bool hit_limit = false;
    /// The visitor returned false (caller-initiated stop, e.g. a deadline).
    bool visitor_stopped = false;
    /// Candidates passed to the visitor (skipped candidates excluded).
    std::uint64_t visited = 0;
    /// Candidates actually enumerated past during the skip replay — less
    /// than the requested skip when \p interrupt aborted the pass early.
    std::uint64_t skipped = 0;
    /// Valid when hit_limit: the decision at depth prefix.size() of the
    /// first candidate not consumed — identifies which split_shard child
    /// the remainder of the stream starts in (children before it are fully
    /// consumed, children after it untouched).
    int resume_decision = kCloseThread;
    /// Valid when hit_limit: consumed candidates (skipped + visited)
    /// belonging to that child — the `skip` to resume it with.
    std::uint64_t resume_skip = 0;
};

/// The lazily-splittable search primitive of the parallel runtime: visits
/// \p shard's program stream like for_each_skeleton, except that the first
/// \p skip candidates are enumerated but not passed to \p visit (they were
/// already consumed by an ancestor shard job), and — when \p limit is
/// non-zero — the pass stops as soon as a (limit+1)-th candidate is
/// reached, reporting a resume point instead of visiting it. Handing the
/// stop's resume_decision/resume_skip to the matching split_shard children,
/// in child order, replays exactly the unconsumed remainder of the stream —
/// the contract lazy in-search re-splitting relies on, and what removed the
/// eager count_skeletons probe's duplicate enumeration per shard.
///
/// \p interrupt, when provided, is polled once per *skipped* candidate;
/// returning true aborts the pass (reported as visitor_stopped). Visited
/// candidates can stop the pass from \p visit directly, but the skip
/// replay never reaches the visitor — without the hook a resumed child
/// could burn through its whole skip prefix after its deadline expired.
ShardSearchStop search_skeletons(
    const SkeletonShard& shard, std::uint64_t skip, std::uint64_t limit,
    const std::function<bool(const elt::Program&)>& visit,
    const std::function<bool()>& interrupt = nullptr);

}  // namespace transform::synth
