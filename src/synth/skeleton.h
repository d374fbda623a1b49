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

#include <functional>
#include <vector>

#include "elt/program.h"

namespace transform::synth {

/// Knobs for skeleton generation.
struct SkeletonOptions {
    int num_events = 4;       ///< exact total event count
    int max_threads = 2;      ///< cores to consider
    int max_vas = 2;          ///< distinct data VAs
    int max_fresh_pas = 1;    ///< extra PAs beyond the initial frames
    bool vm_enabled = true;   ///< MTM (true) or plain MCM (false) vocabulary
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
/// thread 1+ (closed-prefix shards), which keeps deep partitions of a heavy
/// one-slot-first-thread subtree growing. Shards are the unit of work of
/// the parallel synthesis runtime: they are disjoint, they can be searched
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
/// decisions (closed-prefix splitting), so a deep partition never
/// dead-ends on a heavy one-slot-first-thread subtree. Visiting the
/// children in list order replays the parent's program stream exactly;
/// partition_skeletons_at_depth applies it level by level. Returns an
/// empty vector only when no structural decision remains (the prefix pins
/// the complete slot structure: the event budget is spent and the last
/// thread is closed, or no further thread may open) — such a shard still
/// holds the linking/VA/PA variants of that one structure, but cannot be
/// subdivided further.
std::vector<SkeletonShard> split_shard(const SkeletonShard& shard);

/// As for_each_skeleton(options, visit), restricted to one shard.
bool for_each_skeleton(const SkeletonShard& shard,
                       const std::function<bool(const elt::Program&)>& visit);

}  // namespace transform::synth
