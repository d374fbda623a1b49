#include "mtm/relax.h"

#include <algorithm>

#include "elt/derive.h"
#include "util/logging.h"

namespace transform::mtm {

using elt::Event;
using elt::EventId;
using elt::EventKind;
using elt::Execution;
using elt::kNone;
using elt::Program;

std::string
Relaxation::describe(const Program& program) const
{
    switch (kind) {
    case Kind::kRemoveUserEvent:
        return "remove " + elt::event_to_string(target, program.event(target)) +
               " (+ghosts)";
    case Kind::kRemoveWpte:
        return "remove " + elt::event_to_string(target, program.event(target)) +
               " (+INVLPGs)";
    case Kind::kRemoveSpuriousInvlpg:
        return "remove spurious " +
               elt::event_to_string(target, program.event(target));
    case Kind::kRemoveMfence:
        return "remove " + elt::event_to_string(target, program.event(target));
    case Kind::kDropRmw:
        return "drop rmw dependency #" + std::to_string(target);
    }
    return "?";
}

void
applicable_relaxations_into(const Program& program,
                            std::vector<Relaxation>* out)
{
    out->clear();
    for (EventId id = 0; id < program.num_events(); ++id) {
        const Event& e = program.event(id);
        switch (e.kind) {
        case EventKind::kRead:
        case EventKind::kWrite:
            out->push_back({Relaxation::Kind::kRemoveUserEvent, id});
            break;
        case EventKind::kWpte:
            out->push_back({Relaxation::Kind::kRemoveWpte, id});
            break;
        case EventKind::kInvlpg:
            if (e.remap_src == kNone) {
                out->push_back({Relaxation::Kind::kRemoveSpuriousInvlpg, id});
            }
            break;
        case EventKind::kInvlpgAll:
            out->push_back({Relaxation::Kind::kRemoveSpuriousInvlpg, id});
            break;
        case EventKind::kMfence:
            out->push_back({Relaxation::Kind::kRemoveMfence, id});
            break;
        default:
            break;  // ghosts are never removable in isolation
        }
    }
    for (int i = 0; i < static_cast<int>(program.rmw_pairs().size()); ++i) {
        out->push_back({Relaxation::Kind::kDropRmw, i});
    }
}

std::vector<Relaxation>
applicable_relaxations(const Program& program)
{
    std::vector<Relaxation> out;
    applicable_relaxations_into(program, &out);
    return out;
}

namespace {

/// Marks the removal group of \p seeds in \p group (one flag per event):
/// the seeds, the ghosts of removed user events, the remap Invlpgs of
/// removed Wptes, and the spurious invalidations left without a later
/// same-core (same-VA for a targeted Invlpg) access. Only seeds remove
/// data accesses and Wptes, so one sweep settles every rule: the group
/// depends on the program alone.
void
removal_group_into(const Program& p, const EventId* seeds,
                   std::size_t num_seeds, std::vector<char>* group)
{
    const int n = p.num_events();
    std::vector<char>& removed = *group;
    removed.assign(n, 0);
    for (std::size_t i = 0; i < num_seeds; ++i) {
        removed[seeds[i]] = 1;
    }
    for (EventId id = 0; id < n; ++id) {
        const Event& e = p.event(id);
        if (elt::is_ghost(e.kind) && removed[e.parent]) {
            removed[id] = 1;
        }
        if (e.kind == EventKind::kInvlpg && e.remap_src != kNone &&
            removed[e.remap_src]) {
            removed[id] = 1;
        }
        if ((e.kind == EventKind::kInvlpg && e.remap_src == kNone) ||
            e.kind == EventKind::kInvlpgAll) {
            bool useful = false;
            for (EventId other = 0; other < n && !useful; ++other) {
                const Event& o = p.event(other);
                useful = !removed[other] && elt::is_data_access(o.kind) &&
                         o.thread == e.thread &&
                         (e.kind == EventKind::kInvlpgAll || o.va == e.va) &&
                         p.precedes(id, other);
            }
            removed[id] = removed[id] || !useful;
        }
    }
}

/// The events a removal request deletes, into scratch->removed: the
/// removal group, except a walk that followed its parent while some
/// surviving access still reads through it (rebuild_into re-parents it).
void
removal_closure_into(const Execution& exec, const EventId* seeds,
                     std::size_t num_seeds, RelaxScratch* scratch)
{
    const Program& p = exec.program;
    const int n = p.num_events();
    std::vector<char>& removed = scratch->removed;
    removal_group_into(p, seeds, num_seeds, &removed);
    for (EventId id = 0; id < n; ++id) {
        const Event& e = p.event(id);
        if (!removed[id] || e.kind != EventKind::kRptw ||
            std::find(seeds, seeds + num_seeds, id) != seeds + num_seeds) {
            continue;
        }
        for (EventId user = 0; user < n; ++user) {
            if (!removed[user] && exec.ptw_src[user] == id) {
                removed[id] = 0;
                break;
            }
        }
    }
}

/// Sorts the coherence rows (class key, translated old position, new id)
/// and assigns compacted positions 0..k within each equal-key run into
/// \p positions. Per-class compaction is independent of class iteration
/// order, so this matches the old per-map-bucket sorts exactly.
void
compact_rows(std::vector<RelaxScratch::Row>* rows, std::vector<int>* positions)
{
    std::sort(rows->begin(), rows->end(),
              [](const RelaxScratch::Row& a, const RelaxScratch::Row& b) {
                  if (a.key != b.key) {
                      return a.key < b.key;
                  }
                  if (a.pos != b.pos) {
                      return a.pos < b.pos;
                  }
                  return a.id < b.id;
              });
    int within = 0;
    for (std::size_t i = 0; i < rows->size(); ++i) {
        within = (i > 0 && (*rows)[i].key == (*rows)[i - 1].key)
                     ? within + 1
                     : 0;
        (*positions)[(*rows)[i].id] = within;
    }
}

/// Rebuilds the program and witnesses over the surviving events, into
/// scratch->relaxed (pooled storage, no steady-state allocation).
void
rebuild_into(const Execution& exec, int dropped_rmw_index, bool vm_enabled,
             RelaxScratch* scratch)
{
    const Program& old = exec.program;
    const int n = old.num_events();
    const std::vector<char>& removed = scratch->removed;

    // Survivor walks that lost their parent get re-parented to their
    // earliest surviving user.
    std::vector<EventId>& new_parent = scratch->new_parent;
    new_parent.assign(n, kNone);
    for (EventId id = 0; id < n; ++id) {
        const Event& e = old.event(id);
        if (elt::is_ghost(e.kind)) {
            new_parent[id] = e.parent;
        }
        if (e.kind == EventKind::kRptw && !removed[id] && removed[e.parent]) {
            EventId earliest = kNone;
            for (EventId user = 0; user < n; ++user) {
                if (removed[user] || exec.ptw_src[user] != id) {
                    continue;
                }
                if (earliest == kNone || old.precedes(user, earliest)) {
                    earliest = user;
                }
            }
            TF_ASSERT(earliest != kNone);
            new_parent[id] = earliest;
        }
    }

    // Build the new program in place: non-ghosts first (per-thread po
    // order), then ghosts (which need their parents to exist).
    Execution& out = scratch->relaxed;
    Program& fresh = out.program;
    fresh.reset(old.num_threads());
    std::vector<EventId>& remap_id = scratch->remap_id;
    remap_id.assign(n, kNone);
    for (int t = 0; t < old.num_threads(); ++t) {
        for (const EventId id : old.thread(t)) {
            if (removed[id]) {
                continue;
            }
            Event e = old.event(id);
            remap_id[id] = fresh.add_event(e);  // remap_src fixed below
        }
    }
    for (EventId id = 0; id < n; ++id) {
        const Event& e = old.event(id);
        if (removed[id] || !elt::is_ghost(e.kind)) {
            continue;
        }
        Event copy = e;
        copy.parent = remap_id[new_parent[id]];
        TF_ASSERT(copy.parent != kNone);
        remap_id[id] = fresh.add_ghost(copy);
    }
    const int m = fresh.num_events();
    out.rf_src.assign(m, kNone);
    out.co_pos.assign(m, kNone);
    out.ptw_src.assign(m, kNone);
    out.co_pa_pos.assign(m, kNone);
    // Translate remap_src in the copied events.
    for (EventId id = 0; id < n; ++id) {
        if (removed[id]) {
            continue;
        }
        const Event& e = old.event(id);
        if (e.kind == EventKind::kInvlpg && e.remap_src != kNone) {
            const EventId nid = remap_id[id];
            Event patched = fresh.event(nid);
            patched.remap_src = remap_id[e.remap_src];
            TF_ASSERT(patched.remap_src != kNone);
            fresh.replace_event(nid, patched);
        }
    }
    // rmw pairs: keep pairs with both endpoints alive, except the
    // explicitly dropped one.
    for (int i = 0; i < static_cast<int>(old.rmw_pairs().size()); ++i) {
        if (i == dropped_rmw_index) {
            continue;
        }
        const auto& [r, w] = old.rmw_pairs()[i];
        if (!removed[r] && !removed[w]) {
            fresh.add_rmw(remap_id[r], remap_id[w]);
        }
    }

    // Witnesses: translate, dropping references to removed events.
    for (EventId id = 0; id < n; ++id) {
        if (removed[id]) {
            continue;
        }
        const EventId nid = remap_id[id];
        const EventId rf = exec.rf_src[id];
        out.rf_src[nid] = (rf != kNone && !removed[rf]) ? remap_id[rf] : kNone;
        const EventId walk = exec.ptw_src[id];
        out.ptw_src[nid] =
            (walk != kNone && !removed[walk]) ? remap_id[walk] : kNone;
    }

    // Old coherence positions, translated to the new ids (used to preserve
    // relative order when classes are re-compacted).
    std::vector<int>& old_pos = scratch->old_pos;
    old_pos.assign(m, kNone);
    for (EventId id = 0; id < n; ++id) {
        if (!removed[id] && remap_id[id] != kNone) {
            old_pos[remap_id[id]] = exec.co_pos[id];
        }
    }
    std::vector<RelaxScratch::Row>& rows = scratch->rows;

    // PTE-location coherence first: its classes are static (per VA) and
    // dirty-bit value resolution depends on it.
    rows.clear();
    for (EventId nid = 0; nid < m; ++nid) {
        const Event& e = fresh.event(nid);
        if (elt::is_pte_access(e.kind) && elt::is_write_like(e.kind)) {
            rows.push_back({e.va, old_pos[nid], nid});
        }
    }
    compact_rows(&rows, &out.co_pos);

    // Re-resolve addresses on the new program, then drop rf edges between
    // data accesses that no longer share a physical address (with VM off,
    // resolution degenerates to the VA and the check to same-VA).
    elt::ResolutionResult& resolution = scratch->resolution;
    elt::resolve_addresses_into(out, {vm_enabled}, &resolution,
                                &scratch->resolve);
    for (EventId nid = 0; nid < m; ++nid) {
        const Event& e = fresh.event(nid);
        const EventId src = out.rf_src[nid];
        if (elt::is_data_access(e.kind) && src != kNone &&
            resolution.resolved_pa[nid] != resolution.resolved_pa[src]) {
            out.rf_src[nid] = kNone;
        }
    }

    // Data coherence: classes keyed by the new resolved PAs; relative order
    // preserved (ties between writes merged from different old classes
    // break by old position, then by new id).
    rows.clear();
    for (EventId nid = 0; nid < m; ++nid) {
        const Event& e = fresh.event(nid);
        if (elt::is_data_access(e.kind) && elt::is_write_like(e.kind)) {
            rows.push_back({resolution.resolved_pa[nid], old_pos[nid], nid});
        }
    }
    compact_rows(&rows, &out.co_pos);

    // co_pa: same treatment over surviving Wptes per target PA, ordered by
    // the translated old co_pa positions.
    old_pos.assign(m, kNone);
    for (EventId id = 0; id < n; ++id) {
        if (!removed[id] && remap_id[id] != kNone) {
            old_pos[remap_id[id]] = exec.co_pa_pos[id];
        }
    }
    rows.clear();
    for (EventId nid = 0; nid < m; ++nid) {
        const Event& e = fresh.event(nid);
        if (e.kind == EventKind::kWpte) {
            rows.push_back({e.map_pa, old_pos[nid], nid});
        }
    }
    compact_rows(&rows, &out.co_pa_pos);
}

}  // namespace

elt::BitRow
removal_group(const Program& program, const Relaxation& relaxation,
              RelaxScratch* scratch)
{
    TF_ASSERT(program.num_events() <= elt::kMaxBitEvents);
    if (relaxation.kind == Relaxation::Kind::kDropRmw) {
        return 0;
    }
    const EventId seed = relaxation.target;
    removal_group_into(program, &seed, 1, &scratch->removed);
    elt::BitRow group = 0;
    for (EventId id = 0; id < program.num_events(); ++id) {
        group |= scratch->removed[id] ? elt::BitRow{1} << id : 0;
    }
    return group;
}

const Execution&
remove_events_into(const Execution& execution,
                   const std::vector<EventId>& to_remove, bool vm_enabled,
                   RelaxScratch* scratch)
{
    TF_ASSERT(scratch != nullptr);
    removal_closure_into(execution, to_remove.data(), to_remove.size(),
                         scratch);
    rebuild_into(execution, /*dropped_rmw_index=*/-1, vm_enabled, scratch);
    return scratch->relaxed;
}

const Execution&
apply_relaxation_into(const Execution& execution, const Relaxation& relaxation,
                      bool vm_enabled, RelaxScratch* scratch)
{
    TF_ASSERT(scratch != nullptr);
    switch (relaxation.kind) {
    case Relaxation::Kind::kRemoveUserEvent:
    case Relaxation::Kind::kRemoveWpte:
    case Relaxation::Kind::kRemoveSpuriousInvlpg:
    case Relaxation::Kind::kRemoveMfence: {
        const EventId seed = relaxation.target;
        removal_closure_into(execution, &seed, 1, scratch);
        rebuild_into(execution, /*dropped_rmw_index=*/-1, vm_enabled,
                     scratch);
        return scratch->relaxed;
    }
    case Relaxation::Kind::kDropRmw:
        scratch->removed.assign(execution.program.num_events(), 0);
        rebuild_into(execution, relaxation.target, vm_enabled, scratch);
        return scratch->relaxed;
    }
    TF_PANIC("unreachable relaxation kind");
}

Execution
remove_events(const Execution& execution, const std::vector<EventId>& to_remove,
              bool vm_enabled)
{
    RelaxScratch scratch;
    return remove_events_into(execution, to_remove, vm_enabled, &scratch);
}

Execution
apply_relaxation(const Execution& execution, const Relaxation& relaxation,
                 bool vm_enabled)
{
    RelaxScratch scratch;
    return apply_relaxation_into(execution, relaxation, vm_enabled, &scratch);
}

}  // namespace transform::mtm
