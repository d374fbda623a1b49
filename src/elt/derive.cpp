#include "elt/derive.h"

#include <algorithm>
#include <bit>
#include <tuple>

#include "util/logging.h"

namespace transform::elt {

Execution
Execution::empty_for(Program program)
{
    Execution e;
    const int n = program.num_events();
    e.program = std::move(program);
    e.rf_src.assign(n, kNone);
    e.co_pos.assign(n, kNone);
    e.ptw_src.assign(n, kNone);
    e.co_pa_pos.assign(n, kNone);
    return e;
}

void
DerivedRelations::clear()
{
    well_formed = false;
    problems.clear();
    resolved_pa.clear();
    provenance.clear();
    po.clear();
    po_loc.clear();
    rf.clear();
    co.clear();
    fr.clear();
    rfe.clear();
    ppo.clear();
    fence.clear();
    rmw.clear();
    ghost.clear();
    rf_ptw.clear();
    rf_pa.clear();
    co_pa.clear();
    fr_pa.clear();
    fr_va.clear();
    remap.clear();
    ptw_source.clear();
}

namespace {

/// Resolves physical addresses and mapping provenance through the
/// rf_ptw / PTE-read chains. Cyclic value dependencies (a walk reading a
/// dirty-bit write whose parent's translation depends on that walk) are
/// rejected. All state lives in the caller's DeriveScratch.
class Resolver {
  public:
    Resolver(const Execution& exec, std::vector<std::string>* problems,
             DeriveScratch* scratch)
        : exec_(exec), problems_(problems),
          state_(scratch->resolver_state), pa_(scratch->resolver_pa),
          prov_(scratch->resolver_prov)
    {
        const int n = exec.program.num_events();
        state_.assign(n, kUnvisited);
        pa_.assign(n, kNone);
        prov_.assign(n, kNone);
    }

    /// Resolved PA for a data access, Rptw (mapping value), or Wdb (value
    /// written); kNone on failure.
    PaId pa_of(EventId id)
    {
        resolve(id);
        return pa_[id];
    }

    /// The Wpte that originated the mapping used/propagated by \p id, or
    /// kNone for the initial mapping.
    EventId provenance_of(EventId id)
    {
        resolve(id);
        return prov_[id];
    }

  private:
    enum State { kUnvisited, kInProgress, kDone };

    void fail(EventId id, const char* reason)
    {
        problems_->push_back("event " + std::to_string(id) +
                             ": unresolvable translation (" +
                             std::string(reason) + ")");
        pa_[id] = kNone;
        prov_[id] = kNone;
    }

    void resolve(EventId id)
    {
        if (state_[id] == kDone) {
            return;
        }
        if (state_[id] == kInProgress) {
            // Caller detects the cycle via kNone; flag it once.
            fail(id, "cyclic value dependency");
            state_[id] = kDone;
            return;
        }
        state_[id] = kInProgress;
        const Event& e = exec_.program.event(id);
        switch (e.kind) {
        case EventKind::kRead:
        case EventKind::kWrite: {
            const EventId walk = exec_.ptw_src[id];
            if (walk == kNone) {
                fail(id, "data access without a translation source");
                break;
            }
            resolve(walk);
            pa_[id] = pa_[walk];
            prov_[id] = prov_[walk];
            break;
        }
        case EventKind::kRptw:
        case EventKind::kRdb: {
            const EventId src = exec_.rf_src[id];
            if (src == kNone) {
                pa_[id] = e.va;  // initial mapping: VA i -> PA i
                prov_[id] = kNone;
                break;
            }
            const Event& w = exec_.program.event(src);
            if (w.kind == EventKind::kWpte) {
                pa_[id] = w.map_pa;
                prov_[id] = src;
            } else if (w.kind == EventKind::kWdb) {
                resolve(src);
                pa_[id] = pa_[src];
                prov_[id] = prov_[src];
            } else {
                fail(id, "PTE read sourced by a non-PTE write");
            }
            break;
        }
        case EventKind::kWdb: {
            // A dirty-bit update sets a status bit only: it preserves the
            // mapping already in the PTE, i.e. the value left by its
            // immediate coherence predecessor at this PTE location (the
            // initial mapping when it is coherence-first). Matches the
            // values shown in Figs. 2b, 6d and 10b of the paper.
            if (exec_.co_pos[id] == kNone) {
                fail(id, "dirty-bit write without a coherence position");
                break;
            }
            EventId pred = kNone;
            int best = -1;
            for (EventId w = 0; w < exec_.program.num_events(); ++w) {
                const Event& we = exec_.program.event(w);
                if (w != id && is_pte_access(we.kind) &&
                    is_write_like(we.kind) && we.va == e.va &&
                    exec_.co_pos[w] != kNone &&
                    exec_.co_pos[w] < exec_.co_pos[id] &&
                    exec_.co_pos[w] > best) {
                    best = exec_.co_pos[w];
                    pred = w;
                }
            }
            if (pred == kNone) {
                pa_[id] = e.va;  // initial mapping
                prov_[id] = kNone;
            } else if (exec_.program.event(pred).kind == EventKind::kWpte) {
                pa_[id] = exec_.program.event(pred).map_pa;
                prov_[id] = pred;
            } else {
                resolve(pred);
                pa_[id] = pa_[pred];
                prov_[id] = prov_[pred];
            }
            break;
        }
        case EventKind::kWpte:
            pa_[id] = e.map_pa;
            prov_[id] = id;
            break;
        default:
            fail(id, "event kind has no resolvable address");
            break;
        }
        if (state_[id] != kDone) {
            state_[id] = kDone;
        }
    }

    const Execution& exec_;
    std::vector<std::string>* problems_;
    std::vector<int>& state_;
    std::vector<PaId>& pa_;
    std::vector<EventId>& prov_;
};

/// Coherence-class key: data writes/reads resolve to ("data", PA); PTE
/// accessors to ("pte", VA). first == kNone marks "no class".
struct ClassKey {
    int tag;  // 0 = data (by PA), 1 = pte (by VA), -1 = none
    int index;
    bool operator==(const ClassKey&) const = default;
    auto operator<=>(const ClassKey&) const = default;
};

/// Order-preserving integer encoding of ClassKey (tag major, index minor),
/// valid for index >= kNone: sorting encoded keys visits classes exactly as
/// iterating the std::map<ClassKey, ...> this replaced did.
std::int64_t
encode_class(const ClassKey& key)
{
    return (static_cast<std::int64_t>(key.tag) << 32) +
           (static_cast<std::int64_t>(key.index) + 1);
}

/// Rebuilds scratch->class_groups as the contiguous [begin, end) runs of
/// equal keys in the (already sorted) keyed_writes.
void
build_class_groups(DeriveScratch* scratch)
{
    scratch->class_groups.clear();
    const auto& rows = scratch->keyed_writes;
    std::size_t i = 0;
    while (i < rows.size()) {
        std::size_t j = i + 1;
        while (j < rows.size() && rows[j].key == rows[i].key) {
            ++j;
        }
        scratch->class_groups.push_back({rows[i].key, static_cast<int>(i),
                                         static_cast<int>(j)});
        i = j;
    }
}

/// Finds the group with the given key (nullptr when absent).
const DeriveScratch::ClassGroup*
find_class_group(const DeriveScratch& scratch, std::int64_t key)
{
    const auto it = std::lower_bound(
        scratch.class_groups.begin(), scratch.class_groups.end(), key,
        [](const DeriveScratch::ClassGroup& g, std::int64_t k) {
            return g.key < k;
        });
    if (it == scratch.class_groups.end() || it->key != key) {
        return nullptr;
    }
    return &*it;
}

/// The row with bits [0, num_nodes) set. At 64 nodes that is the full
/// word: shifting by 64 would be undefined.
BitRow
live_mask(int num_nodes)
{
    return num_nodes == kMaxBitEvents ? ~BitRow{0}
                                      : (BitRow{1} << num_nodes) - 1;
}

}  // namespace

bool
rows_have_cycle(const BitRow* rows, int num_nodes)
{
    BitRow live = live_mask(num_nodes);
    // Sweep from the highest event down, dropping each sink as it is found,
    // so a chain ordered by event id (po, mostly) peels in one sweep. A
    // sweep that drops nothing leaves only nodes with a live successor.
    for (;;) {
        const BitRow before = live;
        for (BitRow pending = live; pending != 0;) {
            const int node = std::bit_width(pending) - 1;
            const BitRow bit = BitRow{1} << node;
            pending &= ~bit;
            if ((rows[node] & live) == 0) {
                live &= ~bit;
            }
        }
        if (live == before) {
            return live != 0;
        }
    }
}

bool
has_cycle(int num_nodes, const EdgeSet* const* edge_sets,
          std::size_t num_edge_sets)
{
    TF_ASSERT(num_nodes >= 0 && num_nodes <= kMaxBitEvents);
    BitRow rows[kMaxBitEvents];
    std::fill_n(rows, num_nodes, BitRow{0});
    for (std::size_t s = 0; s < num_edge_sets; ++s) {
        for (const auto& [from, to] : *edge_sets[s]) {
            rows[from] |= BitRow{1} << to;
        }
    }
    return rows_have_cycle(rows, num_nodes);
}

ResolutionResult
resolve_addresses(const Execution& exec, const DeriveOptions& options)
{
    ResolutionResult out;
    DeriveScratch scratch;
    resolve_addresses_into(exec, options, &out, &scratch);
    return out;
}

void
resolve_addresses_into(const Execution& exec, const DeriveOptions& options,
                       ResolutionResult* out, DeriveScratch* scratch)
{
    TF_ASSERT(out != nullptr && scratch != nullptr);
    const Program& p = exec.program;
    const int n = p.num_events();
    out->resolved_pa.assign(n, kNone);
    out->provenance.assign(n, kNone);
    // An empty problems vector never allocates; the failure path (which
    // fills it) only runs on ill-formed executions.
    std::vector<std::string> problems;
    if (options.vm_enabled) {
        Resolver resolver(exec, &problems, scratch);
        for (EventId id = 0; id < n; ++id) {
            if (is_memory(p.event(id).kind)) {
                out->resolved_pa[id] = resolver.pa_of(id);
                out->provenance[id] = resolver.provenance_of(id);
            }
        }
    } else {
        for (EventId id = 0; id < n; ++id) {
            if (is_data_access(p.event(id).kind)) {
                out->resolved_pa[id] = p.event(id).va;
            }
        }
    }
    out->ok = problems.empty();
}

DerivedRelations
derive(const Execution& exec, const DeriveOptions& options)
{
    DerivedRelations out;
    DeriveScratch scratch;
    derive_into(exec, options, &out, &scratch);
    return out;
}

void
derive_into(const Execution& exec, const DeriveOptions& options,
            DerivedRelations* out_ptr, DeriveScratch* scratch)
{
    TF_ASSERT(out_ptr != nullptr && scratch != nullptr);
    DerivedRelations& out = *out_ptr;
    out.clear();
    const Program& p = exec.program;
    const int n = p.num_events();

    out.problems = p.validate(options.vm_enabled);

    auto witness_sizes_ok = static_cast<int>(exec.rf_src.size()) == n &&
                            static_cast<int>(exec.co_pos.size()) == n &&
                            static_cast<int>(exec.ptw_src.size()) == n &&
                            static_cast<int>(exec.co_pa_pos.size()) == n;
    if (!witness_sizes_ok) {
        out.problems.push_back("witness vectors sized differently from program");
        out.well_formed = false;
        return;
    }

    // ------------------------------------------------------------------
    // Resolve addresses.
    // ------------------------------------------------------------------
    out.resolved_pa.assign(n, kNone);
    out.provenance.assign(n, kNone);
    if (options.vm_enabled) {
        Resolver resolver(exec, &out.problems, scratch);
        for (EventId id = 0; id < n; ++id) {
            if (is_memory(p.event(id).kind)) {
                out.resolved_pa[id] = resolver.pa_of(id);
                out.provenance[id] = resolver.provenance_of(id);
            }
        }
    } else {
        for (EventId id = 0; id < n; ++id) {
            const Event& e = p.event(id);
            if (is_data_access(e.kind)) {
                out.resolved_pa[id] = e.va;  // VAs are the locations
            } else if (is_memory(e.kind) || is_ghost(e.kind) ||
                       is_support(e.kind)) {
                if (!is_data_access(e.kind) && e.kind != EventKind::kMfence) {
                    out.problems.push_back(
                        "event " + std::to_string(id) +
                        ": VM events present with VM modelling disabled");
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Well-formedness of the witnesses (placement rules).
    // ------------------------------------------------------------------
    auto class_of = [&](EventId id) -> ClassKey {
        const Event& e = p.event(id);
        if (is_data_access(e.kind)) {
            return {0, out.resolved_pa[id]};
        }
        if (is_pte_access(e.kind)) {
            return {1, e.va};
        }
        return {-1, kNone};
    };

    for (EventId id = 0; id < n; ++id) {
        const Event& e = p.event(id);
        // Problem strings are built only when a rule fires: the happy path
        // (every synthesis candidate) must stay allocation-free.
        auto problem = [&](const char* message) {
            out.problems.push_back("event " + std::to_string(id) + ": " +
                                   message);
        };

        // Field applicability.
        if (!is_read_like(e.kind) && exec.rf_src[id] != kNone) {
            problem("rf source on a non-read");
        }
        if (!is_write_like(e.kind) && exec.co_pos[id] != kNone) {
            problem("co position on a non-write");
        }
        if (!is_data_access(e.kind) && exec.ptw_src[id] != kNone) {
            problem("translation source on a non-data event");
        }
        if (e.kind != EventKind::kWpte && exec.co_pa_pos[id] != kNone) {
            problem("co_pa position on a non-Wpte");
        }
        if (is_write_like(e.kind) && exec.co_pos[id] == kNone) {
            problem("write without a co position");
        }
        if (e.kind == EventKind::kWpte && exec.co_pa_pos[id] == kNone) {
            problem("Wpte without a co_pa position");
        }

        // Translation sourcing (vm mode only).
        if (options.vm_enabled && is_data_access(e.kind)) {
            const EventId walk = exec.ptw_src[id];
            if (walk == kNone) {
                problem("data access without a PT walk");
            } else {
                const Event& w = p.event(walk);
                if (w.kind != EventKind::kRptw) {
                    problem("translation source is not a walk");
                } else {
                    if (w.thread != e.thread) {
                        problem("walk on another core");
                    }
                    if (w.va != e.va) {
                        problem("walk for another VA");
                    }
                    const EventId walker = w.parent;
                    if (walker != id && !p.precedes(walker, id)) {
                        problem(
                            "uses a TLB entry loaded later in program order");
                    }
                    // No Invlpg for this VA may separate the walk from the use.
                    for (EventId other = 0; other < n; ++other) {
                        const Event& i = p.event(other);
                        const bool evicts =
                            (i.kind == EventKind::kInvlpg && i.va == e.va) ||
                            i.kind == EventKind::kInvlpgAll;
                        if (evicts && i.thread == e.thread &&
                            p.precedes(walker, other) &&
                            p.precedes(other, id)) {
                            problem("TLB entry used across an INVLPG");
                        }
                    }
                }
            }
        }

        // The walk's parent must itself use the walk (it missed).
        if (options.vm_enabled && e.kind == EventKind::kRptw) {
            if (exec.ptw_src[e.parent] != id) {
                problem("walk's invoking access does not read its TLB entry");
            }
        }

        // rf source typing.
        if (exec.rf_src[id] != kNone) {
            const EventId src = exec.rf_src[id];
            const Event& w = p.event(src);
            if (src == id || !is_write_like(w.kind)) {
                problem("bad rf source");
            } else if (is_data_access(e.kind)) {
                if (!is_data_access(w.kind)) {
                    problem("data read sourced by PTE write");
                } else if (options.vm_enabled &&
                           (out.resolved_pa[id] == kNone ||
                            out.resolved_pa[id] != out.resolved_pa[src])) {
                    problem("rf across different PAs");
                } else if (!options.vm_enabled && e.va != w.va) {
                    problem("rf across different VAs");
                }
            } else if (is_pte_access(e.kind)) {
                if (!is_pte_access(w.kind) || w.va != e.va) {
                    problem("PTE read sourced off-location");
                }
            }
        }

        // Spurious invalidation usefulness rule (full flushes affect
        // any VA, so any later same-core access justifies them).
        if ((e.kind == EventKind::kInvlpg && e.remap_src == kNone) ||
            e.kind == EventKind::kInvlpgAll) {
            bool useful = false;
            for (EventId other = 0; other < n; ++other) {
                const Event& o = p.event(other);
                if (is_data_access(o.kind) && o.thread == e.thread &&
                    (e.kind == EventKind::kInvlpgAll || o.va == e.va) &&
                    p.precedes(id, other)) {
                    useful = true;
                    break;
                }
            }
            if (!useful) {
                problem("spurious INVLPG with no later "
                        "same-VA access on its core");
            }
        }
    }

    // Coherence positions form a permutation within each class. Gather
    // (class, position) rows into scratch and sort — groups come out in the
    // same class order the std::map grouping produced.
    {
        auto& rows = scratch->keyed_positions;
        rows.clear();
        for (EventId id = 0; id < n; ++id) {
            if (is_write_like(p.event(id).kind) && exec.co_pos[id] != kNone) {
                rows.emplace_back(encode_class(class_of(id)),
                                  exec.co_pos[id]);
            }
        }
        std::sort(rows.begin(), rows.end());
        std::size_t i = 0;
        while (i < rows.size()) {
            std::size_t j = i;
            bool ok = true;
            while (j < rows.size() && rows[j].first == rows[i].first) {
                if (rows[j].second != static_cast<int>(j - i)) {
                    ok = false;
                }
                ++j;
            }
            if (!ok) {
                out.problems.push_back("co positions are not a permutation "
                                       "within a coherence class");
            }
            i = j;
        }
    }
    {
        auto& rows = scratch->keyed_positions;  // keyed by target PA
        rows.clear();
        for (EventId id = 0; id < n; ++id) {
            if (p.event(id).kind == EventKind::kWpte &&
                exec.co_pa_pos[id] != kNone) {
                rows.emplace_back(p.event(id).map_pa, exec.co_pa_pos[id]);
            }
        }
        std::sort(rows.begin(), rows.end());
        std::size_t i = 0;
        while (i < rows.size()) {
            std::size_t j = i;
            bool ok = true;
            while (j < rows.size() && rows[j].first == rows[i].first) {
                if (rows[j].second != static_cast<int>(j - i)) {
                    ok = false;
                }
                ++j;
            }
            if (!ok) {
                out.problems.push_back("co_pa positions are not a "
                                       "permutation within a PA class");
            }
            i = j;
        }
    }
    // co and co_pa must agree where both order the same pair of Wptes.
    for (EventId a = 0; a < n; ++a) {
        for (EventId b = 0; b < n; ++b) {
            const Event& ea = p.event(a);
            const Event& eb = p.event(b);
            if (a != b && ea.kind == EventKind::kWpte &&
                eb.kind == EventKind::kWpte && ea.va == eb.va &&
                ea.map_pa == eb.map_pa && exec.co_pos[a] != kNone &&
                exec.co_pos[b] != kNone) {
                if ((exec.co_pos[a] < exec.co_pos[b]) !=
                    (exec.co_pa_pos[a] < exec.co_pa_pos[b])) {
                    out.problems.push_back("co and co_pa disagree on Wpte order");
                }
            }
        }
    }

    // rmw pairs must act on one physical location.
    if (options.vm_enabled) {
        for (const auto& [r, w] : p.rmw_pairs()) {
            if (out.resolved_pa[r] != out.resolved_pa[w]) {
                out.problems.push_back("rmw endpoints resolve to different PAs");
            }
        }
    }

    out.well_formed = out.problems.empty();
    if (!out.well_formed) {
        return;
    }

    // ------------------------------------------------------------------
    // Derived relations.
    // ------------------------------------------------------------------

    // po: all ordered same-thread pairs of non-ghost events (transitive).
    for (int t = 0; t < p.num_threads(); ++t) {
        const auto& seq = p.thread(t);
        for (std::size_t i = 0; i < seq.size(); ++i) {
            for (std::size_t j = i + 1; j < seq.size(); ++j) {
                out.po.emplace_back(seq[i], seq[j]);
            }
        }
    }

    // Extended-order pairs over memory events, used by po_loc / ppo / fence.
    auto ext_precedes = [&](EventId a, EventId b) { return p.precedes(a, b); };

    for (EventId a = 0; a < n; ++a) {
        for (EventId b = 0; b < n; ++b) {
            if (a == b || !is_memory(p.event(a).kind) ||
                !is_memory(p.event(b).kind)) {
                continue;
            }
            if (!ext_precedes(a, b)) {
                continue;
            }
            // po_loc: same coherence class.
            if (class_of(a) == class_of(b) && class_of(a).tag != -1) {
                out.po_loc.emplace_back(a, b);
            }
            // ppo (TSO): everything but write -> read.
            if (!(is_write_like(p.event(a).kind) &&
                  is_read_like(p.event(b).kind))) {
                out.ppo.emplace_back(a, b);
            }
            // fence: an MFENCE strictly between the two events.
            for (EventId f = 0; f < n; ++f) {
                if (p.event(f).kind == EventKind::kMfence &&
                    ext_precedes(a, f) && ext_precedes(f, b)) {
                    out.fence.emplace_back(a, b);
                    break;
                }
            }
        }
    }

    // rf / rfe.
    for (EventId r = 0; r < n; ++r) {
        const EventId src = exec.rf_src[r];
        if (src == kNone) {
            continue;
        }
        out.rf.emplace_back(src, r);
        if (p.event(src).thread != p.event(r).thread) {
            out.rfe.emplace_back(src, r);
        }
    }

    // co (transitive within each class) and fr. Writes are gathered into
    // scratch rows sorted by (class, coherence position); each class is a
    // contiguous run, visited in the order the map grouping used.
    {
        auto& rows = scratch->keyed_writes;
        rows.clear();
        for (EventId id = 0; id < n; ++id) {
            if (is_write_like(p.event(id).kind)) {
                rows.push_back({encode_class(class_of(id)), exec.co_pos[id],
                                id});
            }
        }
        std::sort(rows.begin(), rows.end(),
                  [](const DeriveScratch::KeyedWrite& a,
                     const DeriveScratch::KeyedWrite& b) {
                      return std::tie(a.key, a.pos) < std::tie(b.key, b.pos);
                  });
        build_class_groups(scratch);
        for (const auto& group : scratch->class_groups) {
            for (int i = group.begin; i < group.end; ++i) {
                for (int j = i + 1; j < group.end; ++j) {
                    out.co.emplace_back(rows[i].id, rows[j].id);
                }
            }
        }
        for (EventId r = 0; r < n; ++r) {
            if (!is_read_like(p.event(r).kind)) {
                continue;
            }
            const auto* group =
                find_class_group(*scratch, encode_class(class_of(r)));
            if (group == nullptr) {
                continue;
            }
            const EventId src = exec.rf_src[r];
            const int src_pos = src == kNone ? -1 : exec.co_pos[src];
            for (int i = group->begin; i < group->end; ++i) {
                const EventId w = rows[i].id;
                if (w != src && exec.co_pos[w] > src_pos) {
                    out.fr.emplace_back(r, w);
                }
            }
        }
    }

    // rmw.
    for (const auto& pair : p.rmw_pairs()) {
        out.rmw.push_back(pair);
    }

    // ghost / remap.
    for (EventId id = 0; id < n; ++id) {
        const Event& e = p.event(id);
        if (is_ghost(e.kind)) {
            out.ghost.emplace_back(e.parent, id);
        }
        if (e.kind == EventKind::kInvlpg && e.remap_src != kNone) {
            out.remap.emplace_back(e.remap_src, id);
        }
    }

    if (!options.vm_enabled) {
        return;
    }

    // rf_ptw and ptw_source.
    for (EventId e = 0; e < n; ++e) {
        const EventId walk = exec.ptw_src[e];
        if (walk == kNone) {
            continue;
        }
        out.rf_ptw.emplace_back(walk, e);
        const EventId walker = p.event(walk).parent;
        if (walker != e) {
            out.ptw_source.emplace_back(walker, e);
        }
    }

    // rf_pa.
    for (EventId e = 0; e < n; ++e) {
        if (is_data_access(p.event(e).kind) && out.provenance[e] != kNone) {
            out.rf_pa.emplace_back(out.provenance[e], e);
        }
    }

    // co_pa (transitive per target-PA class), reusing the write rows.
    {
        auto& rows = scratch->keyed_writes;
        rows.clear();
        for (EventId id = 0; id < n; ++id) {
            if (p.event(id).kind == EventKind::kWpte) {
                rows.push_back({p.event(id).map_pa, exec.co_pa_pos[id], id});
            }
        }
        std::sort(rows.begin(), rows.end(),
                  [](const DeriveScratch::KeyedWrite& a,
                     const DeriveScratch::KeyedWrite& b) {
                      return std::tie(a.key, a.pos) < std::tie(b.key, b.pos);
                  });
        build_class_groups(scratch);
        for (const auto& group : scratch->class_groups) {
            for (int i = group.begin; i < group.end; ++i) {
                for (int j = i + 1; j < group.end; ++j) {
                    out.co_pa.emplace_back(rows[i].id, rows[j].id);
                }
            }
        }
        // fr_pa: provenance's co_pa successors (initial mapping precedes all
        // alias creations for its PA).
        for (EventId e = 0; e < n; ++e) {
            if (!is_data_access(p.event(e).kind)) {
                continue;
            }
            const EventId prov = out.provenance[e];
            const auto* group =
                find_class_group(*scratch, out.resolved_pa[e]);
            if (group == nullptr) {
                continue;
            }
            const int prov_pos = prov == kNone ? -1 : exec.co_pa_pos[prov];
            for (int i = group->begin; i < group->end; ++i) {
                const EventId w = rows[i].id;
                if (w != prov && exec.co_pa_pos[w] > prov_pos) {
                    out.fr_pa.emplace_back(e, w);
                }
            }
        }
    }

    // fr_va: later Wptes remapping the accessed VA (in PTE-location
    // coherence order relative to the provenance write).
    for (EventId e = 0; e < n; ++e) {
        if (!is_data_access(p.event(e).kind)) {
            continue;
        }
        const EventId prov = out.provenance[e];
        const int prov_pos = prov == kNone ? -1 : exec.co_pos[prov];
        for (EventId w = 0; w < n; ++w) {
            if (p.event(w).kind == EventKind::kWpte &&
                p.event(w).va == p.event(e).va && w != prov &&
                exec.co_pos[w] > prov_pos) {
                out.fr_va.emplace_back(e, w);
            }
        }
    }
}

}  // namespace transform::elt
