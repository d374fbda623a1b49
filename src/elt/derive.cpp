#include "elt/derive.h"

#include <algorithm>
#include <bit>

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

namespace {

constexpr BitRow
bit(int index)
{
    return BitRow{1} << index;
}

/// Calls \p f with the index of every set bit of \p row, lowest first.
template <typename F>
void
for_each_bit(BitRow row, F&& f)
{
    for (; row != 0; row &= row - 1) {
        f(std::countr_zero(row));
    }
}

/// Every relation of DerivedRelations, for whole-struct row operations.
constexpr BitRows DerivedRelations::*kRelations[] = {
    &DerivedRelations::po,     &DerivedRelations::po_loc,
    &DerivedRelations::po_mem, &DerivedRelations::rf,
    &DerivedRelations::co,     &DerivedRelations::fr,
    &DerivedRelations::rfe,    &DerivedRelations::ppo,
    &DerivedRelations::fence,  &DerivedRelations::rmw,
    &DerivedRelations::ghost,  &DerivedRelations::rf_ptw,
    &DerivedRelations::rf_pa,  &DerivedRelations::co_pa,
    &DerivedRelations::fr_pa,  &DerivedRelations::fr_va,
    &DerivedRelations::remap,  &DerivedRelations::ptw_source,
};

}  // namespace

void
DerivedRelations::clear()
{
    well_formed = false;
    problems.clear();
    resolved_pa.clear();
    provenance.clear();
    for (BitRows DerivedRelations::*relation : kRelations) {
        std::fill_n((this->*relation).begin(), num_events, BitRow{0});
    }
    num_events = 0;
}

void
restrict_relations(const DerivedRelations& from, BitRow survivors,
                   DerivedRelations* out)
{
    out->clear();
    out->well_formed = from.well_formed;
    out->num_events = from.num_events;
    for (BitRows DerivedRelations::*relation : kRelations) {
        const BitRows& rows = from.*relation;
        BitRows& kept = out->*relation;
        for (EventId a = 0; a < from.num_events; ++a) {
            kept[a] = (survivors & bit(a)) != 0 ? rows[a] & survivors : 0;
        }
    }
}

EdgeSet
edges_of(const BitRows& rows, int num_events)
{
    EdgeSet out;
    for (EventId a = 0; a < num_events; ++a) {
        for_each_bit(rows[a], [&](int b) { out.emplace_back(a, b); });
    }
    return out;
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

/// Refills \p f for \p p unless it already holds p's facts: the
/// program-static half of derive_into, computed once per distinct program.
const ProgramFacts&
facts_for(const Program& p, bool vm_enabled, ProgramFacts* f)
{
    if (f->filled && f->vm_enabled == vm_enabled && f->program == p) {
        return *f;
    }
    f->filled = true;
    f->vm_enabled = vm_enabled;
    f->program = p;
    f->problems = p.validate(vm_enabled);
    const int n = p.num_events();
    f->has_rows = n <= kMaxBitEvents;
    if (!f->has_rows) {
        return *f;
    }

    f->memory = f->write_like = f->read_like = f->data = f->pte = 0;
    f->wpte = f->invlpg = f->invlpg_all = 0;
    BitRow ghosts = 0;
    BitRow mfences = 0;
    for (EventId a = 0; a < n; ++a) {
        const EventKind kind = p.event(a).kind;
        f->memory |= is_memory(kind) ? bit(a) : 0;
        f->write_like |= is_write_like(kind) ? bit(a) : 0;
        f->read_like |= is_read_like(kind) ? bit(a) : 0;
        f->data |= is_data_access(kind) ? bit(a) : 0;
        f->pte |= is_pte_access(kind) ? bit(a) : 0;
        f->wpte |= kind == EventKind::kWpte ? bit(a) : 0;
        f->invlpg |= kind == EventKind::kInvlpg ? bit(a) : 0;
        f->invlpg_all |= kind == EventKind::kInvlpgAll ? bit(a) : 0;
        ghosts |= is_ghost(kind) ? bit(a) : 0;
        mfences |= kind == EventKind::kMfence ? bit(a) : 0;
    }

    // ext[a]: the later positions of a's thread (Program::precedes).
    int position[kMaxBitEvents] = {};
    for (EventId a = 0; a < n; ++a) {
        position[a] = p.position_of(a);
    }
    std::fill_n(f->ext_before.begin(), n, BitRow{0});
    for (EventId a = 0; a < n; ++a) {
        const Event& e = p.event(a);
        BitRow after = 0;
        for (EventId b = 0; b < n; ++b) {
            after |= p.event(b).thread == e.thread && position[b] > position[a]
                         ? bit(b)
                         : 0;
        }
        f->ext[a] = after;
        for_each_bit(after, [&](int b) { f->ext_before[b] |= bit(a); });
        f->same_va_pte[a] = 0;
        for_each_bit(f->pte, [&](int b) {
            f->same_va_pte[a] |= p.event(b).va == e.va ? bit(b) : 0;
        });
        f->same_pa_wpte[a] = 0;
        if (f->wpte & bit(a)) {
            for_each_bit(f->wpte, [&](int b) {
                f->same_pa_wpte[a] |=
                    p.event(b).map_pa == e.map_pa ? bit(b) : 0;
            });
        }
    }

    // A spurious invalidation needs a later same-core access it affects
    // (any data access for a full flush, one of its VA otherwise).
    f->useless_invlpg = 0;
    for (EventId id = 0; id < n; ++id) {
        const Event& e = p.event(id);
        const bool full = e.kind == EventKind::kInvlpgAll;
        if (!full && !(e.kind == EventKind::kInvlpg && e.remap_src == kNone)) {
            continue;
        }
        bool useful = false;
        for_each_bit(f->ext[id] & f->data, [&](int other) {
            useful = useful || full || p.event(other).va == e.va;
        });
        f->useless_invlpg |= useful ? 0 : bit(id);
    }

    if (!f->problems.empty()) {
        return *f;  // no execution of p is well-formed: no relation needed
    }
    for (EventId a = 0; a < n; ++a) {
        f->po[a] = (ghosts & bit(a)) ? 0 : f->ext[a] & ~ghosts;
        f->po_mem[a] = (f->memory & bit(a)) ? f->ext[a] & f->memory : 0;
        // TSO keeps every pair but write -> read.
        f->ppo[a] = f->po_mem[a] &
                    ((f->write_like & bit(a)) ? ~f->read_like : ~BitRow{0});
        // ext is transitive, so a -> f -> b through an MFENCE f implies
        // a -> b: the pairs are a's row joined with the fences' rows.
        BitRow after_fence = 0;
        for_each_bit(f->ext[a] & mfences,
                     [&](int fence) { after_fence |= f->ext[fence]; });
        f->fence[a] = (f->memory & bit(a)) ? after_fence & f->memory : 0;
        f->rmw[a] = 0;
        f->ghost[a] = 0;
        f->remap[a] = 0;
    }
    for (const auto& [r, w] : p.rmw_pairs()) {
        f->rmw[r] |= bit(w);
    }
    for (EventId id = 0; id < n; ++id) {
        const Event& e = p.event(id);
        if (is_ghost(e.kind)) {
            f->ghost[e.parent] |= bit(id);
        }
        if (e.kind == EventKind::kInvlpg && e.remap_src != kNone) {
            f->remap[e.remap_src] |= bit(id);
        }
    }
    return *f;
}

/// True when the coherence positions of \p members are exactly
/// 0 .. |members| - 1.
bool
is_permutation(BitRow members, const std::vector<int>& positions)
{
    const int count = std::popcount(members);
    BitRow seen = 0;
    bool ok = true;
    for_each_bit(members, [&](int id) {
        const int pos = positions[id];
        ok = ok && pos >= 0 && pos < count && (seen & bit(pos)) == 0;
        seen |= ok ? bit(pos) : 0;
    });
    return ok;
}

}  // namespace

bool
rows_have_cycle(const BitRow* rows, int num_nodes)
{
    BitRow live = event_mask(num_nodes);
    // Sweep from the highest event down, dropping each sink as it is found,
    // so a chain ordered by event id (po, mostly) peels in one sweep. A
    // sweep that drops nothing leaves only nodes with a live successor.
    for (;;) {
        const BitRow before = live;
        for (BitRow pending = live; pending != 0;) {
            const int node = std::bit_width(pending) - 1;
            pending &= ~bit(node);
            if ((rows[node] & live) == 0) {
                live &= ~bit(node);
            }
        }
        if (live == before) {
            return live != 0;
        }
    }
}

BitRow
rows_cycle_core(const BitRow* rows, int num_nodes)
{
    BitRow live = event_mask(num_nodes);
    for (;;) {
        BitRow has_successor = 0;
        BitRow has_predecessor = 0;
        for_each_bit(live, [&](int node) {
            const BitRow successors = rows[node] & live;
            has_successor |= successors != 0 ? bit(node) : 0;
            has_predecessor |= successors;
        });
        const BitRow core = live & has_successor & has_predecessor;
        if (core == live) {
            return live;
        }
        live = core;
    }
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
    const ProgramFacts& f =
        facts_for(p, options.vm_enabled, &scratch->facts);
    out.problems = f.problems;

    auto witness_sizes_ok = static_cast<int>(exec.rf_src.size()) == n &&
                            static_cast<int>(exec.co_pos.size()) == n &&
                            static_cast<int>(exec.ptw_src.size()) == n &&
                            static_cast<int>(exec.co_pa_pos.size()) == n;
    if (!witness_sizes_ok) {
        out.problems.push_back("witness vectors sized differently from program");
        out.well_formed = false;
        return;
    }
    if (!f.has_rows) {
        return;  // over the bit-row cap; validate's problem says so
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

    // Coherence classes: data accesses by resolved PA, PTE accesses by
    // VA. same_class[a] holds the memory events of a's class.
    BitRow same_class[kMaxBitEvents] = {};
    for_each_bit(f.pte, [&](int a) { same_class[a] = f.same_va_pte[a]; });
    for (BitRow pending = f.data; pending != 0;) {
        const PaId pa = out.resolved_pa[std::countr_zero(pending)];
        BitRow members = 0;
        for_each_bit(pending, [&](int b) {
            members |= out.resolved_pa[b] == pa ? bit(b) : 0;
        });
        pending &= ~members;
        for_each_bit(members, [&](int m) { same_class[m] = members; });
    }

    // ------------------------------------------------------------------
    // Well-formedness of the witnesses (placement rules).
    // ------------------------------------------------------------------
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
                    // No Invlpg for this VA may separate the walk from the
                    // use (ordered on both sides: the walker's core).
                    const BitRow between = f.ext[walker] & f.ext_before[id] &
                                           (f.invlpg | f.invlpg_all);
                    for_each_bit(between, [&](int other) {
                        const Event& i = p.event(other);
                        if (i.kind == EventKind::kInvlpgAll || i.va == e.va) {
                            problem("TLB entry used across an INVLPG");
                        }
                    });
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

        // Spurious invalidation usefulness rule (a program fact).
        if (f.useless_invlpg & bit(id)) {
            problem("spurious INVLPG with no later "
                    "same-VA access on its core");
        }
    }

    // Coherence positions form a permutation within each class, and
    // co_pa positions within each target PA.
    BitRow ordered = 0;
    for_each_bit(f.write_like, [&](int w) {
        ordered |= exec.co_pos[w] != kNone ? bit(w) : 0;
    });
    while (ordered != 0) {
        const BitRow members = ordered & same_class[std::countr_zero(ordered)];
        ordered &= ~members;
        if (!is_permutation(members, exec.co_pos)) {
            out.problems.push_back("co positions are not a permutation "
                                   "within a coherence class");
        }
    }
    ordered = 0;
    for_each_bit(f.wpte, [&](int w) {
        ordered |= exec.co_pa_pos[w] != kNone ? bit(w) : 0;
    });
    while (ordered != 0) {
        const BitRow members =
            ordered & f.same_pa_wpte[std::countr_zero(ordered)];
        ordered &= ~members;
        if (!is_permutation(members, exec.co_pa_pos)) {
            out.problems.push_back("co_pa positions are not a "
                                   "permutation within a PA class");
        }
    }
    // co and co_pa must agree where both order the same pair of Wptes.
    for_each_bit(f.wpte, [&](int a) {
        const BitRow same_mapping =
            f.same_pa_wpte[a] & f.same_va_pte[a] & ~bit(a);
        for_each_bit(same_mapping, [&](int b) {
            if (exec.co_pos[a] != kNone && exec.co_pos[b] != kNone &&
                (exec.co_pos[a] < exec.co_pos[b]) !=
                    (exec.co_pa_pos[a] < exec.co_pa_pos[b])) {
                out.problems.push_back("co and co_pa disagree on Wpte order");
            }
        });
    });

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
    out.num_events = n;
    const auto copy_rows = [n](const BitRows& from, BitRows* to) {
        std::copy_n(from.begin(), n, to->begin());
    };
    copy_rows(f.po, &out.po);
    copy_rows(f.po_mem, &out.po_mem);
    copy_rows(f.ppo, &out.ppo);
    copy_rows(f.fence, &out.fence);
    copy_rows(f.rmw, &out.rmw);
    copy_rows(f.ghost, &out.ghost);
    copy_rows(f.remap, &out.remap);

    // po_loc: extended order within a coherence class.
    for_each_bit(f.memory, [&](int a) {
        out.po_loc[a] = f.ext[a] & same_class[a];
    });

    // rf / rfe.
    for (EventId r = 0; r < n; ++r) {
        const EventId src = exec.rf_src[r];
        if (src == kNone) {
            continue;
        }
        out.rf[src] |= bit(r);
        if (p.event(src).thread != p.event(r).thread) {
            out.rfe[src] |= bit(r);
        }
    }

    // co (transitive within each class) and fr: a read's class writes
    // coherence-after its source.
    for_each_bit(f.write_like, [&](int w) {
        for_each_bit(same_class[w] & f.write_like, [&](int later) {
            out.co[w] |= exec.co_pos[later] > exec.co_pos[w] ? bit(later) : 0;
        });
    });
    for_each_bit(f.read_like, [&](int r) {
        const EventId src = exec.rf_src[r];
        const int src_pos = src == kNone ? -1 : exec.co_pos[src];
        for_each_bit(same_class[r] & f.write_like, [&](int w) {
            out.fr[r] |= w != src && exec.co_pos[w] > src_pos ? bit(w) : 0;
        });
    });

    if (!options.vm_enabled) {
        return;
    }

    // rf_ptw and ptw_source.
    for (EventId e = 0; e < n; ++e) {
        const EventId walk = exec.ptw_src[e];
        if (walk == kNone) {
            continue;
        }
        out.rf_ptw[walk] |= bit(e);
        const EventId walker = p.event(walk).parent;
        if (walker != e) {
            out.ptw_source[walker] |= bit(e);
        }
    }

    for_each_bit(f.data, [&](int e) {
        const EventId prov = out.provenance[e];
        // rf_pa.
        if (prov != kNone) {
            out.rf_pa[prov] |= bit(e);
        }
        // fr_pa: the provenance's co_pa successors among the Wptes mapping
        // the accessed PA (the initial mapping precedes them all).
        const int pa_pos = prov == kNone ? -1 : exec.co_pa_pos[prov];
        for_each_bit(f.wpte, [&](int w) {
            if (p.event(w).map_pa == out.resolved_pa[e] && w != prov &&
                exec.co_pa_pos[w] > pa_pos) {
                out.fr_pa[e] |= bit(w);
            }
        });
        // fr_va: later Wptes remapping the accessed VA (in PTE-location
        // coherence order relative to the provenance write).
        const int va_pos = prov == kNone ? -1 : exec.co_pos[prov];
        for_each_bit(f.same_va_pte[e] & f.wpte, [&](int w) {
            out.fr_va[e] |= w != prov && exec.co_pos[w] > va_pos ? bit(w) : 0;
        });
    });

    // co_pa (transitive per target-PA class).
    for_each_bit(f.wpte, [&](int w) {
        for_each_bit(f.same_pa_wpte[w], [&](int later) {
            out.co_pa[w] |=
                exec.co_pa_pos[later] > exec.co_pa_pos[w] ? bit(later) : 0;
        });
    });
}

}  // namespace transform::elt
