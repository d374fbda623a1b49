#include "synth/exec_enum.h"

#include <algorithm>

#include "util/logging.h"

namespace transform::synth {

using elt::Event;
using elt::EventId;
using elt::EventKind;
using elt::Execution;
using elt::kNone;
using elt::Program;

namespace {

/// Groups \p keyed's (key, event) pairs into \p classes in std::map order:
/// ascending key, members by ascending event id.
void
group_classes(std::vector<std::pair<int, EventId>>* keyed, FlatTable* classes)
{
    std::sort(keyed->begin(), keyed->end());
    classes->clear();
    for (std::size_t i = 0; i < keyed->size(); ++i) {
        if (i > 0 && (*keyed)[i].first != (*keyed)[i - 1].first) {
            classes->close_entry();
        }
        classes->items.push_back((*keyed)[i].second);
    }
    if (!keyed->empty()) {
        classes->close_entry();
    }
}

/// Backtracking order: translation sources, PTE-read sources, PTE-location
/// coherence (dirty-bit values depend on it), address resolution, data-read
/// sources, data coherence, alias-creation order. All state lives in the
/// scratch; the enumerator itself is a view over it for one call.
class Enumerator {
  public:
    Enumerator(const Program& program, bool vm,
               const std::function<bool(const Execution&)>& visit,
               ExecEnumScratch* scratch, ExecEnumStats* stats)
        : p_(program), vm_(vm), visit_(visit), s_(*scratch), stats_(stats),
          exec_(scratch->exec)
    {
        const int n = program.num_events();
        exec_.program = program;
        exec_.rf_src.assign(n, kNone);
        exec_.co_pos.assign(n, kNone);
        exec_.ptw_src.assign(n, kNone);
        exec_.co_pa_pos.assign(n, kNone);
        collect_choices();
    }

    bool run() { return choose_ptw(0); }

  private:
    void
    collect_choices()
    {
        const int n = p_.num_events();
        s_.data_events.clear();
        s_.walks.clear();
        s_.pte_reads.clear();
        s_.pte_sources.clear();
        s_.data_reads.clear();
        s_.data_writes.clear();
        for (EventId e = 0; e < n; ++e) {
            const Event& ev = p_.event(e);
            if (vm_ && elt::is_data_access(ev.kind)) {
                s_.data_events.push_back(e);
                collect_walks(e);
                s_.walks.close_entry();
            }
            if (elt::is_read_like(ev.kind) && elt::is_pte_access(ev.kind)) {
                s_.pte_reads.push_back(e);
                s_.pte_sources.items.push_back(kNone);
                for (EventId w = 0; w < n; ++w) {
                    const Event& we = p_.event(w);
                    if (w != e && elt::is_pte_access(we.kind) &&
                        elt::is_write_like(we.kind) && we.va == ev.va) {
                        s_.pte_sources.items.push_back(w);
                    }
                }
                s_.pte_sources.close_entry();
            }
            if (ev.kind == EventKind::kRead) {
                s_.data_reads.push_back(e);
            }
            if (ev.kind == EventKind::kWrite) {
                s_.data_writes.push_back(e);
            }
        }
        // Static coherence classes: PTE writes per VA, and (with VM) the
        // Wptes' alias creations per target PA.
        s_.keyed.clear();
        for (EventId w = 0; w < n; ++w) {
            const Event& we = p_.event(w);
            if (elt::is_pte_access(we.kind) && elt::is_write_like(we.kind)) {
                s_.keyed.emplace_back(we.va, w);
            }
        }
        group_classes(&s_.keyed, &s_.pte_co);
        s_.keyed.clear();
        if (vm_) {
            for (EventId w = 0; w < n; ++w) {
                if (p_.event(w).kind == EventKind::kWpte) {
                    s_.keyed.emplace_back(p_.event(w).map_pa, w);
                }
            }
        }
        group_classes(&s_.keyed, &s_.co_pa);
    }

    /// Appends the walks data access \p e may take its translation from:
    /// its own walk (forced), else every same-thread same-VA walk before it
    /// that no intervening invalidation evicts.
    void
    collect_walks(EventId e)
    {
        const int n = p_.num_events();
        const Event& ev = p_.event(e);
        const EventId own = p_.rptw_of(e);
        if (own != kNone) {
            s_.walks.items.push_back(own);  // forced: it walked itself
            return;
        }
        for (EventId w = 0; w < n; ++w) {
            const Event& we = p_.event(w);
            if (we.kind != EventKind::kRptw || we.thread != ev.thread ||
                we.va != ev.va) {
                continue;
            }
            if (!p_.precedes(we.parent, e)) {
                continue;
            }
            bool blocked = false;
            for (EventId i = 0; i < n; ++i) {
                const Event& inv = p_.event(i);
                const bool evicts =
                    (inv.kind == EventKind::kInvlpg && inv.va == we.va) ||
                    inv.kind == EventKind::kInvlpgAll;
                if (evicts && inv.thread == we.thread &&
                    p_.precedes(we.parent, i) && p_.precedes(i, e)) {
                    blocked = true;
                    break;
                }
            }
            if (!blocked) {
                s_.walks.items.push_back(w);
            }
        }
    }

    bool
    choose_ptw(std::size_t index)
    {
        if (index == s_.data_events.size()) {
            return choose_pte_rf(0);
        }
        const EventId e = s_.data_events[index];
        if (s_.walks.begin(index) == s_.walks.end(index)) {
            if (stats_) {
                ++stats_->rejected;
            }
            return true;  // no translation available: dead branch
        }
        for (const EventId* walk = s_.walks.begin(index);
             walk != s_.walks.end(index); ++walk) {
            exec_.ptw_src[e] = *walk;
            if (!choose_ptw(index + 1)) {
                return false;
            }
        }
        exec_.ptw_src[e] = kNone;
        return true;
    }

    bool
    choose_pte_rf(std::size_t index)
    {
        if (index == s_.pte_reads.size()) {
            return choose_pte_co(0);
        }
        const EventId r = s_.pte_reads[index];
        for (const EventId* src = s_.pte_sources.begin(index);
             src != s_.pte_sources.end(index); ++src) {
            exec_.rf_src[r] = *src;
            if (!choose_pte_rf(index + 1)) {
                return false;
            }
        }
        exec_.rf_src[r] = kNone;
        return true;
    }

    /// Visits every coherence order of class \p index of \p classes,
    /// writing positions into \p pos and recursing through \p next; the
    /// slice is permuted in place and left sorted again when the loop ends.
    template <typename Next>
    bool
    permute_class(FlatTable& classes, std::size_t index, std::vector<int>& pos,
                  Next next)
    {
        EventId* const first = classes.begin(index);
        EventId* const last = classes.end(index);
        do {
            for (EventId* w = first; w != last; ++w) {
                pos[*w] = static_cast<int>(w - first);
            }
            if (!next()) {
                return false;
            }
        } while (std::next_permutation(first, last));
        for (const EventId* w = first; w != last; ++w) {
            pos[*w] = kNone;
        }
        return true;
    }

    bool
    choose_pte_co(std::size_t index)
    {
        if (index == s_.pte_co.size()) {
            return resolve_and_choose_data();
        }
        return permute_class(s_.pte_co, index, exec_.co_pos,
                             [&] { return choose_pte_co(index + 1); });
    }

    bool
    resolve_and_choose_data()
    {
        elt::resolve_addresses_into(exec_, {vm_}, &s_.resolution, &s_.resolve);
        if (vm_ && !s_.resolution.ok) {
            if (stats_) {
                ++stats_->rejected;
            }
            return true;
        }
        // Data coherence classes under this resolution (per PA with VM,
        // per VA without): every data-read assignment below shares them.
        const std::vector<elt::PaId>& resolved = s_.resolution.resolved_pa;
        s_.keyed.clear();
        for (const EventId w : s_.data_writes) {
            s_.keyed.emplace_back(vm_ ? resolved[w] : p_.event(w).va, w);
        }
        group_classes(&s_.keyed, &s_.data_co);
        return choose_data_rf(0);
    }

    bool
    choose_data_rf(std::size_t index)
    {
        if (index == s_.data_reads.size()) {
            return choose_data_co(0);
        }
        const EventId r = s_.data_reads[index];
        // Initial state is always an option; writes must share the PA (or
        // the VA in MCM mode).
        exec_.rf_src[r] = kNone;
        if (!choose_data_rf(index + 1)) {
            return false;
        }
        const std::vector<elt::PaId>& resolved = s_.resolution.resolved_pa;
        for (const EventId w : s_.data_writes) {
            const bool same_location =
                vm_ ? resolved[w] == resolved[r]
                    : p_.event(w).va == p_.event(r).va;
            if (!same_location) {
                continue;
            }
            exec_.rf_src[r] = w;
            if (!choose_data_rf(index + 1)) {
                return false;
            }
        }
        exec_.rf_src[r] = kNone;
        return true;
    }

    bool
    choose_data_co(std::size_t index)
    {
        if (index == s_.data_co.size()) {
            return choose_co_pa(0);
        }
        return permute_class(s_.data_co, index, exec_.co_pos,
                             [&] { return choose_data_co(index + 1); });
    }

    bool
    choose_co_pa(std::size_t index)
    {
        if (index == s_.co_pa.size()) {
            return emit();
        }
        const EventId* const first = s_.co_pa.begin(index);
        const EventId* const last = s_.co_pa.end(index);
        return permute_class(s_.co_pa, index, exec_.co_pa_pos, [&] {
            // Consistency with co for same-location Wptes.
            for (const EventId* a = first; a != last; ++a) {
                for (const EventId* b = a + 1; b != last; ++b) {
                    if (p_.event(*a).va == p_.event(*b).va &&
                        exec_.co_pos[*a] > exec_.co_pos[*b]) {
                        return true;  // skip this order
                    }
                }
            }
            return choose_co_pa(index + 1);
        });
    }

    bool
    emit()
    {
        if (stats_) {
            ++stats_->executions;
        }
        return visit_(exec_);
    }

    const Program& p_;
    const bool vm_;
    const std::function<bool(const Execution&)>& visit_;
    ExecEnumScratch& s_;
    ExecEnumStats* stats_;
    Execution& exec_;
};

}  // namespace

bool
for_each_execution(const Program& program, bool vm_enabled,
                   const std::function<bool(const Execution&)>& visit,
                   ExecEnumScratch* scratch, ExecEnumStats* stats)
{
    TF_ASSERT(scratch != nullptr);
    Enumerator enumerator(program, vm_enabled, visit, scratch, stats);
    return enumerator.run();
}

bool
for_each_execution(const Program& program, bool vm_enabled,
                   const std::function<bool(const Execution&)>& visit,
                   ExecEnumStats* stats)
{
    ExecEnumScratch scratch;
    return for_each_execution(program, vm_enabled, visit, &scratch, stats);
}

}  // namespace transform::synth
