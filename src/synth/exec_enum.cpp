#include "synth/exec_enum.h"

#include <algorithm>
#include <map>
#include <vector>

#include "elt/derive.h"
#include "util/logging.h"

namespace transform::synth {

using elt::Event;
using elt::EventId;
using elt::EventKind;
using elt::Execution;
using elt::kNone;
using elt::Program;

namespace {

/// Backtracking order: translation sources, PTE-read sources, PTE-location
/// coherence (dirty-bit values depend on it), address resolution, data-read
/// sources, data coherence, alias-creation order.
class Enumerator {
  public:
    Enumerator(const Program& program, bool vm,
               const std::function<bool(const Execution&)>& visit,
               ExecEnumStats* stats)
        : p_(program), vm_(vm), visit_(visit), stats_(stats),
          exec_(Execution::empty_for(program))
    {
        collect_choices();
    }

    bool run() { return choose_ptw(0); }

  private:
    void
    collect_choices()
    {
        const int n = p_.num_events();
        for (EventId e = 0; e < n; ++e) {
            const Event& ev = p_.event(e);
            if (vm_ && elt::is_data_access(ev.kind)) {
                data_events_.push_back(e);
                std::vector<EventId> walks;
                const EventId own = p_.rptw_of(e);
                if (own != kNone) {
                    walks.push_back(own);  // forced: it walked itself
                } else {
                    for (EventId w = 0; w < n; ++w) {
                        const Event& we = p_.event(w);
                        if (we.kind != EventKind::kRptw ||
                            we.thread != ev.thread || we.va != ev.va) {
                            continue;
                        }
                        if (!p_.precedes(we.parent, e)) {
                            continue;
                        }
                        bool blocked = false;
                        for (EventId i = 0; i < n; ++i) {
                            const Event& inv = p_.event(i);
                            const bool evicts =
                                (inv.kind == EventKind::kInvlpg &&
                                 inv.va == we.va) ||
                                inv.kind == EventKind::kInvlpgAll;
                            if (evicts && inv.thread == we.thread &&
                                p_.precedes(we.parent, i) && p_.precedes(i, e)) {
                                blocked = true;
                                break;
                            }
                        }
                        if (!blocked) {
                            walks.push_back(w);
                        }
                    }
                }
                ptw_options_.push_back(std::move(walks));
            }
            if (elt::is_read_like(ev.kind) && elt::is_pte_access(ev.kind)) {
                pte_reads_.push_back(e);
                std::vector<EventId> sources{kNone};
                for (EventId w = 0; w < n; ++w) {
                    const Event& we = p_.event(w);
                    if (w != e && elt::is_pte_access(we.kind) &&
                        elt::is_write_like(we.kind) && we.va == ev.va) {
                        sources.push_back(w);
                    }
                }
                pte_read_options_.push_back(std::move(sources));
            }
            if (ev.kind == EventKind::kRead) {
                data_reads_.push_back(e);
            }
        }
        // Static PTE-location coherence classes.
        std::map<int, std::vector<EventId>> pte_classes;
        for (EventId w = 0; w < n; ++w) {
            const Event& we = p_.event(w);
            if (elt::is_pte_access(we.kind) && elt::is_write_like(we.kind)) {
                pte_classes[we.va].push_back(w);
            }
        }
        for (auto& [va, members] : pte_classes) {
            pte_co_classes_.push_back(members);
        }
    }

    bool
    choose_ptw(std::size_t index)
    {
        if (index == data_events_.size()) {
            return choose_pte_rf(0);
        }
        const EventId e = data_events_[index];
        if (ptw_options_[index].empty()) {
            if (stats_) {
                ++stats_->rejected;
            }
            return true;  // no translation available: dead branch
        }
        for (const EventId walk : ptw_options_[index]) {
            exec_.ptw_src[e] = walk;
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
        if (index == pte_reads_.size()) {
            return choose_pte_co(0);
        }
        const EventId r = pte_reads_[index];
        for (const EventId src : pte_read_options_[index]) {
            exec_.rf_src[r] = src;
            if (!choose_pte_rf(index + 1)) {
                return false;
            }
        }
        exec_.rf_src[r] = kNone;
        return true;
    }

    bool
    choose_pte_co(std::size_t index)
    {
        if (index == pte_co_classes_.size()) {
            return resolve_and_choose_data();
        }
        std::vector<EventId> order = pte_co_classes_[index];
        std::sort(order.begin(), order.end());
        do {
            for (int i = 0; i < static_cast<int>(order.size()); ++i) {
                exec_.co_pos[order[i]] = i;
            }
            if (!choose_pte_co(index + 1)) {
                return false;
            }
        } while (std::next_permutation(order.begin(), order.end()));
        for (const EventId w : order) {
            exec_.co_pos[w] = kNone;
        }
        return true;
    }

    bool
    resolve_and_choose_data()
    {
        elt::resolve_addresses_into(exec_, {vm_}, &resolution_,
                                    &resolve_scratch_);
        if (vm_ && !resolution_.ok) {
            if (stats_) {
                ++stats_->rejected;
            }
            return true;
        }
        resolved_ = resolution_.resolved_pa;
        return choose_data_rf(0);
    }

    bool
    choose_data_rf(std::size_t index)
    {
        if (index == data_reads_.size()) {
            return choose_data_co();
        }
        const EventId r = data_reads_[index];
        // Initial state is always an option; writes must share the PA (or
        // the VA in MCM mode).
        exec_.rf_src[r] = kNone;
        if (!choose_data_rf(index + 1)) {
            return false;
        }
        for (EventId w = 0; w < p_.num_events(); ++w) {
            const Event& we = p_.event(w);
            if (w == r || we.kind != EventKind::kWrite) {
                continue;
            }
            const bool same_location = vm_ ? resolved_[w] == resolved_[r]
                                           : we.va == p_.event(r).va;
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
    choose_data_co()
    {
        // Group data writes into coherence classes under the current
        // resolution (per PA with VM, per VA without).
        std::map<int, std::vector<EventId>> classes;
        for (EventId w = 0; w < p_.num_events(); ++w) {
            const Event& we = p_.event(w);
            if (we.kind != EventKind::kWrite) {
                continue;
            }
            classes[vm_ ? resolved_[w] : we.va].push_back(w);
        }
        std::vector<std::vector<EventId>> class_list;
        for (auto& [key, members] : classes) {
            class_list.push_back(members);
        }
        return permute_data_class(class_list, 0);
    }

    bool
    permute_data_class(std::vector<std::vector<EventId>>& class_list,
                       std::size_t index)
    {
        if (index == class_list.size()) {
            return choose_co_pa();
        }
        std::vector<EventId> order = class_list[index];
        std::sort(order.begin(), order.end());
        do {
            for (int i = 0; i < static_cast<int>(order.size()); ++i) {
                exec_.co_pos[order[i]] = i;
            }
            if (!permute_data_class(class_list, index + 1)) {
                return false;
            }
        } while (std::next_permutation(order.begin(), order.end()));
        for (const EventId w : order) {
            exec_.co_pos[w] = kNone;
        }
        return true;
    }

    bool
    choose_co_pa()
    {
        if (!vm_) {
            return emit();
        }
        std::map<int, std::vector<EventId>> classes;
        for (EventId w = 0; w < p_.num_events(); ++w) {
            if (p_.event(w).kind == EventKind::kWpte) {
                classes[p_.event(w).map_pa].push_back(w);
            }
        }
        std::vector<std::vector<EventId>> class_list;
        for (auto& [pa, members] : classes) {
            class_list.push_back(members);
        }
        return permute_co_pa(class_list, 0);
    }

    bool
    permute_co_pa(std::vector<std::vector<EventId>>& class_list,
                  std::size_t index)
    {
        if (index == class_list.size()) {
            return emit();
        }
        std::vector<EventId> order = class_list[index];
        std::sort(order.begin(), order.end());
        do {
            // Consistency with co for same-location Wptes.
            bool consistent = true;
            for (std::size_t i = 0; i < order.size() && consistent; ++i) {
                for (std::size_t j = i + 1; j < order.size(); ++j) {
                    if (p_.event(order[i]).va == p_.event(order[j]).va &&
                        exec_.co_pos[order[i]] > exec_.co_pos[order[j]]) {
                        consistent = false;
                        break;
                    }
                }
            }
            if (consistent) {
                for (int i = 0; i < static_cast<int>(order.size()); ++i) {
                    exec_.co_pa_pos[order[i]] = i;
                }
                if (!permute_co_pa(class_list, index + 1)) {
                    return false;
                }
            }
        } while (std::next_permutation(order.begin(), order.end()));
        for (const EventId w : order) {
            exec_.co_pa_pos[w] = kNone;
        }
        return true;
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
    ExecEnumStats* stats_;
    Execution exec_;

    std::vector<EventId> data_events_;
    std::vector<std::vector<EventId>> ptw_options_;
    std::vector<EventId> pte_reads_;
    std::vector<std::vector<EventId>> pte_read_options_;
    std::vector<EventId> data_reads_;
    std::vector<std::vector<EventId>> pte_co_classes_;
    std::vector<elt::PaId> resolved_;
    elt::ResolutionResult resolution_;
    elt::DeriveScratch resolve_scratch_;
};

}  // namespace

bool
for_each_execution(const Program& program, bool vm_enabled,
                   const std::function<bool(const Execution&)>& visit,
                   ExecEnumStats* stats)
{
    Enumerator enumerator(program, vm_enabled, visit, stats);
    return enumerator.run();
}

}  // namespace transform::synth
