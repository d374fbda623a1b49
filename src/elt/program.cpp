#include "elt/program.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "elt/derive.h"
#include "util/logging.h"

namespace transform::elt {

const char*
kind_name(EventKind k)
{
    switch (k) {
    case EventKind::kRead: return "R";
    case EventKind::kWrite: return "W";
    case EventKind::kMfence: return "MFENCE";
    case EventKind::kWpte: return "WPTE";
    case EventKind::kInvlpg: return "INVLPG";
    case EventKind::kInvlpgAll: return "INVLPGALL";
    case EventKind::kRptw: return "Rptw";
    case EventKind::kWdb: return "Wdb";
    case EventKind::kRdb: return "Rdb";
    }
    return "?";
}

namespace {
std::string
indexed_name(const char* alphabet, int count, int index)
{
    if (index < 0) {
        return "?";
    }
    if (index < count) {
        return std::string(1, alphabet[index]);
    }
    std::ostringstream out;
    out << alphabet[index % count] << (index / count);
    return out.str();
}
}  // namespace

std::string
va_name(VaId va)
{
    static const char* kNames = "xyuw";
    return indexed_name(kNames, 4, va);
}

std::string
pte_name(VaId va)
{
    static const char* kNames = "zvqt";
    return indexed_name(kNames, 4, va);
}

std::string
pa_name(PaId pa)
{
    static const char* kNames = "abcdefgh";
    return indexed_name(kNames, 8, pa);
}

std::string
event_to_string(EventId id, const Event& event)
{
    std::ostringstream out;
    out << kind_name(event.kind) << id;
    switch (event.kind) {
    case EventKind::kRead:
    case EventKind::kWrite:
        out << " " << va_name(event.va);
        break;
    case EventKind::kMfence:
        break;
    case EventKind::kWpte:
        out << " " << pte_name(event.va) << " = VA " << va_name(event.va)
            << " -> PA " << pa_name(event.map_pa);
        break;
    case EventKind::kInvlpg:
        out << " " << va_name(event.va);
        if (event.remap_src == kNone) {
            out << " (spurious)";
        }
        break;
    case EventKind::kInvlpgAll:
        break;  // flushes the whole TLB; no operand
    case EventKind::kRptw:
    case EventKind::kWdb:
    case EventKind::kRdb:
        out << " " << pte_name(event.va);
        break;
    }
    return out.str();
}

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

Program::Program(const Program& other)
    : events_(other.events_),
      threads_(other.threads().begin(), other.threads().end()),
      num_threads_(other.num_threads_), positions_(other.positions_),
      rmws_(other.rmws_)
{
}

Program&
Program::operator=(const Program& other)
{
    if (this == &other) {
        return *this;
    }
    events_.assign(other.events_.begin(), other.events_.end());
    positions_.assign(other.positions_.begin(), other.positions_.end());
    rmws_.assign(other.rmws_.begin(), other.rmws_.end());
    reset_threads(other.num_threads_);
    for (int t = 0; t < num_threads_; ++t) {
        threads_[t].assign(other.threads_[t].begin(), other.threads_[t].end());
    }
    return *this;
}

Program::Program(Program&& other) noexcept
    : events_(std::move(other.events_)), threads_(std::move(other.threads_)),
      num_threads_(std::exchange(other.num_threads_, 0)),
      positions_(std::move(other.positions_)), rmws_(std::move(other.rmws_))
{
}

Program&
Program::operator=(Program&& other) noexcept
{
    events_ = std::move(other.events_);
    threads_ = std::move(other.threads_);
    num_threads_ = std::exchange(other.num_threads_, 0);
    positions_ = std::move(other.positions_);
    rmws_ = std::move(other.rmws_);
    return *this;
}

bool
Program::operator==(const Program& other) const
{
    return events_ == other.events_ && positions_ == other.positions_ &&
           rmws_ == other.rmws_ &&
           std::ranges::equal(threads(), other.threads());
}

int
Program::add_thread()
{
    reset_threads(num_threads_ + 1);
    return num_threads_ - 1;
}

void
Program::reset(int num_threads)
{
    TF_ASSERT(num_threads >= 0);
    events_.clear();
    positions_.clear();
    rmws_.clear();
    reset_threads(0);  // clears every live thread
    reset_threads(num_threads);
}

void
Program::reset_threads(int num_threads)
{
    // Dropped threads are cleared, never freed; new ones reuse them.
    for (int t = num_threads; t < num_threads_; ++t) {
        threads_[t].clear();
    }
    if (static_cast<int>(threads_.size()) < num_threads) {
        threads_.resize(static_cast<std::size_t>(num_threads));
    }
    num_threads_ = num_threads;
}

EventId
Program::add_event(Event event)
{
    TF_ASSERT(!is_ghost(event.kind));
    TF_ASSERT(event.thread >= 0 && event.thread < num_threads());
    const EventId id = num_events();
    positions_.push_back(static_cast<int>(threads_[event.thread].size()));
    threads_[event.thread].push_back(id);
    events_.push_back(event);
    return id;
}

EventId
Program::add_ghost(Event event)
{
    TF_ASSERT(is_ghost(event.kind));
    TF_ASSERT(event.parent != kNone && event.parent < num_events());
    const Event& parent = events_[event.parent];
    event.thread = parent.thread;
    if (event.va == kNone) {
        event.va = parent.va;
    }
    const EventId id = num_events();
    positions_.push_back(positions_[event.parent]);
    events_.push_back(event);
    return id;
}

void
Program::add_rmw(EventId read, EventId write)
{
    rmws_.emplace_back(read, write);
}

void
Program::replace_event(EventId id, const Event& event)
{
    TF_ASSERT(id >= 0 && id < num_events());
    TF_ASSERT(events_[id].kind == event.kind);
    TF_ASSERT(events_[id].thread == event.thread);
    events_[id] = event;
}

int
Program::num_vas() const
{
    int max_va = -1;
    for (const Event& e : events_) {
        if (e.va > max_va) {
            max_va = e.va;
        }
    }
    return max_va + 1;
}

int
Program::num_pas() const
{
    int max_pa = num_vas() - 1;  // initial frames: VA i -> PA i
    for (const Event& e : events_) {
        if (e.kind == EventKind::kWpte && e.map_pa > max_pa) {
            max_pa = e.map_pa;
        }
    }
    return max_pa + 1;
}

int
Program::position_of(EventId id) const
{
    return positions_[id];
}

int
Program::subposition_of(EventId id) const
{
    switch (events_[id].kind) {
    case EventKind::kRdb: return 0;
    case EventKind::kWdb: return 1;
    case EventKind::kRptw: return 2;
    default: return 3;
    }
}

bool
Program::precedes(EventId before, EventId after) const
{
    if (events_[before].thread != events_[after].thread) {
        return false;
    }
    // Events sharing a program position (an instruction and its ghosts)
    // are mutually unordered: a store's page-table walk and dirty-bit
    // update run concurrently with it. Only the instruction-level program
    // order induces extended ordering.
    return positions_[before] < positions_[after];
}

namespace {
EventId
find_ghost(const Program& p, EventId user, EventKind kind)
{
    for (EventId id = 0; id < p.num_events(); ++id) {
        const Event& e = p.event(id);
        if (e.kind == kind && e.parent == user) {
            return id;
        }
    }
    return kNone;
}
}  // namespace

EventId
Program::rptw_of(EventId user) const
{
    return find_ghost(*this, user, EventKind::kRptw);
}

EventId
Program::wdb_of(EventId user) const
{
    return find_ghost(*this, user, EventKind::kWdb);
}

EventId
Program::rdb_of(EventId user) const
{
    return find_ghost(*this, user, EventKind::kRdb);
}

std::vector<EventId>
Program::remap_targets(EventId wpte) const
{
    std::vector<EventId> out;
    for (EventId id = 0; id < num_events(); ++id) {
        if (events_[id].kind == EventKind::kInvlpg &&
            events_[id].remap_src == wpte) {
            out.push_back(id);
        }
    }
    return out;
}

std::vector<std::string>
Program::validate(bool vm_enabled) const
{
    std::vector<std::string> problems;
    auto complain = [&problems](const std::string& text) {
        problems.push_back(text);
    };
    // The axiom verdicts give each event one bit of a 64-bit row.
    if (num_events() > kMaxBitEvents) {
        complain("program has " + std::to_string(num_events()) +
                 " events; at most " + std::to_string(kMaxBitEvents) +
                 " are supported");
    }

    if (!vm_enabled) {
        // MCM baseline: plain user instructions only.
        for (EventId id = 0; id < num_events(); ++id) {
            const Event& e = events_[id];
            if (is_ghost(e.kind) || is_support(e.kind)) {
                complain("event " + std::to_string(id) +
                         ": VM event in MCM (non-VM) mode");
            }
            if (e.thread < 0 || e.thread >= num_threads()) {
                complain("event " + std::to_string(id) + ": bad thread");
            }
        }
        for (const auto& [r, w] : rmws_) {
            if (r >= num_events() || w >= num_events() ||
                events_[r].kind != EventKind::kRead ||
                events_[w].kind != EventKind::kWrite ||
                events_[r].thread != events_[w].thread ||
                events_[r].va != events_[w].va ||
                positions_[w] != positions_[r] + 1) {
                complain("rmw: malformed pair");
            }
        }
        return problems;
    }

    for (EventId id = 0; id < num_events(); ++id) {
        const Event& e = events_[id];
        if (e.thread < 0 || e.thread >= num_threads()) {
            complain("event " + std::to_string(id) + ": bad thread");
            continue;
        }
        if (is_ghost(e.kind)) {
            if (e.parent == kNone || e.parent >= num_events()) {
                complain("ghost " + std::to_string(id) + ": missing parent");
                continue;
            }
            const Event& parent = events_[e.parent];
            if (is_ghost(parent.kind)) {
                complain("ghost " + std::to_string(id) + ": ghost parent");
            }
            if (parent.thread != e.thread) {
                complain("ghost " + std::to_string(id) + ": cross-thread parent");
            }
            if (e.kind == EventKind::kRptw && !is_data_access(parent.kind)) {
                complain("Rptw " + std::to_string(id) +
                         ": parent must be a data access");
            }
            if ((e.kind == EventKind::kWdb || e.kind == EventKind::kRdb) &&
                parent.kind != EventKind::kWrite) {
                complain("dirty-bit ghost " + std::to_string(id) +
                         ": parent must be a user Write");
            }
            if (e.va != parent.va) {
                complain("ghost " + std::to_string(id) + ": va differs from parent");
            }
        }
        if (e.kind == EventKind::kWpte && e.map_pa == kNone) {
            complain("Wpte " + std::to_string(id) + ": missing target PA");
        }
        if (e.kind == EventKind::kInvlpg && e.remap_src != kNone) {
            if (e.remap_src >= num_events() ||
                events_[e.remap_src].kind != EventKind::kWpte) {
                complain("Invlpg " + std::to_string(id) + ": bad remap source");
            } else {
                if (events_[e.remap_src].va != e.va) {
                    complain("Invlpg " + std::to_string(id) +
                             ": va differs from its Wpte");
                }
                // A same-core remap Invlpg must follow its Wpte in po.
                if (events_[e.remap_src].thread == e.thread &&
                    !precedes(e.remap_src, id)) {
                    complain("Invlpg " + std::to_string(id) +
                             ": precedes its own Wpte");
                }
            }
        }
        if (is_memory(e.kind) && e.va == kNone) {
            complain("event " + std::to_string(id) + ": memory event without VA");
        }
        if (e.kind == EventKind::kInvlpgAll &&
            (e.remap_src != kNone || e.va != kNone)) {
            complain("INVLPGALL " + std::to_string(id) +
                     ": full flushes take no operand and no remap source");
        }
    }

    // One ghost of each kind per parent; every user Write has a Wdb.
    for (EventId user = 0; user < num_events(); ++user) {
        const Event& e = events_[user];
        if (is_ghost(e.kind)) {
            continue;
        }
        int rptw_count = 0;
        int wdb_count = 0;
        int rdb_count = 0;
        for (EventId g = 0; g < num_events(); ++g) {
            if (!is_ghost(events_[g].kind) || events_[g].parent != user) {
                continue;
            }
            switch (events_[g].kind) {
            case EventKind::kRptw: ++rptw_count; break;
            case EventKind::kWdb: ++wdb_count; break;
            case EventKind::kRdb: ++rdb_count; break;
            default: break;
            }
        }
        if (rptw_count > 1 || wdb_count > 1 || rdb_count > 1) {
            complain("event " + std::to_string(user) + ": duplicate ghosts");
        }
        if (e.kind == EventKind::kWrite && wdb_count != 1) {
            complain("Write " + std::to_string(user) + ": needs exactly one Wdb");
        }
        if (e.kind != EventKind::kWrite && (wdb_count > 0 || rdb_count > 0)) {
            complain("event " + std::to_string(user) +
                     ": dirty-bit ghost on a non-Write");
        }
    }

    // Each Wpte must invoke exactly one Invlpg on every core.
    for (EventId id = 0; id < num_events(); ++id) {
        if (events_[id].kind != EventKind::kWpte) {
            continue;
        }
        for (int t = 0; t < num_threads(); ++t) {
            int invlpgs = 0;
            for (EventId inv = 0; inv < num_events(); ++inv) {
                if (events_[inv].kind == EventKind::kInvlpg &&
                    events_[inv].remap_src == id && events_[inv].thread == t) {
                    ++invlpgs;
                }
            }
            if (invlpgs != 1) {
                complain("Wpte " + std::to_string(id) + ": needs exactly one "
                         "Invlpg on core " + std::to_string(t));
            }
        }
    }

    // rmw pairs: same-thread, same-VA, Read immediately before Write.
    for (const auto& [r, w] : rmws_) {
        if (r >= num_events() || w >= num_events() ||
            events_[r].kind != EventKind::kRead ||
            events_[w].kind != EventKind::kWrite) {
            complain("rmw: endpoints must be a Read and a Write");
            continue;
        }
        if (events_[r].thread != events_[w].thread ||
            events_[r].va != events_[w].va) {
            complain("rmw: endpoints must share a thread and a VA");
        }
        if (positions_[w] != positions_[r] + 1) {
            complain("rmw: Write must immediately follow the Read in po");
        }
    }

    return problems;
}

// ---------------------------------------------------------------------------
// ProgramBuilder
// ---------------------------------------------------------------------------

ProgramBuilder&
ProgramBuilder::thread()
{
    current_thread_ = program_.add_thread();
    return *this;
}

EventId
ProgramBuilder::add_on_thread(Event event, int t)
{
    TF_ASSERT(t >= 0);
    event.thread = t;
    return program_.add_event(event);
}

EventId
ProgramBuilder::R(VaId va)
{
    return add_on_thread({EventKind::kRead, 0, va, kNone, kNone, kNone},
                         current_thread_);
}

EventId
ProgramBuilder::W(VaId va)
{
    return add_on_thread({EventKind::kWrite, 0, va, kNone, kNone, kNone},
                         current_thread_);
}

EventId
ProgramBuilder::mfence()
{
    return add_on_thread({EventKind::kMfence, 0, kNone, kNone, kNone, kNone},
                         current_thread_);
}

EventId
ProgramBuilder::wpte(VaId va, PaId new_pa)
{
    return add_on_thread({EventKind::kWpte, 0, va, new_pa, kNone, kNone},
                         current_thread_);
}

EventId
ProgramBuilder::invlpg(VaId va)
{
    return add_on_thread({EventKind::kInvlpg, 0, va, kNone, kNone, kNone},
                         current_thread_);
}

EventId
ProgramBuilder::invlpg_all()
{
    return add_on_thread({EventKind::kInvlpgAll, 0, kNone, kNone, kNone, kNone},
                         current_thread_);
}

EventId
ProgramBuilder::invlpg_for(EventId wpte_id)
{
    return invlpg_for(wpte_id, current_thread_);
}

EventId
ProgramBuilder::invlpg_for(EventId wpte_id, int core)
{
    const Event& src = program_.event(wpte_id);
    TF_ASSERT(src.kind == EventKind::kWpte);
    return add_on_thread(
        {EventKind::kInvlpg, 0, src.va, kNone, kNone, wpte_id}, core);
}

EventId
ProgramBuilder::rptw(EventId user)
{
    return program_.add_ghost(
        {EventKind::kRptw, 0, kNone, kNone, user, kNone});
}

EventId
ProgramBuilder::wdb(EventId user)
{
    return program_.add_ghost({EventKind::kWdb, 0, kNone, kNone, user, kNone});
}

EventId
ProgramBuilder::rdb(EventId user)
{
    return program_.add_ghost({EventKind::kRdb, 0, kNone, kNone, user, kNone});
}

void
ProgramBuilder::rmw(EventId read, EventId write)
{
    program_.add_rmw(read, write);
}

}  // namespace transform::elt
