#include "elt/printer.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/strings.h"

namespace transform::elt {

namespace {

/// Orders the events of one thread for display: by position, ghosts after
/// their parent (the paper lists the user instruction first, then its
/// ghosts).
std::vector<EventId>
display_order(const Program& p, int thread)
{
    std::vector<EventId> out;
    for (const EventId id : p.thread(thread)) {
        out.push_back(id);
        std::vector<EventId> ghosts;
        for (EventId g = 0; g < p.num_events(); ++g) {
            if (is_ghost(p.event(g).kind) && p.event(g).parent == id) {
                ghosts.push_back(g);
            }
        }
        std::sort(ghosts.begin(), ghosts.end(), [&](EventId a, EventId b) {
            return p.subposition_of(a) < p.subposition_of(b);
        });
        out.insert(out.end(), ghosts.begin(), ghosts.end());
    }
    return out;
}

void
append_edges(std::ostringstream& out, const std::string& name,
             const BitRows& rows, int num_events)
{
    const EdgeSet edges = edges_of(rows, num_events);
    if (edges.empty()) {
        return;
    }
    out << "  " << name << ":";
    for (const auto& [from, to] : edges) {
        out << " (" << from << "," << to << ")";
    }
    out << "\n";
}

}  // namespace

std::string
program_to_string(const Program& p)
{
    const int threads = p.num_threads();
    std::vector<std::vector<std::string>> columns(threads);
    std::size_t width = 8;
    for (int t = 0; t < threads; ++t) {
        for (const EventId id : display_order(p, t)) {
            std::string line = event_to_string(id, p.event(id));
            if (is_ghost(p.event(id).kind)) {
                line = "  " + line;
            }
            width = std::max(width, line.size());
            columns[t].push_back(line);
        }
    }
    std::size_t rows = 0;
    for (const auto& column : columns) {
        rows = std::max(rows, column.size());
    }
    std::ostringstream out;
    for (int t = 0; t < threads; ++t) {
        out << util::pad_right("C" + std::to_string(t), width + 3);
    }
    out << "\n";
    for (std::size_t r = 0; r < rows; ++r) {
        for (int t = 0; t < threads; ++t) {
            const std::string cell =
                r < columns[t].size() ? columns[t][r] : std::string();
            out << util::pad_right(cell, width + 3);
        }
        out << "\n";
    }
    if (!p.rmw_pairs().empty()) {
        out << "rmw:";
        for (const auto& [r, w] : p.rmw_pairs()) {
            out << " (" << r << "," << w << ")";
        }
        out << "\n";
    }
    return out.str();
}

std::string
execution_to_string(const Execution& execution, const DerivedRelations& d)
{
    std::ostringstream out;
    out << program_to_string(execution.program);
    if (!d.well_formed) {
        out << "ILL-FORMED:\n";
        for (const std::string& problem : d.problems) {
            out << "  " << problem << "\n";
        }
        return out.str();
    }
    out << "relations:\n";
    append_edges(out, "rf", d.rf, d.num_events);
    append_edges(out, "co", d.co, d.num_events);
    append_edges(out, "fr", d.fr, d.num_events);
    append_edges(out, "rmw", d.rmw, d.num_events);
    append_edges(out, "fence", d.fence, d.num_events);
    append_edges(out, "ghost", d.ghost, d.num_events);
    append_edges(out, "rf_ptw", d.rf_ptw, d.num_events);
    append_edges(out, "rf_pa", d.rf_pa, d.num_events);
    append_edges(out, "co_pa", d.co_pa, d.num_events);
    append_edges(out, "fr_pa", d.fr_pa, d.num_events);
    append_edges(out, "fr_va", d.fr_va, d.num_events);
    append_edges(out, "remap", d.remap, d.num_events);
    append_edges(out, "ptw_source", d.ptw_source, d.num_events);
    return out.str();
}

std::string
execution_to_dot(const Execution& execution, const DerivedRelations& d,
                 const std::string& graph_name)
{
    const Program& p = execution.program;
    std::ostringstream out;
    out << "digraph " << graph_name << " {\n  rankdir=TB;\n";
    for (int t = 0; t < p.num_threads(); ++t) {
        out << "  subgraph cluster_" << t << " {\n    label=\"C" << t
            << "\";\n";
        for (const EventId id : p.thread(t)) {
            out << "    e" << id << " [label=\""
                << util::xml_escape(event_to_string(id, p.event(id)))
                << "\"];\n";
        }
        for (EventId g = 0; g < p.num_events(); ++g) {
            if (is_ghost(p.event(g).kind) && p.event(g).thread == t) {
                out << "    e" << g << " [style=dashed, label=\""
                    << util::xml_escape(event_to_string(g, p.event(g)))
                    << "\"];\n";
            }
        }
        out << "  }\n";
    }
    const std::vector<std::pair<const BitRows*, const char*>> relations = {
        {&d.rf, "rf"},         {&d.co, "co"},         {&d.fr, "fr"},
        {&d.ghost, "ghost"},   {&d.rf_ptw, "rf_ptw"}, {&d.rf_pa, "rf_pa"},
        {&d.co_pa, "co_pa"},   {&d.fr_pa, "fr_pa"},   {&d.fr_va, "fr_va"},
        {&d.remap, "remap"},   {&d.rmw, "rmw"},
    };
    for (const auto& [rows, name] : relations) {
        for (const auto& [from, to] : edges_of(*rows, d.num_events)) {
            out << "  e" << from << " -> e" << to << " [label=\"" << name
                << "\"];\n";
        }
    }
    out << "}\n";
    return out.str();
}

}  // namespace transform::elt
