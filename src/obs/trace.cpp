#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "obs/metrics.h"

namespace transform::obs {

namespace {

/// JSON string escaping for span names (keys are literals and never need
/// it).
void
append_escaped(std::string* out, const std::string& text)
{
    for (const char c : text) {
        switch (c) {
        case '"':
            *out += "\\\"";
            break;
        case '\\':
            *out += "\\\\";
            break;
        case '\n':
            *out += "\\n";
            break;
        case '\t':
            *out += "\\t";
            break;
        case '\r':
            *out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x",
                              static_cast<unsigned>(c));
                *out += buffer;
            } else {
                out->push_back(c);
            }
        }
    }
}

/// Chrome trace timestamps are microseconds; keep nanosecond precision
/// with three decimals.
void
append_us(std::string* out, std::uint64_t ns)
{
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%" PRIu64 ".%03u", ns / 1000,
                  static_cast<unsigned>(ns % 1000));
    *out += buffer;
}

}  // namespace

TraceCollector::TraceCollector(int worker_lanes,
                               std::size_t capacity_per_lane)
    : lanes_(static_cast<std::size_t>(worker_lanes > 0 ? worker_lanes : 1) +
             1),
      capacity_(capacity_per_lane > 0 ? capacity_per_lane : 1),
      epoch_ns_(now_nanos())
{
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
        lanes_[lane].ring.reserve(capacity_);
        lanes_[lane].name = lane + 1 == lanes_.size()
                                ? "main"
                                : "worker " + std::to_string(lane);
    }
}

void
TraceCollector::set_lane_name(int lane, std::string name)
{
    if (lane >= 0 && lane < lanes()) {
        lanes_[static_cast<std::size_t>(lane)].name = std::move(name);
    }
}

void
TraceCollector::push(int lane, Event event)
{
    if (lane < 0 || lane >= lanes()) {
        invalid_lane_drops_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Lane& l = lanes_[static_cast<std::size_t>(lane)];
    if (l.ring.size() < capacity_) {
        l.ring.push_back(std::move(event));
    } else {
        l.ring[l.next] = std::move(event);
    }
    l.next = (l.next + 1) % capacity_;
    ++l.written;
}

void
TraceCollector::record_complete(int lane, std::string name,
                                std::uint64_t start_ns, std::uint64_t end_ns,
                                std::initializer_list<Arg> args)
{
    Event event;
    event.kind = Event::Kind::kComplete;
    event.name = std::move(name);
    event.ts_ns = start_ns;
    event.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
    for (const Arg& arg : args) {
        if (event.num_args < 3) {
            event.args[event.num_args++] = arg;
        }
    }
    push(lane, std::move(event));
}

void
TraceCollector::record_instant(int lane, std::string name,
                               std::uint64_t ts_ns)
{
    Event event;
    event.kind = Event::Kind::kInstant;
    event.name = std::move(name);
    event.ts_ns = ts_ns;
    push(lane, std::move(event));
}

void
TraceCollector::record_counter(int lane, std::string name,
                               std::uint64_t ts_ns,
                               std::initializer_list<Arg> args)
{
    Event event;
    event.kind = Event::Kind::kCounter;
    event.name = std::move(name);
    event.ts_ns = ts_ns;
    for (const Arg& arg : args) {
        if (event.num_args < 3) {
            event.args[event.num_args++] = arg;
        }
    }
    push(lane, std::move(event));
}

std::size_t
TraceCollector::events_resident() const
{
    std::size_t total = 0;
    for (const Lane& lane : lanes_) {
        total += lane.ring.size();
    }
    return total;
}

std::uint64_t
TraceCollector::dropped() const
{
    std::uint64_t total =
        invalid_lane_drops_.load(std::memory_order_relaxed);
    for (const Lane& lane : lanes_) {
        total += lane.written - lane.ring.size();
    }
    return total;
}

std::string
TraceCollector::chrome_json() const
{
    std::string out;
    out.reserve(events_resident() * 120 + 1024);
    out += "{\n\"displayTimeUnit\": \"ms\",\n";
    out += "\"otherData\": {\"exporter\": \"transform-obs\", "
           "\"dropped_events\": " +
           std::to_string(dropped()) + "},\n";
    out += "\"traceEvents\": [\n";
    bool first = true;
    auto sep = [&] {
        if (!first) {
            out += ",\n";
        }
        first = false;
    };
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
        sep();
        out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" +
               std::to_string(lane) + ",\"args\":{\"name\":\"";
        append_escaped(&out, lanes_[lane].name);
        out += "\"}}";
    }
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
        for (const Event& event : lanes_[lane].ring) {
            const std::uint64_t ts =
                event.ts_ns >= epoch_ns_ ? event.ts_ns - epoch_ns_ : 0;
            sep();
            switch (event.kind) {
            case Event::Kind::kComplete:
                out += "{\"ph\":\"X\",\"cat\":\"synth\",\"name\":\"";
                append_escaped(&out, event.name);
                out += "\",\"pid\":1,\"tid\":" + std::to_string(lane) +
                       ",\"ts\":";
                append_us(&out, ts);
                out += ",\"dur\":";
                append_us(&out, event.dur_ns);
                if (event.num_args > 0) {
                    out += ",\"args\":{";
                    for (int a = 0; a < event.num_args; ++a) {
                        if (a > 0) {
                            out += ",";
                        }
                        out += "\"";
                        out += event.args[a].key;
                        out += "\":" + std::to_string(event.args[a].value);
                    }
                    out += "}";
                }
                out += "}";
                break;
            case Event::Kind::kInstant:
                out += "{\"ph\":\"i\",\"cat\":\"synth\",\"s\":\"t\","
                       "\"name\":\"";
                append_escaped(&out, event.name);
                out += "\",\"pid\":1,\"tid\":" + std::to_string(lane) +
                       ",\"ts\":";
                append_us(&out, ts);
                out += "}";
                break;
            case Event::Kind::kCounter:
                out += "{\"ph\":\"C\",\"cat\":\"synth\",\"name\":\"";
                append_escaped(&out, event.name);
                out += "\",\"pid\":1,\"tid\":" + std::to_string(lane) +
                       ",\"ts\":";
                append_us(&out, ts);
                out += ",\"args\":{";
                for (int a = 0; a < event.num_args; ++a) {
                    if (a > 0) {
                        out += ",";
                    }
                    out += "\"";
                    out += event.args[a].key;
                    out += "\":" + std::to_string(event.args[a].value);
                }
                out += "}}";
                break;
            }
        }
    }
    out += "\n]\n}\n";
    return out;
}

bool
TraceCollector::write(const std::string& path, std::string* error) const
{
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        if (error != nullptr) {
            *error = "cannot open " + path + " for writing";
        }
        return false;
    }
    const std::string json = chrome_json();
    const std::size_t written =
        std::fwrite(json.data(), 1, json.size(), file);
    const bool ok = written == json.size() && std::fclose(file) == 0;
    if (!ok && error != nullptr) {
        *error = "short write to " + path;
    }
    return ok;
}

ScopedSpan::ScopedSpan(TraceCollector* trace, int lane, std::string name)
    : trace_(trace), lane_(lane), name_(std::move(name)),
      start_(trace != nullptr ? now_nanos() : 0)
{
}

ScopedSpan::~ScopedSpan()
{
    if (trace_ != nullptr) {
        trace_->record_complete(lane_, std::move(name_), start_,
                                now_nanos());
    }
}

}  // namespace transform::obs
