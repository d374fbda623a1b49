/// \file
/// The sequential replay of a workload's search, in one thread, through
/// the layers' public entry points in the order the engine's find_witness
/// uses them. With a SpanTracer every call becomes a span timed from the
/// outside: layer, start, end, parent, and the always-on allocation
/// counter's delta. Without one the same code runs untraced, which is what
/// the tracing overhead is measured against.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mtm/model.h"
#include "sat/solver.h"
#include "synth/engine.h"
#include "workloads.h"

namespace perfbench {

/// One public entry point the replay calls.
enum class Op : int {
    kSkeleton = 0,    ///< synth::for_each_skeleton, one call per size
    kCanonical,       ///< synth::canonical_key
    kIndex,           ///< sched::ShardedKeyIndex::record
    kContainsWrite,   ///< synth::contains_write
    kExecEnum,        ///< synth::for_each_execution
    kDerive,          ///< elt::derive_into
    kVerdict,         ///< mtm::Model::violated_mask
    kJudge,           ///< synth::judge
    kIncremental,     ///< mtm::IncrementalEncoding::enumerate
    kEncoding,        ///< mtm::ProgramEncoding construction + enumerate
};

inline constexpr int kOpCount = static_cast<int>(Op::kEncoding) + 1;

/// Function name and layer (module) of an op.
const char* op_name(Op op);
const char* op_layer(Op op);

/// Per-op aggregate of closed spans.
struct OpTotals {
    std::uint64_t calls = 0;
    std::uint64_t nanos = 0;        ///< span durations
    std::uint64_t self_nanos = 0;   ///< minus the child spans
    std::uint64_t self_allocs = 0;  ///< allocation delta minus the children
};

/// Records spans on one thread. Aggregates every span as it closes, and
/// keeps full records for a bounded sample: the complete span tree of
/// every sample_every-th candidate program, up to a fixed cap.
class SpanTracer {
  public:
    explicit SpanTracer(std::uint64_t sample_every);

    void open(Op op);
    void close();

    /// Names the candidate program whose spans open next (0 = none); a
    /// sampled candidate's spans are kept in full.
    void set_candidate(std::uint64_t candidate);

    const std::array<OpTotals, kOpCount>& totals() const { return totals_; }

    /// Writes the sampled spans as a Chrome trace (Perfetto-loadable).
    /// Returns false when the file cannot be written.
    bool write_sample(const std::string& path) const;

  private:
    struct Frame {
        Op op;
        std::uint64_t start;
        std::uint64_t allocs;
        std::uint64_t child_nanos = 0;
        std::uint64_t child_allocs = 0;
        std::int64_t record = -1;  ///< index into records_, -1 = unsampled
    };
    struct Record {
        Op op;
        std::uint64_t start;
        std::uint64_t end = 0;
        std::int64_t parent;
        std::uint64_t candidate;
    };

    std::uint64_t sample_every_;
    std::uint64_t candidate_ = 0;
    std::vector<Frame> stack_;
    std::array<OpTotals, kOpCount> totals_{};
    std::vector<Record> records_;
};

/// Opens a span for its lifetime; a null tracer records nothing.
class Span {
  public:
    Span(SpanTracer* tracer, Op op) : tracer_(tracer)
    {
        if (tracer_ != nullptr) {
            tracer_->open(op);
        }
    }
    ~Span()
    {
        if (tracer_ != nullptr) {
            tracer_->close();
        }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    SpanTracer* tracer_;
};

/// What the replay did and found. Every count is a pure function of the
/// workload.
struct ReplayResult {
    /// Axiom, tests and candidate counters of each suite; the engine-only
    /// fields (scheduler, phases, solver) stay empty.
    std::vector<transform::synth::SuiteResult> suites;
    double wall_seconds = 0;      ///< whole replay, set-up included
    std::uint64_t programs = 0;   ///< skeleton visitor calls
    std::uint64_t index_hits = 0; ///< candidates rejected as duplicates
    std::uint64_t keys = 0;       ///< distinct keys, summed over suites
    std::uint64_t executions = 0; ///< executions handed to the visitor
    std::uint64_t verdicts = 0;   ///< violated_mask calls
    std::uint64_t violating = 0;  ///< verdicts violating the target axiom
    std::uint64_t minimal = 0;    ///< judge verdicts that were minimal
    std::uint64_t probes_accepted = 0;  ///< incremental probes that accepted
    std::uint64_t bases_built = 0;      ///< incremental structure bases
    transform::sat::SolverStats solver;  ///< incremental + replay solvers
};

/// Replays \p workload's search over \p model. \p tracer may be null.
ReplayResult replay(const Workload& workload,
                    const transform::mtm::Model& model,
                    const transform::synth::SynthesisOptions& options,
                    SpanTracer* tracer);

}  // namespace perfbench
