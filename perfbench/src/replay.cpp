#include "replay.h"

#include <algorithm>
#include <cstdio>

#include "elt/derive.h"
#include "mtm/encoding.h"
#include "mtm/incremental.h"
#include "obs/alloc.h"
#include "obs/metrics.h"
#include "sched/sharded_index.h"
#include "synth/canonical.h"
#include "synth/exec_enum.h"
#include "synth/minimality.h"
#include "synth/skeleton.h"

namespace perfbench {

using namespace transform;

namespace {

/// Upper bound on kept span records; reserved up front so recording a
/// sampled span never allocates inside a measured span.
constexpr std::size_t kMaxRecords = 20000;

constexpr const char* kOpNames[kOpCount] = {
    "for_each_skeleton", "canonical_key", "ShardedKeyIndex::record",
    "contains_write", "for_each_execution", "derive_into", "violated_mask",
    "judge", "IncrementalEncoding::enumerate", "ProgramEncoding::enumerate",
};

constexpr const char* kOpLayers[kOpCount] = {
    "synth.skeleton", "synth.canonical", "sched.sharded_index",
    "synth.minimality", "synth.exec_enum", "elt.derive", "mtm.model",
    "synth.minimality", "mtm.incremental", "mtm.encoding",
};

}  // namespace

const char*
op_name(Op op)
{
    return kOpNames[static_cast<int>(op)];
}

const char*
op_layer(Op op)
{
    return kOpLayers[static_cast<int>(op)];
}

SpanTracer::SpanTracer(std::uint64_t sample_every)
    : sample_every_(std::max<std::uint64_t>(sample_every, 1))
{
    stack_.reserve(16);
    records_.reserve(kMaxRecords);
}

void
SpanTracer::set_candidate(std::uint64_t candidate)
{
    candidate_ = candidate;
}

void
SpanTracer::open(Op op)
{
    Frame frame{op, 0, 0};
    const bool sampled =
        op == Op::kSkeleton ||
        (candidate_ != 0 && candidate_ % sample_every_ == 0);
    if (sampled && records_.size() < kMaxRecords) {
        frame.record = static_cast<std::int64_t>(records_.size());
        records_.push_back({op, 0, 0,
                            stack_.empty() ? -1 : stack_.back().record,
                            candidate_});
    }
    frame.allocs = obs::alloc_count();
    frame.start = obs::now_nanos();
    if (frame.record >= 0) {
        records_[static_cast<std::size_t>(frame.record)].start = frame.start;
    }
    stack_.push_back(frame);
}

void
SpanTracer::close()
{
    const std::uint64_t end = obs::now_nanos();
    const std::uint64_t allocs = obs::alloc_count();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::uint64_t nanos = end - frame.start;
    const std::uint64_t span_allocs = allocs - frame.allocs;
    OpTotals& totals = totals_[static_cast<std::size_t>(frame.op)];
    ++totals.calls;
    totals.nanos += nanos;
    totals.self_nanos += nanos - std::min(frame.child_nanos, nanos);
    totals.self_allocs += span_allocs - std::min(frame.child_allocs,
                                                 span_allocs);
    if (!stack_.empty()) {
        stack_.back().child_nanos += nanos;
        stack_.back().child_allocs += span_allocs;
    }
    if (frame.record >= 0) {
        records_[static_cast<std::size_t>(frame.record)].end = end;
    }
}

bool
SpanTracer::write_sample(const std::string& path) const
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        return false;
    }
    const std::uint64_t origin = records_.empty() ? 0 : records_[0].start;
    std::fprintf(out, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        std::fprintf(out,
                     "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %lld, "
                     "\"candidate\": %llu}}\n",
                     i == 0 ? "" : ",", op_name(r.op), op_layer(r.op),
                     static_cast<double>(r.start - origin) / 1e3,
                     static_cast<double>(r.end - r.start) / 1e3, i,
                     static_cast<long long>(r.parent),
                     static_cast<unsigned long long>(r.candidate));
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
}

ReplayResult
replay(const Workload& workload, const mtm::Model& model,
       const synth::SynthesisOptions& options, SpanTracer* tracer)
{
    const std::uint64_t start = obs::now_nanos();
    ReplayResult result;
    const bool sat = options.backend == synth::Backend::kSat;
    const bool timing = tracer != nullptr;
    synth::CanonicalScratch canonical;
    elt::DerivedRelations derived;
    elt::DeriveScratch derive;
    synth::JudgeScratch judge;
    mtm::EncodingScratch encoding;
    encoding.solver.set_timing(timing);
    std::uint64_t candidate = 0;

    for (const std::string& axiom : workload_axioms(workload, model)) {
        const mtm::AxiomMask target = mtm::AxiomMask{1}
                                      << model.axiom_index(axiom);
        sched::ShardedKeyIndex index;
        mtm::IncrementalEncoding session;
        if (sat) {
            // As the engine configures each worker's session per suite.
            session.configure(&model, axiom, options.max_vas,
                              options.max_vas + options.max_fresh_pas);
            session.set_base_cache_capacity(options.sat_base_cache_capacity);
            session.set_timing(timing);
        }
        synth::SuiteResult suite;
        suite.axiom = axiom;
        std::uint64_t ticket = 0;

        // The witness search of one candidate, as find_witness runs it.
        const elt::Program* program = nullptr;
        std::uint64_t considered = 0;
        bool accepted = false;
        mtm::AxiomMask accepted_mask = 0;
        elt::Execution witness;
        const auto consider = [&](const elt::Execution& execution) {
            ++considered;
            {
                const Span span(tracer, Op::kDerive);
                elt::derive_into(execution, model.derive_options(), &derived,
                                 &derive);
            }
            if (!derived.well_formed) {
                return true;
            }
            mtm::AxiomMask violated = 0;
            {
                const Span span(tracer, Op::kVerdict);
                violated =
                    model.violated_mask(*program, derived, &derive.cycle);
            }
            ++result.verdicts;
            if ((violated & target) == 0) {
                return true;
            }
            ++result.violating;
            if (options.require_minimal) {
                bool minimal = false;
                {
                    const Span span(tracer, Op::kJudge);
                    minimal = synth::judge(model, execution, &judge).minimal;
                }
                if (!minimal) {
                    return true;
                }
                ++result.minimal;
            }
            accepted = true;
            witness = execution;
            accepted_mask = violated;
            return false;
        };

        const auto visit = [&](const elt::Program& candidate_program) {
            ++result.programs;
            ++candidate;
            if (tracer != nullptr) {
                tracer->set_candidate(candidate);
            }
            std::string key;
            {
                const Span span(tracer, Op::kCanonical);
                key = synth::canonical_key(candidate_program, &canonical);
            }
            bool is_min = false;
            {
                const Span span(tracer, Op::kIndex);
                is_min = index.record(key, ticket++).is_min;
            }
            if (!is_min) {
                return true;
            }
            bool writes = false;
            {
                const Span span(tracer, Op::kContainsWrite);
                writes = synth::contains_write(candidate_program);
            }
            if (!writes) {
                return true;
            }
            program = &candidate_program;
            considered = 0;
            accepted = false;
            if (!sat) {
                const Span span(tracer, Op::kExecEnum);
                synth::for_each_execution(candidate_program, model.vm_aware(),
                                          consider);
            } else {
                {
                    const Span span(tracer, Op::kIncremental);
                    session.enumerate(candidate_program, consider);
                }
                if (accepted) {
                    // The engine replays accepted probes through the fresh
                    // encoding so the witness is a function of the program.
                    ++result.probes_accepted;
                    considered = 0;
                    accepted = false;
                    const Span span(tracer, Op::kEncoding);
                    mtm::ProgramEncoding fresh(candidate_program, &model,
                                               &encoding);
                    fresh.enumerate(axiom, consider);
                }
            }
            result.executions += considered;
            suite.executions_considered += considered;
            if (accepted) {
                synth::SynthesizedTest test;
                test.witness = witness;
                test.canonical_key = std::move(key);
                test.size = candidate_program.num_events();
                test.violated = model.mask_names(accepted_mask);
                suite.tests.push_back(std::move(test));
            }
            return true;
        };

        for (int size = options.min_bound; size <= options.bound; ++size) {
            const synth::SkeletonOptions skeleton =
                synth::engine_skeleton_options(model, axiom, options, size);
            if (tracer != nullptr) {
                tracer->set_candidate(0);
            }
            const Span span(tracer, Op::kSkeleton);
            synth::for_each_skeleton(skeleton, visit);
        }
        std::sort(suite.tests.begin(), suite.tests.end(),
                  [](const synth::SynthesizedTest& a,
                     const synth::SynthesizedTest& b) {
                      return a.canonical_key < b.canonical_key;
                  });
        suite.programs_considered = ticket;
        suite.duplicates_rejected = index.hits();
        suite.complete = true;
        result.index_hits += index.hits();
        result.keys += index.size();
        if (sat) {
            result.solver.merge(session.lifetime_stats());
            result.bases_built += session.session_stats().bases_built;
        }
        result.suites.push_back(std::move(suite));
    }
    result.solver.merge(encoding.solver.lifetime_stats());
    result.wall_seconds =
        static_cast<double>(obs::now_nanos() - start) * 1e-9;
    return result;
}

}  // namespace perfbench
