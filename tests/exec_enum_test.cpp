/// \file
/// Unit tests for the explicit execution enumerator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "elt/derive.h"
#include "elt/fixtures.h"
#include "synth/exec_enum.h"

namespace transform::synth {
namespace {

using elt::EventId;
using elt::Execution;
using elt::Program;
using elt::ProgramBuilder;

int
count_executions(const Program& p, bool vm)
{
    int count = 0;
    for_each_execution(p, vm, [&](const Execution&) {
        ++count;
        return true;
    });
    return count;
}

TEST(ExecEnum, AllEmittedExecutionsWellFormed)
{
    const Program p = elt::fixtures::fig10a_ptwalk2().program;
    for_each_execution(p, true, [&](const Execution& e) {
        const auto d = elt::derive(e);
        EXPECT_TRUE(d.well_formed)
            << (d.problems.empty() ? "" : d.problems[0]);
        return true;
    });
}

TEST(ExecEnum, SingleReadHasOneExecution)
{
    // R x (with its own walk): walk reads init; read reads init. One
    // execution.
    ProgramBuilder b;
    b.thread();
    const EventId r = b.R(0);
    b.rptw(r);
    EXPECT_EQ(count_executions(b.build(), true), 1);
}

TEST(ExecEnum, WriteThenReadCounts)
{
    // W x (walk+wdb); R x (hit). Choices: the walk reads init or the Wdb
    // (2; the Wdb preserves the initial mapping, being coherence-first at
    // its PTE location); the read reads init or the write (2); all
    // coherence classes are singletons. => 4 executions.
    ProgramBuilder b;
    b.thread();
    const EventId w = b.W(0);
    b.wdb(w);
    b.rptw(w);
    b.R(0);
    const Program p = b.build();
    int count = 0;
    for_each_execution(p, true, [&](const Execution& e) {
        EXPECT_TRUE(elt::derive(e).well_formed);
        ++count;
        return true;
    });
    EXPECT_EQ(count, 4);
}

TEST(ExecEnum, McmSbCounts)
{
    // Classic sb in MCM mode: each read can read init or the other
    // thread's same-location write (2 choices each); writes are alone in
    // their coherence classes. 4 executions.
    ProgramBuilder b;
    b.thread();
    b.W(0);
    b.R(1);
    b.thread();
    b.W(1);
    b.R(0);
    EXPECT_EQ(count_executions(b.build(), false), 4);
}

TEST(ExecEnum, CoherencePermutationsCounted)
{
    // Two writes to the same location in MCM mode: 2 coherence orders.
    ProgramBuilder b;
    b.thread();
    b.W(0);
    b.thread();
    b.W(0);
    EXPECT_EQ(count_executions(b.build(), false), 2);
}

TEST(ExecEnum, HitChoosesAmongLiveWalks)
{
    // Two misses then a hit, all same VA: the hit picks either entry.
    ProgramBuilder b;
    b.thread();
    const EventId r0 = b.R(0);
    b.rptw(r0);
    const EventId r1 = b.R(0);
    b.rptw(r1);
    b.R(0);  // hit
    const Program p = b.build();
    int with_first = 0;
    int with_second = 0;
    for_each_execution(p, true, [&](const Execution& e) {
        const EventId hit = p.thread(0)[2];
        if (e.ptw_src[hit] == p.rptw_of(r0)) {
            ++with_first;
        }
        if (e.ptw_src[hit] == p.rptw_of(r1)) {
            ++with_second;
        }
        return true;
    });
    EXPECT_GT(with_first, 0);
    EXPECT_GT(with_second, 0);
}

TEST(ExecEnum, EarlyStopWorks)
{
    const Program p = elt::fixtures::fig10b_dirtybit3().program;
    int count = 0;
    const bool completed = for_each_execution(p, true, [&](const Execution&) {
        ++count;
        return false;
    });
    EXPECT_FALSE(completed);
    EXPECT_EQ(count, 1);
}

TEST(ExecEnum, StatsTrackExecutions)
{
    ProgramBuilder b;
    b.thread();
    const EventId r = b.R(0);
    b.rptw(r);
    ExecEnumStats stats;
    for_each_execution(b.build(), true, [](const Execution&) { return true; },
                       &stats);
    EXPECT_EQ(stats.executions, 1u);
}

TEST(ExecEnum, PtwalkProgramContainsForbiddenWitness)
{
    // Among ptwalk2's executions there must be one whose walk reads the
    // stale initial mapping (the forbidden outcome of Fig. 10a).
    const Execution fixture = elt::fixtures::fig10a_ptwalk2();
    bool found_stale = false;
    for_each_execution(fixture.program, true, [&](const Execution& e) {
        const auto res = elt::resolve_addresses(e);
        for (EventId id = 0; id < e.program.num_events(); ++id) {
            if (e.program.event(id).kind == elt::EventKind::kRead &&
                res.resolved_pa[id] == 0) {
                found_stale = true;  // read resolved through PA a (stale)
            }
        }
        return true;
    });
    EXPECT_TRUE(found_stale);
}

bool
same_execution(const Execution& a, const Execution& b)
{
    return a.program == b.program && a.rf_src == b.rf_src &&
           a.co_pos == b.co_pos && a.ptw_src == b.ptw_src &&
           a.co_pa_pos == b.co_pa_pos;
}

/// Every execution \p scratch's enumeration of \p p visits, in order.
std::vector<Execution>
visited(const Program& p, bool vm, ExecEnumScratch* scratch,
        ExecEnumStats* stats = nullptr)
{
    std::vector<Execution> out;
    for_each_execution(
        p, vm,
        [&](const Execution& e) {
            out.push_back(e);
            return true;
        },
        scratch, stats);
    return out;
}

void
expect_same_sequence(const std::vector<Execution>& fresh,
                     const std::vector<Execution>& reused,
                     const std::string& context)
{
    ASSERT_EQ(fresh.size(), reused.size()) << context;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_TRUE(same_execution(fresh[i], reused[i]))
            << context << ": execution " << i;
    }
}

TEST(ExecEnum, ReusedScratchVisitsTheFreshSequence)
{
    // fig4 has two Wptes aliasing x and y to one PA (a two-member co_pa
    // class) and a PTE coherence class per VA; in fig2c a remap decides
    // whether the two data writes share a coherence class, so the data
    // classes change with the resolution; fig10b adds a dirty-bit write
    // to its PTE class; the MCM program has two two-write coherence
    // classes. One scratch serves them in turn, programs coming back
    // after others, and must visit exactly what a fresh call visits.
    ProgramBuilder mcm;
    mcm.thread();
    mcm.W(0);
    mcm.W(1);
    mcm.R(0);
    mcm.thread();
    mcm.W(1);
    mcm.W(0);
    mcm.R(1);
    struct Case {
        const char* name;
        Program program;
        bool vm;
    };
    const std::vector<Case> cases = {
        {"fig4", elt::fixtures::fig4_remap_chain().program, true},
        {"mcm", mcm.build(), false},
        {"fig2c", elt::fixtures::fig2c_sb_elt_aliased().program, true},
        {"fig10b", elt::fixtures::fig10b_dirtybit3().program, true},
        {"fig4 again", elt::fixtures::fig4_remap_chain().program, true},
        {"mcm again", mcm.build(), false},
    };
    ExecEnumScratch scratch;
    for (const Case& c : cases) {
        ExecEnumStats fresh_stats;
        ExecEnumStats reused_stats;
        std::vector<Execution> fresh;
        for_each_execution(
            c.program, c.vm,
            [&](const Execution& e) {
                fresh.push_back(e);
                return true;
            },
            &fresh_stats);
        ASSERT_GT(fresh.size(), 1u) << c.name;
        expect_same_sequence(fresh,
                             visited(c.program, c.vm, &scratch, &reused_stats),
                             c.name);
        EXPECT_EQ(fresh_stats.executions, reused_stats.executions) << c.name;
        EXPECT_EQ(fresh_stats.rejected, reused_stats.rejected) << c.name;

        // Stopping at the k-th execution leaves the classes mid-permutation
        // and the witness fields set; the next call must not see either.
        for (std::size_t k = 1; k <= fresh.size(); ++k) {
            std::size_t seen = 0;
            const bool completed = for_each_execution(
                c.program, c.vm,
                [&](const Execution& e) {
                    EXPECT_TRUE(same_execution(fresh[seen], e))
                        << c.name << ": stop at " << k << ", execution "
                        << seen;
                    return ++seen < k;
                },
                &scratch);
            EXPECT_FALSE(completed) << c.name;
            EXPECT_EQ(seen, k) << c.name;
            expect_same_sequence(fresh, visited(c.program, c.vm, &scratch),
                                 std::string(c.name) + " after a stop at " +
                                     std::to_string(k));
        }
    }
}

}  // namespace
}  // namespace transform::synth
