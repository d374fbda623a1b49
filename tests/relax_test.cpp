/// \file
/// Unit tests for the relaxation engine (section IV-B removal groups).
#include <gtest/gtest.h>

#include <algorithm>

#include "elt/derive.h"
#include "elt/fixtures.h"
#include "mtm/model.h"
#include "mtm/relax.h"

namespace transform::mtm {
namespace {

using elt::EventId;
using elt::EventKind;
using elt::Execution;
using elt::kNone;

TEST(Relax, ApplicableRelaxationCounts)
{
    // ptwalk2: WPTE0, INVLPG1 (remap-invoked), R2, Rptw3.
    const Execution e = elt::fixtures::fig10a_ptwalk2();
    const auto relaxations = applicable_relaxations(e.program);
    // Removable: WPTE0 (with its INVLPG), R2 (with its walk). The
    // remap-invoked INVLPG and the ghost walk are not separately removable.
    EXPECT_EQ(relaxations.size(), 2u);
}

TEST(Relax, SpuriousInvlpgIsRemovableAlone)
{
    const Execution e = elt::fixtures::fig5b_invlpg_forces_walk();
    const auto relaxations = applicable_relaxations(e.program);
    // R0, INVLPG1 (spurious), R2 are each removable.
    EXPECT_EQ(relaxations.size(), 3u);
    bool has_spurious = false;
    for (const auto& r : relaxations) {
        has_spurious = has_spurious ||
                       r.kind == Relaxation::Kind::kRemoveSpuriousInvlpg;
    }
    EXPECT_TRUE(has_spurious);
}

TEST(Relax, RemoveWpteRemovesItsInvlpgs)
{
    const Execution e = elt::fixtures::fig11_new_elt();
    // Find the Wpte relaxation.
    for (const auto& r : applicable_relaxations(e.program)) {
        if (r.kind != Relaxation::Kind::kRemoveWpte) {
            continue;
        }
        const Execution relaxed = apply_relaxation(e, r);
        // WPTE0 + INVLPG1 + INVLPG2 gone: R3 and its walk remain.
        EXPECT_EQ(relaxed.program.num_events(), 2);
        EXPECT_TRUE(relaxed.program.validate().empty());
        const auto d = elt::derive(relaxed);
        EXPECT_TRUE(d.well_formed);
        EXPECT_TRUE(x86t_elt().permits(relaxed));
    }
}

TEST(Relax, RemoveUserEventRemovesGhosts)
{
    const Execution e = elt::fixtures::fig10a_ptwalk2();
    for (const auto& r : applicable_relaxations(e.program)) {
        if (r.kind != Relaxation::Kind::kRemoveUserEvent) {
            continue;
        }
        const Execution relaxed = apply_relaxation(e, r);
        // R2 and Rptw3 both go; WPTE0 + INVLPG1 remain.
        EXPECT_EQ(relaxed.program.num_events(), 2);
        EXPECT_TRUE(elt::derive(relaxed).well_formed);
    }
}

TEST(Relax, WalkReparentsToSurvivingUser)
{
    // Fig 5a: R0 (with walk) and R1 (hit). Removing R0 must keep the walk,
    // re-parented to R1.
    const Execution e = elt::fixtures::fig5a_shared_walk();
    const auto relaxations = applicable_relaxations(e.program);
    for (const auto& r : relaxations) {
        if (r.kind != Relaxation::Kind::kRemoveUserEvent || r.target != 0) {
            continue;
        }
        const Execution relaxed = apply_relaxation(e, r);
        EXPECT_EQ(relaxed.program.num_events(), 2);  // R1 + the walk
        int walks = 0;
        for (EventId id = 0; id < relaxed.program.num_events(); ++id) {
            if (relaxed.program.event(id).kind == EventKind::kRptw) {
                ++walks;
                EXPECT_NE(relaxed.program.event(id).parent, kNone);
            }
        }
        EXPECT_EQ(walks, 1);
        EXPECT_TRUE(elt::derive(relaxed).well_formed);
    }
}

TEST(Relax, ReadSourcedByRemovedWriteFallsBackToInit)
{
    const Execution e = elt::fixtures::fig2a_sb_mcm();
    // Remove W2 (the write R1 reads from).
    const Execution relaxed = remove_events(e, {2});
    EXPECT_EQ(relaxed.program.num_events(), 3);
    for (EventId id = 0; id < relaxed.program.num_events(); ++id) {
        if (relaxed.program.event(id).kind == EventKind::kRead &&
            relaxed.program.event(id).va == 1) {
            EXPECT_EQ(relaxed.rf_src[id], kNone);
        }
    }
    EXPECT_TRUE(elt::derive(relaxed, {false}).well_formed);
}

TEST(Relax, DropRmwKeepsEvents)
{
    elt::ProgramBuilder b;
    b.thread();
    const EventId r = b.R(0);
    const EventId rptw = b.rptw(r);
    const EventId w = b.W(0);
    const EventId wdb = b.wdb(w);
    b.rmw(r, w);
    Execution e = Execution::empty_for(b.build());
    e.ptw_src[r] = rptw;
    e.ptw_src[w] = rptw;
    e.rf_src[rptw] = kNone;
    e.rf_src[r] = kNone;
    e.co_pos[w] = 0;
    e.co_pos[wdb] = 0;
    ASSERT_TRUE(elt::derive(e).well_formed);

    for (const auto& relax : applicable_relaxations(e.program)) {
        if (relax.kind != Relaxation::Kind::kDropRmw) {
            continue;
        }
        const Execution relaxed = apply_relaxation(e, relax);
        EXPECT_EQ(relaxed.program.num_events(), e.program.num_events());
        EXPECT_TRUE(relaxed.program.rmw_pairs().empty());
        EXPECT_TRUE(elt::derive(relaxed).well_formed);
    }
}

TEST(Relax, AllRelaxationsOfFixturesStayWellFormed)
{
    const std::vector<Execution> fixtures = {
        elt::fixtures::fig2b_sb_elt(),
        elt::fixtures::fig2c_sb_elt_aliased(),
        elt::fixtures::fig4_remap_chain(),
        elt::fixtures::fig6_remap_disambiguation(),
        elt::fixtures::fig10a_ptwalk2(),
        elt::fixtures::fig10b_dirtybit3(),
        elt::fixtures::fig11_new_elt(),
    };
    for (const Execution& e : fixtures) {
        for (const auto& relax : applicable_relaxations(e.program)) {
            const Execution relaxed = apply_relaxation(e, relax);
            if (relaxed.program.num_events() == 0) {
                continue;
            }
            const auto d = elt::derive(relaxed);
            EXPECT_TRUE(d.well_formed)
                << relax.describe(e.program) << ": "
                << (d.problems.empty() ? "" : d.problems[0]);
        }
    }
}

TEST(Relax, CascadeRemovesDanglingSpuriousInvlpg)
{
    // fig5b: R0, INVLPG1 (spurious), R2. Removing R2 leaves the INVLPG with
    // no later same-VA access; the cascade must delete it too.
    const Execution e = elt::fixtures::fig5b_invlpg_forces_walk();
    elt::EventId r2 = kNone;
    for (EventId id = 0; id < e.program.num_events(); ++id) {
        if (e.program.event(id).kind == EventKind::kRead &&
            e.program.position_of(id) == 2) {
            r2 = id;
        }
    }
    ASSERT_NE(r2, kNone);
    const Execution relaxed = remove_events(e, {r2});
    for (EventId id = 0; id < relaxed.program.num_events(); ++id) {
        EXPECT_NE(relaxed.program.event(id).kind, EventKind::kInvlpg);
    }
    EXPECT_TRUE(elt::derive(relaxed).well_formed);
}

TEST(Relax, DescribeMentionsTarget)
{
    const Execution e = elt::fixtures::fig10a_ptwalk2();
    const auto relaxations = applicable_relaxations(e.program);
    for (const auto& r : relaxations) {
        EXPECT_FALSE(r.describe(e.program).empty());
    }
}

// ---------------------------------------------------------------------------
// Differential battery: the pooled `_into` twins must be field-identical
// to the materializing originals on every input — one RelaxScratch reused
// across the whole sweep (the derive/derive_into discipline).

void
expect_execution_identical(const Execution& fresh, const Execution& pooled,
                           const std::string& context)
{
    ASSERT_EQ(fresh.program.num_events(), pooled.program.num_events())
        << context;
    ASSERT_EQ(fresh.program.num_threads(), pooled.program.num_threads())
        << context;
    for (EventId id = 0; id < fresh.program.num_events(); ++id) {
        const elt::Event& a = fresh.program.event(id);
        const elt::Event& b = pooled.program.event(id);
        EXPECT_EQ(a.kind, b.kind) << context << " event " << id;
        EXPECT_EQ(a.thread, b.thread) << context << " event " << id;
        EXPECT_EQ(a.va, b.va) << context << " event " << id;
        EXPECT_EQ(a.map_pa, b.map_pa) << context << " event " << id;
        EXPECT_EQ(a.parent, b.parent) << context << " event " << id;
        EXPECT_EQ(a.remap_src, b.remap_src) << context << " event " << id;
    }
    EXPECT_TRUE(std::ranges::equal(fresh.program.threads(),
                                   pooled.program.threads()))
        << context;
    EXPECT_EQ(fresh.program.rmw_pairs(), pooled.program.rmw_pairs())
        << context;
    EXPECT_EQ(fresh.rf_src, pooled.rf_src) << context;
    EXPECT_EQ(fresh.co_pos, pooled.co_pos) << context;
    EXPECT_EQ(fresh.ptw_src, pooled.ptw_src) << context;
    EXPECT_EQ(fresh.co_pa_pos, pooled.co_pa_pos) << context;
}

TEST(RelaxScratchDifferential, ApplyIntoFieldIdenticalAcrossFixtures)
{
    struct Case {
        Execution (*make)();
        bool vm;
        const char* name;
    };
    const Case cases[] = {
        {elt::fixtures::fig2a_sb_mcm, false, "fig2a"},
        {elt::fixtures::fig2b_sb_elt, true, "fig2b"},
        {elt::fixtures::fig2c_sb_elt_aliased, true, "fig2c"},
        {elt::fixtures::fig4_remap_chain, true, "fig4"},
        {elt::fixtures::fig5a_shared_walk, true, "fig5a"},
        {elt::fixtures::fig5b_invlpg_forces_walk, true, "fig5b"},
        {elt::fixtures::fig6_remap_disambiguation, true, "fig6"},
        {elt::fixtures::fig10a_ptwalk2, true, "fig10a"},
        {elt::fixtures::fig10b_dirtybit3, true, "fig10b"},
        {elt::fixtures::fig11_new_elt, true, "fig11"},
    };
    RelaxScratch scratch;  // ONE scratch across every fixture + relaxation
    for (const Case& c : cases) {
        const Execution e = c.make();
        std::vector<Relaxation> relaxations;
        applicable_relaxations_into(e.program, &relaxations);
        // The pooled enumeration matches the materializing one first.
        const auto fresh_relaxations = applicable_relaxations(e.program);
        ASSERT_EQ(relaxations.size(), fresh_relaxations.size()) << c.name;
        for (std::size_t i = 0; i < relaxations.size(); ++i) {
            EXPECT_EQ(relaxations[i].kind, fresh_relaxations[i].kind)
                << c.name << " relaxation " << i;
            EXPECT_EQ(relaxations[i].target, fresh_relaxations[i].target)
                << c.name << " relaxation " << i;
        }
        for (const Relaxation& r : relaxations) {
            const Execution fresh = apply_relaxation(e, r, c.vm);
            const Execution& pooled =
                apply_relaxation_into(e, r, c.vm, &scratch);
            expect_execution_identical(
                fresh, pooled,
                std::string(c.name) + ": " + r.describe(e.program));
        }
    }
}

TEST(RelaxScratchDifferential, IntoMatchesOnCorruptedWitnesses)
{
    // The judge only relaxes well-formed candidates, but the twins must
    // not diverge even on broken witnesses (the repair paths: rf fallback,
    // co re-compaction of nonsense positions).
    const Execution base = elt::fixtures::fig10b_dirtybit3();
    RelaxScratch scratch;
    std::vector<Execution> variants;
    variants.push_back(base);
    {
        Execution bad = base;
        bad.co_pos[0] = 7;  // out-of-range coherence position
        variants.push_back(bad);
    }
    {
        Execution self_rf = base;
        self_rf.rf_src[0] = 0;  // self-sourced rf
        variants.push_back(self_rf);
    }
    {
        Execution cross = base;
        for (EventId id = 0; id < cross.program.num_events(); ++id) {
            if (cross.rf_src[id] != elt::kNone) {
                cross.rf_src[id] = (cross.rf_src[id] + 1) %
                                   cross.program.num_events();
            }
        }
        variants.push_back(cross);
    }
    for (std::size_t v = 0; v < variants.size(); ++v) {
        const Execution& e = variants[v];
        for (const Relaxation& r : applicable_relaxations(e.program)) {
            const Execution fresh = apply_relaxation(e, r);
            const Execution& pooled =
                apply_relaxation_into(e, r, /*vm_enabled=*/true, &scratch);
            expect_execution_identical(fresh, pooled,
                                       "variant " + std::to_string(v) +
                                           ": " + r.describe(e.program));
        }
    }
}

TEST(RelaxScratchDifferential, RemoveEventsIntoMatchesAcrossSeedSets)
{
    const Execution e = elt::fixtures::fig11_new_elt();
    RelaxScratch scratch;
    for (EventId seed = 0; seed < e.program.num_events(); ++seed) {
        if (elt::is_ghost(e.program.event(seed).kind)) {
            continue;  // ghosts are not removable seeds
        }
        const Execution fresh = remove_events(e, {seed});
        const Execution& pooled =
            remove_events_into(e, {seed}, /*vm_enabled=*/true, &scratch);
        expect_execution_identical(fresh, pooled,
                                   "seed " + std::to_string(seed));
    }
}

}  // namespace
}  // namespace transform::mtm
