/// \file
/// Unit tests for derivation: well-formedness, address resolution and the
/// Table-I relations on the paper's figures.
#include <gtest/gtest.h>

#include <algorithm>

#include "elt/derive.h"
#include "elt/fixtures.h"

namespace transform::elt {
namespace {

bool
has_edge(const EdgeSet& edges, EventId from, EventId to)
{
    return std::find(edges.begin(), edges.end(), Edge{from, to}) != edges.end();
}

TEST(Derive, Fig2aMcmWellFormed)
{
    const Execution e = fixtures::fig2a_sb_mcm();
    const DerivedRelations d = derive(e, {/*vm_enabled=*/false});
    ASSERT_TRUE(d.well_formed) << (d.problems.empty() ? "" : d.problems[0]);
    EXPECT_EQ(edges_of(d.rf, d.num_events).size(), 2u);
    EXPECT_TRUE(edges_of(d.fr, d.num_events).empty());
    EXPECT_EQ(edges_of(d.po, d.num_events).size(), 2u);
}

TEST(Derive, SbBothZeroHasFrEdges)
{
    const Execution e = fixtures::sb_both_reads_zero_mcm();
    const DerivedRelations d = derive(e, {/*vm_enabled=*/false});
    ASSERT_TRUE(d.well_formed);
    EXPECT_TRUE(edges_of(d.rf, d.num_events).empty());
    // Both reads are ordered before the writes.
    EXPECT_EQ(edges_of(d.fr, d.num_events).size(), 2u);
}

TEST(Derive, Fig10aResolution)
{
    const Execution e = fixtures::fig10a_ptwalk2();
    const DerivedRelations d = derive(e);
    ASSERT_TRUE(d.well_formed) << (d.problems.empty() ? "" : d.problems[0]);
    // R2 reads through the stale initial mapping: PA a (= frame of x).
    EXPECT_EQ(d.resolved_pa[2], 0);
    EXPECT_EQ(d.provenance[2], kNone);
    // fr_va from R2 to the Wpte that remapped x.
    EXPECT_TRUE(has_edge(edges_of(d.fr_va, d.num_events), 2, 0));
    // remap from the Wpte to its INVLPG.
    EXPECT_TRUE(has_edge(edges_of(d.remap, d.num_events), 0, 1));
    // The walk reads the initial state, so fr(Rptw3, WPTE0) holds.
    EXPECT_TRUE(has_edge(edges_of(d.fr, d.num_events), 3, 0));
    // po_loc between the PTE write and the walk of the same PTE.
    EXPECT_TRUE(has_edge(edges_of(d.po_loc, d.num_events), 0, 3));
}

TEST(Derive, Fig10bResolution)
{
    const Execution e = fixtures::fig10b_dirtybit3();
    const DerivedRelations d = derive(e);
    ASSERT_TRUE(d.well_formed) << (d.problems.empty() ? "" : d.problems[0]);
    // R2 uses the fresh mapping: PA b, provenance = WPTE0 (event 0).
    EXPECT_EQ(d.resolved_pa[2], 1);
    EXPECT_EQ(d.provenance[2], 0);
    EXPECT_TRUE(has_edge(edges_of(d.rf_pa, d.num_events), 0, 2));
    // No stale access: fr_va is empty.
    EXPECT_TRUE(edges_of(d.fr_va, d.num_events).empty());
}

TEST(Derive, Fig2cAliasingResolution)
{
    const Execution e = fixtures::fig2c_sb_elt_aliased();
    const DerivedRelations d = derive(e);
    ASSERT_TRUE(d.well_formed) << (d.problems.empty() ? "" : d.problems[0]);
    // Find the user events: W0 x, W5 y, R2 y, R6 x by kind/VA.
    EventId w_x = kNone, w_y = kNone, r_y = kNone, r_x = kNone;
    const Program& p = e.program;
    for (EventId id = 0; id < p.num_events(); ++id) {
        if (p.event(id).kind == EventKind::kWrite) {
            (p.event(id).va == 0 ? w_x : w_y) = id;
        }
        if (p.event(id).kind == EventKind::kRead) {
            (p.event(id).va == 0 ? r_x : r_y) = id;
        }
    }
    ASSERT_NE(w_x, kNone);
    ASSERT_NE(w_y, kNone);
    // All four data events resolve to PA a (index 0): x and y now alias.
    EXPECT_EQ(d.resolved_pa[w_x], 0);
    EXPECT_EQ(d.resolved_pa[w_y], 0);
    EXPECT_EQ(d.resolved_pa[r_x], 0);
    EXPECT_EQ(d.resolved_pa[r_y], 0);
    // Coherence relates the two writes (same PA).
    EXPECT_TRUE(has_edge(edges_of(d.co, d.num_events), w_x, w_y));
    // fr(R6 x, W5 y): reads W0, whose co-successor is W5.
    EXPECT_TRUE(has_edge(edges_of(d.fr, d.num_events), r_x, w_y));
    // po_loc on C1 between W5 (y -> PA a) and R6 (x -> PA a).
    EXPECT_TRUE(has_edge(edges_of(d.po_loc, d.num_events), w_y, r_x));
}

TEST(Derive, Fig4PaEdges)
{
    const Execution e = fixtures::fig4_remap_chain();
    const DerivedRelations d = derive(e);
    ASSERT_TRUE(d.well_formed) << (d.problems.empty() ? "" : d.problems[0]);
    // Events in builder order: R0, Rptw0, R1, Rptw1, WPTE2, INVLPG, R4,
    // Rptw4, WPTE5, INVLPG, R7, Rptw7. Identify the user reads and Wptes.
    // co_pa orders the two alias creations of PA c.
    EXPECT_EQ(edges_of(d.co_pa, d.num_events).size(), 1u);
    // Two fr_va edges (R0 and R1 read mappings that later change).
    EXPECT_EQ(edges_of(d.fr_va, d.num_events).size(), 2u);
    // One fr_pa edge: R4 used WPTE2's alias of c; WPTE5 is a later alias.
    EXPECT_EQ(edges_of(d.fr_pa, d.num_events).size(), 1u);
    // Two rf_pa edges: R4 from WPTE2, R7 from WPTE5.
    EXPECT_EQ(edges_of(d.rf_pa, d.num_events).size(), 2u);
}

TEST(Derive, Fig5SharedWalkAndForcedWalk)
{
    const DerivedRelations a = derive(fixtures::fig5a_shared_walk());
    ASSERT_TRUE(a.well_formed) << (a.problems.empty() ? "" : a.problems[0]);
    // One walk sources both reads; R0's walk sources R1.
    EXPECT_EQ(edges_of(a.rf_ptw, a.num_events).size(), 2u);
    EXPECT_EQ(edges_of(a.ptw_source, a.num_events).size(), 1u);

    const DerivedRelations b = derive(fixtures::fig5b_invlpg_forces_walk());
    ASSERT_TRUE(b.well_formed) << (b.problems.empty() ? "" : b.problems[0]);
    // Each read uses its own walk.
    EXPECT_EQ(edges_of(b.rf_ptw, b.num_events).size(), 2u);
    EXPECT_TRUE(edges_of(b.ptw_source, b.num_events).empty());
}

TEST(Derive, Fig5bSharingAcrossInvlpgIsIllFormed)
{
    // Force R2 to reuse the pre-INVLPG TLB entry: must be rejected.
    Execution e = fixtures::fig5b_invlpg_forces_walk();
    const Program& p = e.program;
    EventId first_walk = kNone, second_read = kNone, second_walk = kNone;
    for (EventId id = 0; id < p.num_events(); ++id) {
        if (p.event(id).kind == EventKind::kRptw) {
            (first_walk == kNone ? first_walk : second_walk) = id;
        }
        if (p.event(id).kind == EventKind::kRead && p.position_of(id) > 0) {
            second_read = id;
        }
    }
    ASSERT_NE(second_walk, kNone);
    // Rebuild without the second walk is impossible here (it would orphan
    // the ghost), so just retarget the read across the INVLPG.
    e.ptw_src[second_read] = first_walk;
    const DerivedRelations d = derive(e);
    EXPECT_FALSE(d.well_formed);
}

TEST(Derive, RfAcrossDifferentPasIsIllFormed)
{
    // Two VAs with distinct frames: a read of x cannot read a write of y.
    ProgramBuilder b;
    b.thread();
    const EventId w = b.W(1);
    b.wdb(w);
    const EventId rptw_w = b.rptw(w);
    const EventId r = b.R(0);
    const EventId rptw_r = b.rptw(r);
    Execution e = Execution::empty_for(b.build());
    e.ptw_src[w] = rptw_w;
    e.ptw_src[r] = rptw_r;
    e.rf_src[rptw_w] = kNone;
    e.rf_src[rptw_r] = kNone;
    e.rf_src[r] = w;  // cross-PA rf
    e.co_pos[w] = 0;
    e.co_pos[e.program.wdb_of(w)] = 0;
    const DerivedRelations d = derive(e);
    EXPECT_FALSE(d.well_formed);
}

TEST(Derive, MissingWalkIsIllFormed)
{
    ProgramBuilder b;
    b.thread();
    const EventId r = b.R(0);
    b.rptw(r);
    Execution e = Execution::empty_for(b.build());
    // ptw_src left unset.
    const DerivedRelations d = derive(e);
    EXPECT_FALSE(d.well_formed);
}

TEST(Derive, DirtyBitValuesGroundThroughCoherence)
{
    // Two stores to the same VA whose walks each read the *other* store's
    // dirty-bit write. Dirty-bit updates preserve the mapping of their
    // coherence predecessor, so all values ground out in the initial
    // mapping: well-formed, everything resolves to PA a.
    ProgramBuilder b;
    b.thread();
    const EventId w1 = b.W(0);
    const EventId wdb1 = b.wdb(w1);
    const EventId rptw1 = b.rptw(w1);
    const EventId w2 = b.W(0);
    const EventId wdb2 = b.wdb(w2);
    const EventId rptw2 = b.rptw(w2);
    Execution e = Execution::empty_for(b.build());
    e.ptw_src[w1] = rptw1;
    e.ptw_src[w2] = rptw2;
    e.rf_src[rptw1] = wdb2;
    e.rf_src[rptw2] = wdb1;
    e.co_pos[w1] = 0;
    e.co_pos[w2] = 1;
    e.co_pos[wdb1] = 0;
    e.co_pos[wdb2] = 1;
    const DerivedRelations d = derive(e);
    ASSERT_TRUE(d.well_formed) << (d.problems.empty() ? "" : d.problems[0]);
    EXPECT_EQ(d.resolved_pa[w1], 0);
    EXPECT_EQ(d.resolved_pa[w2], 0);
    EXPECT_EQ(d.resolved_pa[wdb1], 0);
    EXPECT_EQ(d.resolved_pa[wdb2], 0);
}

TEST(Derive, DirtyBitAfterRemapCarriesNewMapping)
{
    // WPTE installs x -> b; a later store's dirty-bit write (coherence
    // after the WPTE) must carry the new mapping, matching Fig. 10b where
    // Wdb3 shows "z = VA x -> PA b".
    const Execution e = fixtures::fig10b_dirtybit3();
    const DerivedRelations d = derive(e);
    ASSERT_TRUE(d.well_formed);
    for (EventId id = 0; id < e.program.num_events(); ++id) {
        if (e.program.event(id).kind == EventKind::kWdb) {
            EXPECT_EQ(d.resolved_pa[id], 1);  // PA b
            EXPECT_EQ(d.provenance[id], 0);   // via WPTE0
        }
    }
}

TEST(Derive, CoPositionsMustBePermutation)
{
    Execution e = fixtures::fig2a_sb_mcm();
    e.co_pos[0] = 1;  // lone write at position 1 (not 0)
    const DerivedRelations d = derive(e, {/*vm_enabled=*/false});
    EXPECT_FALSE(d.well_formed);
}

TEST(Derive, PpoDropsWriteToRead)
{
    const Execution e = fixtures::fig2a_sb_mcm();
    const DerivedRelations d = derive(e, {/*vm_enabled=*/false});
    ASSERT_TRUE(d.well_formed);
    // W0 -> R1 (same thread) is the store-buffer relaxation: not in ppo.
    EXPECT_FALSE(has_edge(edges_of(d.ppo, d.num_events), 0, 1));
    EXPECT_FALSE(has_edge(edges_of(d.ppo, d.num_events), 2, 3));
}

TEST(Derive, RowsHaveCycleUtility)
{
    const BitRow ring[] = {0b010, 0b100, 0b001};  // 0 -> 1 -> 2 -> 0
    const BitRow chain[] = {0b010, 0b100, 0};
    EXPECT_TRUE(rows_have_cycle(ring, 3));
    EXPECT_FALSE(rows_have_cycle(chain, 3));
    const BitRow both_ways[] = {0b10, 0b01};
    const BitRow one_way[] = {0b10, 0};
    EXPECT_TRUE(rows_have_cycle(both_ways, 2));
    EXPECT_FALSE(rows_have_cycle(one_way, 2));
}

TEST(Derive, CoAndCoPaDisagreementRejected)
{
    // Two WPTEs on the same PTE location targeting the same PA: the
    // alias-creation order must match the location's coherence order.
    ProgramBuilder b;
    b.thread();
    const EventId p1 = b.wpte(0, 1);
    b.invlpg_for(p1);
    const EventId p2 = b.wpte(0, 1);
    b.invlpg_for(p2);
    const EventId r = b.R(0);
    const EventId walk = b.rptw(r);
    Execution e = Execution::empty_for(b.build());
    e.ptw_src[r] = walk;
    e.rf_src[walk] = p2;
    e.co_pos[p1] = 0;
    e.co_pos[p2] = 1;
    e.co_pa_pos[p1] = 1;  // contradicts co
    e.co_pa_pos[p2] = 0;
    EXPECT_FALSE(derive(e).well_formed);
    e.co_pa_pos[p1] = 0;
    e.co_pa_pos[p2] = 1;
    EXPECT_TRUE(derive(e).well_formed);
}

TEST(Derive, WalkOnWrongCoreRejected)
{
    // A data access may not translate through another core's TLB.
    ProgramBuilder b;
    b.thread();
    const EventId r0 = b.R(0);
    const EventId w0 = b.rptw(r0);
    b.thread();
    const EventId r1 = b.R(0);
    const EventId w1 = b.rptw(r1);
    Execution e = Execution::empty_for(b.build());
    e.ptw_src[r0] = w0;
    e.ptw_src[r1] = w0;  // cross-core TLB sharing: illegal
    e.rf_src[w0] = kNone;
    e.rf_src[w1] = kNone;
    EXPECT_FALSE(derive(e).well_formed);
    e.ptw_src[r1] = w1;
    EXPECT_TRUE(derive(e).well_formed);
}

TEST(Derive, WalkForWrongVaRejected)
{
    ProgramBuilder b;
    b.thread();
    const EventId rx = b.R(0);
    const EventId wx = b.rptw(rx);
    const EventId ry = b.R(1);
    const EventId wy = b.rptw(ry);
    Execution e = Execution::empty_for(b.build());
    e.ptw_src[rx] = wx;
    e.ptw_src[ry] = wx;  // y translated through x's entry
    e.rf_src[wx] = kNone;
    e.rf_src[wy] = kNone;
    EXPECT_FALSE(derive(e).well_formed);
}

TEST(Derive, TlbEntryUsedBeforeItsWalkRejected)
{
    // A hit cannot use a TLB entry loaded by a po-later instruction.
    ProgramBuilder b;
    b.thread();
    b.R(0);  // the would-be hit, first in po
    const EventId r1 = b.R(0);
    const EventId w1 = b.rptw(r1);
    Execution e = Execution::empty_for(b.build());
    e.ptw_src[e.program.thread(0)[0]] = w1;  // uses the later walk
    e.ptw_src[r1] = w1;
    e.rf_src[w1] = kNone;
    EXPECT_FALSE(derive(e).well_formed);
}

TEST(Derive, ResolveAddressesStandalone)
{
    const Execution e = fixtures::fig10b_dirtybit3();
    const ResolutionResult r = resolve_addresses(e);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.resolved_pa[2], 1);  // R2 -> PA b
    EXPECT_EQ(r.provenance[2], 0);   // via WPTE0
}

}  // namespace
}  // namespace transform::elt
