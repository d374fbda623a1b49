/// \file
/// Fine-grained semantics of the Table-I vocabulary: each relation's
/// domain/range typing and the exact edge sets the paper's figures imply.
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

class VocabularyFig4 : public ::testing::Test {
  protected:
    void SetUp() override
    {
        exec_ = fixtures::fig4_remap_chain();
        derived_ = derive(exec_);
        ASSERT_TRUE(derived_.well_formed);
        const Program& p = exec_.program;
        for (EventId id = 0; id < p.num_events(); ++id) {
            switch (p.event(id).kind) {
            case EventKind::kRead:
                reads_.push_back(id);
                break;
            case EventKind::kWpte:
                wptes_.push_back(id);
                break;
            case EventKind::kRptw:
                walks_.push_back(id);
                break;
            default:
                break;
            }
        }
        ASSERT_EQ(reads_.size(), 4u);   // R0 x, R1 y, R4 y, R7 x
        ASSERT_EQ(wptes_.size(), 2u);   // WPTE2 (y->c), WPTE5 (x->c)
        ASSERT_EQ(walks_.size(), 4u);
    }

    EdgeSet edges(const BitRows& rows) const
    {
        return edges_of(rows, derived_.num_events);
    }

    Execution exec_;
    DerivedRelations derived_;
    std::vector<EventId> reads_;
    std::vector<EventId> wptes_;
    std::vector<EventId> walks_;
};

TEST_F(VocabularyFig4, RfPaRelatesWpteToUsers)
{
    // R4 y uses WPTE2's mapping; R7 x uses WPTE5's (Fig. 4b).
    EXPECT_TRUE(has_edge(edges(derived_.rf_pa), wptes_[0], reads_[2]));
    EXPECT_TRUE(has_edge(edges(derived_.rf_pa), wptes_[1], reads_[3]));
    EXPECT_EQ(edges(derived_.rf_pa).size(), 2u);
    // Domain: Wpte only; range: user-facing data accesses only.
    for (const auto& [from, to] : edges(derived_.rf_pa)) {
        EXPECT_EQ(exec_.program.event(from).kind, EventKind::kWpte);
        EXPECT_TRUE(is_data_access(exec_.program.event(to).kind));
    }
}

TEST_F(VocabularyFig4, CoPaOrdersAliasCreation)
{
    // Both Wptes target PA c; creation order WPTE2 then WPTE5.
    ASSERT_EQ(edges(derived_.co_pa).size(), 1u);
    EXPECT_TRUE(has_edge(edges(derived_.co_pa), wptes_[0], wptes_[1]));
}

TEST_F(VocabularyFig4, FrPaRelatesToLaterAliases)
{
    // R4 reads PA c via WPTE2; WPTE5 creates the next alias of c.
    ASSERT_EQ(edges(derived_.fr_pa).size(), 1u);
    EXPECT_TRUE(has_edge(edges(derived_.fr_pa), reads_[2], wptes_[1]));
}

TEST_F(VocabularyFig4, FrVaRelatesToRemapsOfAccessedVa)
{
    // R0 x read before WPTE5 remapped x; R1 y before WPTE2 remapped y.
    EXPECT_EQ(edges(derived_.fr_va).size(), 2u);
    EXPECT_TRUE(has_edge(edges(derived_.fr_va), reads_[0], wptes_[1]));
    EXPECT_TRUE(has_edge(edges(derived_.fr_va), reads_[1], wptes_[0]));
    // fr_va targets are always PTE writes for the accessed VA.
    for (const auto& [from, to] : edges(derived_.fr_va)) {
        EXPECT_EQ(exec_.program.event(to).kind, EventKind::kWpte);
        EXPECT_EQ(exec_.program.event(from).va, exec_.program.event(to).va);
    }
}

TEST_F(VocabularyFig4, RemapRelatesWpteToItsInvlpgs)
{
    EXPECT_EQ(edges(derived_.remap).size(), 2u);
    for (const auto& [from, to] : edges(derived_.remap)) {
        EXPECT_EQ(exec_.program.event(from).kind, EventKind::kWpte);
        EXPECT_EQ(exec_.program.event(to).kind, EventKind::kInvlpg);
        EXPECT_EQ(exec_.program.event(to).remap_src, from);
    }
}

TEST_F(VocabularyFig4, RfPtwSourcesEachAccess)
{
    // Four data accesses, each translated by its own walk.
    EXPECT_EQ(edges(derived_.rf_ptw).size(), 4u);
    for (const auto& [from, to] : edges(derived_.rf_ptw)) {
        EXPECT_EQ(exec_.program.event(from).kind, EventKind::kRptw);
        EXPECT_TRUE(is_data_access(exec_.program.event(to).kind));
        EXPECT_EQ(exec_.program.event(from).va, exec_.program.event(to).va);
    }
}

TEST(Vocabulary, GhostRelatesParentToGhost)
{
    const Execution e = fixtures::fig2b_sb_elt();
    const DerivedRelations d = derive(e);
    ASSERT_TRUE(d.well_formed);
    for (const auto& [parent, ghost] : edges_of(d.ghost, d.num_events)) {
        EXPECT_FALSE(is_ghost(e.program.event(parent).kind));
        EXPECT_TRUE(is_ghost(e.program.event(ghost).kind));
        EXPECT_EQ(e.program.event(ghost).parent, parent);
        EXPECT_EQ(e.program.event(parent).thread,
                  e.program.event(ghost).thread);
    }
    // Each Write has two ghosts (Wdb + Rptw), each Read at most one.
    EXPECT_EQ(edges_of(d.ghost, d.num_events).size(), 6u);
}

TEST(Vocabulary, PtwSourceExcludesTheWalker)
{
    const Execution e = fixtures::fig5a_shared_walk();
    const DerivedRelations d = derive(e);
    ASSERT_TRUE(d.well_formed);
    ASSERT_EQ(edges_of(d.ptw_source, d.num_events).size(), 1u);
    const auto [from, to] = edges_of(d.ptw_source, d.num_events)[0];
    // R0 (the walker) sources R1 (the hit), never itself.
    EXPECT_NE(from, to);
    EXPECT_EQ(e.program.position_of(from), 0);
    EXPECT_EQ(e.program.position_of(to), 1);
}

TEST(Vocabulary, RfeIsCrossThreadSubsetOfRf)
{
    const Execution e = fixtures::fig2b_sb_elt();
    const DerivedRelations d = derive(e);
    ASSERT_TRUE(d.well_formed);
    const EdgeSet rf = edges_of(d.rf, d.num_events);
    for (const auto& edge : edges_of(d.rfe, d.num_events)) {
        EXPECT_NE(e.program.event(edge.first).thread,
                  e.program.event(edge.second).thread);
        EXPECT_TRUE(std::find(rf.begin(), rf.end(), edge) != rf.end());
    }
}

TEST(Vocabulary, PoIsTransitivePerThread)
{
    const Execution e = fixtures::fig4_remap_chain();
    const DerivedRelations d = derive(e);
    ASSERT_TRUE(d.well_formed);
    // 8 non-ghost events on one thread: C(8,2) = 28 po pairs.
    EXPECT_EQ(edges_of(d.po, d.num_events).size(), 28u);
}

TEST(Vocabulary, FenceOrdersAcrossMfence)
{
    ProgramBuilder b;
    b.thread();
    const EventId w = b.W(0);
    b.wdb(w);
    const EventId walk_w = b.rptw(w);
    b.mfence();
    const EventId r = b.R(1);
    const EventId walk_r = b.rptw(r);
    Execution e = Execution::empty_for(b.build());
    e.ptw_src[w] = walk_w;
    e.ptw_src[r] = walk_r;
    e.rf_src[walk_w] = kNone;
    e.rf_src[walk_r] = kNone;
    e.rf_src[r] = kNone;
    e.co_pos[w] = 0;
    e.co_pos[e.program.wdb_of(w)] = 0;
    const DerivedRelations d = derive(e);
    ASSERT_TRUE(d.well_formed);
    // Memory events before the fence: W, Wdb, Rptw(w); after: R, Rptw(r).
    // fence = 3 x 2 pairs.
    EXPECT_EQ(edges_of(d.fence, d.num_events).size(), 6u);
    // And the fence restores the W->R order that ppo drops.
    EXPECT_FALSE(has_edge(edges_of(d.ppo, d.num_events), w, r));
    EXPECT_TRUE(has_edge(edges_of(d.fence, d.num_events), w, r));
}

TEST(Vocabulary, PpoKeepsAllButWriteToRead)
{
    const Execution e = fixtures::fig2a_sb_mcm();
    const DerivedRelations d = derive(e, {false});
    ASSERT_TRUE(d.well_formed);
    // Each thread is W;R — the only same-thread memory pair is W->R,
    // dropped by TSO.
    EXPECT_TRUE(edges_of(d.ppo, d.num_events).empty());
}

TEST(Vocabulary, InitialMappingsAreIdentity)
{
    // A read with no remap resolves VA i to PA i.
    for (VaId va = 0; va < 3; ++va) {
        ProgramBuilder b;
        b.thread();
        const EventId r = b.R(va);
        const EventId walk = b.rptw(r);
        Execution e = Execution::empty_for(b.build());
        e.ptw_src[r] = walk;
        e.rf_src[walk] = kNone;
        const DerivedRelations d = derive(e);
        ASSERT_TRUE(d.well_formed);
        EXPECT_EQ(d.resolved_pa[r], va);
        EXPECT_EQ(d.provenance[r], kNone);
    }
}

TEST(Vocabulary, WpteProvenanceIsItself)
{
    const Execution e = fixtures::fig10a_ptwalk2();
    const DerivedRelations d = derive(e);
    ASSERT_TRUE(d.well_formed);
    EXPECT_EQ(d.resolved_pa[0], 1);  // WPTE0 installs x -> b
    EXPECT_EQ(d.provenance[0], 0);
}

TEST(Vocabulary, InstructionCountCountsGhosts)
{
    // ptwalk2: WPTE + INVLPG + R + Rptw = 4 (the paper's smallest ELT).
    EXPECT_EQ(fixtures::fig10a_ptwalk2().program.instruction_count(), 4);
    // sb ELT (Fig. 2b): 4 user + 2 Wdb + 4 Rptw = 10.
    EXPECT_EQ(fixtures::fig2b_sb_elt().program.instruction_count(), 10);
}

}  // namespace
}  // namespace transform::elt
