/// \file
/// Unit tests for ELT program construction, positions and validation.
#include <gtest/gtest.h>

#include "elt/derive.h"
#include "elt/fixtures.h"
#include "elt/printer.h"
#include "elt/program.h"

namespace transform::elt {
namespace {

TEST(EventKind, Classification)
{
    EXPECT_TRUE(is_user(EventKind::kRead));
    EXPECT_TRUE(is_user(EventKind::kMfence));
    EXPECT_TRUE(is_support(EventKind::kWpte));
    EXPECT_TRUE(is_support(EventKind::kInvlpg));
    EXPECT_TRUE(is_ghost(EventKind::kRptw));
    EXPECT_TRUE(is_ghost(EventKind::kWdb));
    EXPECT_FALSE(is_memory(EventKind::kInvlpg));
    EXPECT_FALSE(is_memory(EventKind::kMfence));
    EXPECT_TRUE(is_memory(EventKind::kWpte));
    EXPECT_TRUE(is_write_like(EventKind::kWdb));
    EXPECT_TRUE(is_read_like(EventKind::kRptw));
    EXPECT_TRUE(is_data_access(EventKind::kWrite));
    EXPECT_TRUE(is_pte_access(EventKind::kWpte));
    EXPECT_FALSE(is_pte_access(EventKind::kRead));
}

TEST(Program, BuilderPositions)
{
    ProgramBuilder b;
    b.thread();
    const EventId w = b.W(0);
    const EventId wdb = b.wdb(w);
    const EventId rptw = b.rptw(w);
    const EventId r = b.R(0);
    Program p = b.build();
    EXPECT_EQ(p.num_threads(), 1);
    EXPECT_EQ(p.num_events(), 4);
    EXPECT_EQ(p.position_of(w), 0);
    EXPECT_EQ(p.position_of(wdb), 0);   // ghosts inherit parent position
    EXPECT_EQ(p.position_of(rptw), 0);
    EXPECT_EQ(p.position_of(r), 1);
    // Same-position events (an instruction and its ghosts) are unordered;
    // distinct positions order as usual, ghosts included.
    EXPECT_FALSE(p.precedes(wdb, rptw));
    EXPECT_FALSE(p.precedes(rptw, w));
    EXPECT_TRUE(p.precedes(w, r));
    EXPECT_TRUE(p.precedes(wdb, r));
    EXPECT_FALSE(p.precedes(r, w));
}

TEST(Program, GhostLookup)
{
    ProgramBuilder b;
    b.thread();
    const EventId w = b.W(0);
    const EventId wdb = b.wdb(w);
    const EventId rptw = b.rptw(w);
    const Program p = b.build();
    EXPECT_EQ(p.wdb_of(w), wdb);
    EXPECT_EQ(p.rptw_of(w), rptw);
    EXPECT_EQ(p.rdb_of(w), kNone);
}

TEST(Program, NumVasAndPas)
{
    ProgramBuilder b;
    b.thread();
    const EventId w = b.W(0);
    b.wdb(w);
    b.rptw(w);
    b.R(1);  // will fail validation (no walk) but counts VAs fine
    const EventId p1 = b.wpte(1, 3);
    b.invlpg_for(p1);
    const Program p = b.build();
    EXPECT_EQ(p.num_vas(), 2);
    EXPECT_EQ(p.num_pas(), 4);  // initial frames 0,1 plus Wpte target 3
}

TEST(Program, ValidationAcceptsFixtures)
{
    EXPECT_TRUE(fixtures::fig2a_sb_mcm().program.validate(false).empty());
    EXPECT_TRUE(fixtures::fig2b_sb_elt().program.validate().empty());
    EXPECT_TRUE(fixtures::fig2c_sb_elt_aliased().program.validate().empty());
    EXPECT_TRUE(fixtures::fig4_remap_chain().program.validate().empty());
    EXPECT_TRUE(fixtures::fig5a_shared_walk().program.validate().empty());
    EXPECT_TRUE(fixtures::fig5b_invlpg_forces_walk().program.validate().empty());
    EXPECT_TRUE(fixtures::fig6_remap_disambiguation().program.validate().empty());
    EXPECT_TRUE(fixtures::fig8_non_minimal_mcm().program.validate(false).empty());
    EXPECT_TRUE(fixtures::fig10a_ptwalk2().program.validate().empty());
    EXPECT_TRUE(fixtures::fig10b_dirtybit3().program.validate().empty());
    EXPECT_TRUE(fixtures::fig11_new_elt().program.validate().empty());
}

TEST(Program, ValidationRejectsWriteWithoutWdb)
{
    ProgramBuilder b;
    b.thread();
    const EventId w = b.W(0);
    b.rptw(w);  // walk but no dirty-bit update
    const Program p = b.build();
    EXPECT_FALSE(p.validate().empty());
}

TEST(Program, ValidationRejectsWpteWithoutInvlpg)
{
    ProgramBuilder b;
    b.thread();
    b.wpte(0, 1);  // no INVLPG anywhere
    const Program p = b.build();
    EXPECT_FALSE(p.validate().empty());
}

TEST(Program, ValidationRejectsInvlpgBeforeItsWpte)
{
    Program p;
    p.add_thread();
    Event inv{EventKind::kInvlpg, 0, 0, kNone, kNone, 1};
    p.add_event(inv);  // references the Wpte added next
    Event wpte{EventKind::kWpte, 0, 0, 1, kNone, kNone};
    p.add_event(wpte);
    EXPECT_FALSE(p.validate().empty());
}

TEST(Program, ValidationRejectsCrossVaRemap)
{
    ProgramBuilder b;
    b.thread();
    const EventId wpte = b.wpte(0, 1);
    const Program before = b.build();
    (void)before;
    Program p = b.build();
    Event inv{EventKind::kInvlpg, 0, /*va=*/1, kNone, kNone, wpte};
    p.add_event(inv);
    EXPECT_FALSE(p.validate().empty());
}

TEST(Program, ValidationRejectsNonAdjacentRmw)
{
    ProgramBuilder b;
    b.thread();
    const EventId r = b.R(0);
    const EventId rptw = b.rptw(r);
    (void)rptw;
    b.mfence();
    const EventId w = b.W(0);
    b.wdb(w);
    b.rmw(r, w);  // an MFENCE separates the pair
    const Program p = b.build();
    EXPECT_FALSE(p.validate().empty());
}

TEST(Program, ValidationCapsEventsAtTheBitRowWidth)
{
    const auto reads = [](int events) {
        ProgramBuilder b;
        b.thread();
        for (int i = 0; i < events; ++i) {
            b.R(i % 4);
        }
        return b.build();
    };
    const Program at_cap = reads(kMaxBitEvents);
    ASSERT_EQ(at_cap.num_events(), 64);
    EXPECT_TRUE(at_cap.validate(/*vm_enabled=*/true).empty());
    EXPECT_TRUE(at_cap.validate(/*vm_enabled=*/false).empty());
    const Program over = reads(kMaxBitEvents + 1);
    for (const bool vm : {true, false}) {
        const std::vector<std::string> problems = over.validate(vm);
        ASSERT_EQ(problems.size(), 1u);
        EXPECT_EQ(problems[0],
                  "program has 65 events; at most 64 are supported");
    }
    // derive marks the oversized program ill-formed, so no axiom sees it.
    EXPECT_TRUE(derive(Execution::empty_for(at_cap), {false}).well_formed);
    EXPECT_FALSE(derive(Execution::empty_for(over), {false}).well_formed);
}

TEST(Printer, ProgramTableMentionsEveryEvent)
{
    const Program p = fixtures::fig10a_ptwalk2().program;
    const std::string table = program_to_string(p);
    EXPECT_NE(table.find("WPTE0"), std::string::npos);
    EXPECT_NE(table.find("INVLPG1"), std::string::npos);
    EXPECT_NE(table.find("R2"), std::string::npos);
    EXPECT_NE(table.find("Rptw3"), std::string::npos);
}

TEST(Printer, EventToStringFormats)
{
    Event wpte{EventKind::kWpte, 0, 0, 2, kNone, kNone};
    EXPECT_EQ(event_to_string(5, wpte), "WPTE5 z = VA x -> PA c");
    Event inv{EventKind::kInvlpg, 0, 1, kNone, kNone, kNone};
    EXPECT_EQ(event_to_string(2, inv), "INVLPG2 y (spurious)");
}

TEST(Names, AddressNames)
{
    EXPECT_EQ(va_name(0), "x");
    EXPECT_EQ(va_name(1), "y");
    EXPECT_EQ(pte_name(0), "z");
    EXPECT_EQ(pte_name(1), "v");
    EXPECT_EQ(pa_name(0), "a");
    EXPECT_EQ(pa_name(2), "c");
}

}  // namespace
}  // namespace transform::elt
