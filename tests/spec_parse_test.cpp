/// \file
/// Tests for the `.mtm` specification frontend: lexer/parser happy paths,
/// positioned error diagnostics (the tools' exit-2 contract builds on
/// them), canonical printing, the parse-print-parse fixed point for every
/// zoo model, and the golden equality between the sources embedded in
/// spec/registry.cpp and the checked-in examples/models/*.mtm files.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "spec/ast.h"
#include "spec/parser.h"
#include "spec/printer.h"
#include "spec/registry.h"

namespace transform::spec {
namespace {

ModelSpec
parse_ok(const std::string& source)
{
    Diagnostic diag;
    const auto spec = parse_model(source, &diag);
    EXPECT_TRUE(spec.has_value()) << diag.to_string("<test>");
    return spec.value_or(ModelSpec{});
}

Diagnostic
parse_fail(const std::string& source)
{
    Diagnostic diag;
    const auto spec = parse_model(source, &diag);
    EXPECT_FALSE(spec.has_value())
        << "expected a parse failure, got model " << spec->name;
    return diag;
}

TEST(SpecParse, MinimalModel)
{
    const ModelSpec spec =
        parse_ok("model tiny\nvm off\naxiom only: acyclic(po)\n");
    EXPECT_EQ(spec.name, "tiny");
    EXPECT_FALSE(spec.vm);
    ASSERT_EQ(spec.axioms.size(), 1u);
    EXPECT_EQ(spec.axioms[0].name, "only");
    EXPECT_EQ(spec.axioms[0].form, AxiomForm::kAcyclic);
    ASSERT_NE(spec.axioms[0].expr, nullptr);
    EXPECT_EQ(spec.axioms[0].expr->op, ExprOp::kBase);
    EXPECT_EQ(spec.axioms[0].expr->base, BaseRel::kPo);
}

TEST(SpecParse, VmDefaultsOn)
{
    EXPECT_TRUE(parse_ok("model m\naxiom a: empty(0)\n").vm);
}

TEST(SpecParse, CommentsAndDescriptions)
{
    const ModelSpec spec = parse_ok(
        "// leading comment\n"
        "model m\n"
        "# hash comment\n"
        "axiom a \"words inside\": irreflexive(rf)  // trailing\n");
    ASSERT_EQ(spec.axioms.size(), 1u);
    EXPECT_EQ(spec.axioms[0].description, "words inside");
    EXPECT_EQ(spec.axioms[0].form, AxiomForm::kIrreflexive);
}

TEST(SpecParse, PrecedenceJoinOverIntersectOverUnion)
{
    // a | b & c ; d  parses as  a | (b & (c ; d)).
    const ModelSpec spec =
        parse_ok("model m\naxiom a: empty(rf | co & fr ; po)\n");
    const Expr& root = *spec.axioms[0].expr;
    ASSERT_EQ(root.op, ExprOp::kUnion);
    EXPECT_EQ(root.lhs->op, ExprOp::kBase);
    ASSERT_EQ(root.rhs->op, ExprOp::kIntersect);
    EXPECT_EQ(root.rhs->lhs->op, ExprOp::kBase);
    EXPECT_EQ(root.rhs->rhs->op, ExprOp::kJoin);
}

TEST(SpecParse, PostfixOperatorsAndSets)
{
    const ModelSpec spec = parse_ok(
        "model m\naxiom a: acyclic(([W] ; po ; [R])^+ | rf^-1 | co^*)\n");
    const Expr& root = *spec.axioms[0].expr;
    ASSERT_EQ(root.op, ExprOp::kUnion);
    ASSERT_EQ(root.lhs->op, ExprOp::kUnion);
    EXPECT_EQ(root.lhs->lhs->op, ExprOp::kClosure);
    EXPECT_EQ(root.lhs->rhs->op, ExprOp::kTranspose);
    EXPECT_EQ(root.rhs->op, ExprOp::kReflexiveClosure);
}

TEST(SpecParse, LetBindingsShareBodies)
{
    const ModelSpec spec = parse_ok(
        "model m\nlet com = rf | co | fr\n"
        "axiom a: acyclic(com | po)\naxiom b: empty(com & rmw)\n");
    ASSERT_EQ(spec.lets.size(), 1u);
    const Expr& a = *spec.axioms[0].expr->lhs;
    const Expr& b = *spec.axioms[1].expr->lhs;
    ASSERT_EQ(a.op, ExprOp::kLetRef);
    ASSERT_EQ(b.op, ExprOp::kLetRef);
    // One parse of the body, shared by every reference (DAG, not copies).
    EXPECT_EQ(a.lhs.get(), b.lhs.get());
    EXPECT_EQ(a.lhs.get(), spec.lets[0].expr.get());
}

// ---------------------------------------------------------------------------
// Diagnostics: every malformed input reports a positioned error.
// ---------------------------------------------------------------------------

TEST(SpecParse, UnknownRelationPositioned)
{
    const Diagnostic diag =
        parse_fail("model m\naxiom a: acyclic(rf | bogus)\n");
    EXPECT_EQ(diag.line, 2);
    EXPECT_EQ(diag.col, 23);
    EXPECT_NE(diag.message.find("bogus"), std::string::npos);
    EXPECT_EQ(diag.to_string("file.mtm"),
              "file.mtm:2:23: error: " + diag.message);
}

TEST(SpecParse, ErrorCatalogue)
{
    // Each entry: source, expected line, substring of the message.
    const struct {
        const char* source;
        int line;
        const char* needle;
    } cases[] = {
        {"", 1, "model"},
        {"model\n", 2, "model name"},  // EOF-positioned
        {"model m\n", 2, "no axioms"},
        {"model m\nvm maybe\n", 2, "'on' or 'off'"},
        {"model m\naxiom a acyclic(po)\n", 2, "':'"},
        {"model m\naxiom a: circular(po)\n", 2, "unknown axiom form"},
        {"model m\naxiom a: acyclic(po\n", 3, "')'"},
        {"model m\naxiom a: acyclic(po |)\n", 2, "expected a relation"},
        {"model m\naxiom a: acyclic([Q])\n", 2, "unknown event class"},
        {"model m\naxiom a: acyclic(W)\n", 2, "unknown relation"},
        {"model m\naxiom a: acyclic(po^)\n", 2, "'^+', '^*' or '^-1'"},
        {"model m\naxiom a: acyclic(po) axiom a: empty(0)\n", 2,
         "duplicate axiom"},
        {"model m\nlet x = po\nlet x = rf\n", 3, "duplicate let"},
        {"model m\nlet rf = po\n", 2, "base relation"},
        {"model m\naxiom a \"unclosed: acyclic(po)\n", 2,
         "unterminated string"},
        {"model m\naxiom a: acyclic(po) $\n", 2, "unexpected character"},
    };
    for (const auto& c : cases) {
        const Diagnostic diag = parse_fail(c.source);
        EXPECT_EQ(diag.line, c.line) << c.source;
        EXPECT_NE(diag.message.find(c.needle), std::string::npos)
            << c.source << " -> " << diag.message;
    }
}

// ---------------------------------------------------------------------------
// Printing: canonical output re-parses to the same tree (fixed point).
// ---------------------------------------------------------------------------

TEST(SpecPrint, MinimalParensReparseIdentically)
{
    // The canonical printer drops parentheses precedence already implies
    // and keeps the ones that change the parse.
    const ModelSpec spec = parse_ok(
        "model m\n"
        "axiom a: empty((fr ; co) & rmw)\n"
        "axiom b: acyclic((rf | co)^+)\n"
        "axiom c: empty(po \\ (po & rf))\n");
    EXPECT_EQ(expr_to_source(*spec.axioms[0].expr), "fr ; co & rmw");
    EXPECT_EQ(expr_to_source(*spec.axioms[1].expr), "(rf | co)^+");
    EXPECT_EQ(expr_to_source(*spec.axioms[2].expr), "po \\ (po & rf)");
}

TEST(SpecPrint, ReflexiveClosureRoundTrips)
{
    // `^*` prints back as itself (postfix level) and re-parses to the
    // same tree, parenthesized operand included.
    const ModelSpec spec = parse_ok(
        "model m\n"
        "axiom a: irreflexive(rf ; (co | fr)^*)\n"
        "axiom b: empty(po^* \\ po^+ \\ [M])\n");
    EXPECT_EQ(expr_to_source(*spec.axioms[0].expr), "rf ; (co | fr)^*");
    EXPECT_EQ(expr_to_source(*spec.axioms[1].expr), "po^* \\ po^+ \\ [M]");
    const std::string printed = model_to_source(spec);
    const ModelSpec reparsed = parse_ok(printed);
    EXPECT_EQ(model_to_source(reparsed), printed);
    EXPECT_EQ(reparsed.axioms[0].expr->rhs->op, ExprOp::kReflexiveClosure);
}

TEST(SpecPrint, RoundTripFixedPointForEveryZooModel)
{
    for (const RegistryEntry& entry : registry_entries()) {
        const ModelSpec first = parse_ok(entry.source);
        const std::string printed = model_to_source(first);
        const ModelSpec second = parse_ok(printed);
        const std::string reprinted = model_to_source(second);
        EXPECT_EQ(printed, reprinted) << entry.name;
        EXPECT_EQ(first.axioms.size(), second.axioms.size()) << entry.name;
        EXPECT_EQ(first.vm, second.vm) << entry.name;
    }
}

// ---------------------------------------------------------------------------
// Golden: the embedded registry sources ARE the checked-in zoo files.
// ---------------------------------------------------------------------------

TEST(SpecRegistry, EmbeddedSourcesMatchZooFiles)
{
    const std::filesystem::path zoo =
        std::filesystem::path(TRANSFORM_SOURCE_ROOT) / "examples" / "models";
    ASSERT_TRUE(std::filesystem::exists(zoo))
        << "zoo directory missing: " << zoo;
    for (const RegistryEntry& entry : registry_entries()) {
        const std::filesystem::path file = zoo / entry.name;
        ASSERT_TRUE(std::filesystem::exists(file)) << file;
        std::ifstream in(file);
        std::stringstream buffer;
        buffer << in.rdbuf();
        EXPECT_EQ(buffer.str(), entry.source)
            << entry.name << " drifted from the embedded registry source";
    }
    // And the zoo holds nothing unregistered.
    for (const auto& dirent : std::filesystem::directory_iterator(zoo)) {
        const std::string name = dirent.path().filename().string();
        bool registered = false;
        for (const RegistryEntry& entry : registry_entries()) {
            registered = registered || name == entry.name;
        }
        EXPECT_TRUE(registered) << name << " is not in spec/registry.cpp";
    }
}

TEST(SpecRegistry, ResolveTiers)
{
    std::string error;
    // Registry names resolve with or without the suffix; the predefined
    // models are registry entries too.
    for (const char* name : {"sc", "sc.mtm", "x86t_elt", "x86t_elt.mtm"}) {
        const auto zoo = resolve_model(name, &error);
        ASSERT_TRUE(zoo.has_value()) << error;
        const std::string stem =
            std::string(name).substr(0, std::string(name).find('.'));
        EXPECT_EQ(zoo->model.name(), stem);
        EXPECT_EQ(zoo->origin, "registry:" + stem + ".mtm");
        EXPECT_NE(zoo->model.source_spec(), nullptr);
    }
    // Unknown names fail with the catalogue in the message.
    EXPECT_FALSE(resolve_model("nope", &error).has_value());
    EXPECT_NE(error.find("unknown model"), std::string::npos);
    EXPECT_NE(error.find("x86t_elt"), std::string::npos);
}

}  // namespace
}  // namespace transform::spec
