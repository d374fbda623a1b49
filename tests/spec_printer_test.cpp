/// \file
/// Tests for the Alloy-style specification emitter.
#include <gtest/gtest.h>

#include <cctype>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "mtm/model.h"
#include "mtm/spec_printer.h"
#include "spec/ast.h"
#include "spec/compile.h"
#include "spec/parser.h"
#include "spec/registry.h"

namespace transform::mtm {
namespace {

TEST(SpecPrinter, VocabularyMentionsEveryTableIElement)
{
    const std::string vocab = vocabulary_to_alloy();
    for (const char* element :
         {"MemoryEvent", "Read", "Write", "Wpte", "Invlpg", "Rptw", "Wdb",
          "rf_ptw", "rf_pa", "co_pa", "fr_pa", "fr_va", "remap",
          "ptw_source", "po", "address"}) {
        EXPECT_NE(vocab.find(element), std::string::npos)
            << "missing " << element;
    }
}

TEST(SpecPrinter, X86tEltModuleHasEveryAxiom)
{
    const std::string module = model_to_alloy(x86t_elt());
    EXPECT_NE(module.find("module transform/x86t_elt"), std::string::npos);
    for (const std::string& axiom : x86t_elt_axiom_names()) {
        EXPECT_NE(module.find("pred " + axiom), std::string::npos);
    }
    EXPECT_NE(module.find("x86t_elt_predicate"), std::string::npos);
    // The formal bodies.
    EXPECT_NE(module.find("acyclic[rf + co + fr + po_loc]"),
              std::string::npos);
    EXPECT_NE(module.find("acyclic[fr_va + ^po + remap]"), std::string::npos);
    EXPECT_NE(module.find("acyclic[ptw_source + rf + co + fr]"),
              std::string::npos);
    EXPECT_NE(module.find("no (fr.co & rmw)"), std::string::npos);
}

TEST(SpecPrinter, McmModuleLacksVmAxioms)
{
    const std::string module = model_to_alloy(x86tso());
    EXPECT_EQ(module.find("pred invlpg"), std::string::npos);
    EXPECT_EQ(module.find("pred tlb_causality"), std::string::npos);
    EXPECT_NE(module.find("consistency"), std::string::npos);
}

TEST(SpecPrinter, AxiomPredicatesCloseOnTheirLine)
{
    // A `--` comment after a body would swallow the closing brace.
    const std::string module = model_to_alloy(x86t_elt());
    EXPECT_NE(module.find("pred causality { acyclic[rfe + co + fr + ppo + "
                          "fence] }\n"),
              std::string::npos);
}

/// The identifiers of \p text, in order.
std::vector<std::string>
identifiers(const std::string& text)
{
    std::vector<std::string> out;
    std::string current;
    for (const char c : text + " ") {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
            current += c;
        } else if (!current.empty()) {
            out.push_back(current);
            current.clear();
        }
    }
    return out;
}

/// The names \p module declares: every sig, fun and pred, and every field
/// (a name followed by `:`), comments skipped.
std::set<std::string>
declared_names(const std::string& module)
{
    const std::string code = std::regex_replace(
        module, std::regex(R"(//[^\n]*|/\*[\s\S]*?\*/)"), " ");
    std::set<std::string> names;
    for (const std::regex& declaration :
         {std::regex(R"((?:sig|fun|pred)\s+(\w+))"),
          std::regex(R"((\w+)\s*:)")}) {
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            declaration);
             it != std::sregex_iterator(); ++it) {
            names.insert((*it)[1]);
        }
    }
    return names;
}

/// A model with one axiom over every base relation and event class.
Model
every_name_model()
{
    std::string source = "model every_name\nvm on\n\naxiom all: acyclic(";
    for (int rel = 0; rel <= static_cast<int>(spec::BaseRel::kPtwSource);
         ++rel) {
        source += spec::base_rel_name(static_cast<spec::BaseRel>(rel));
        source += " | ";
    }
    for (int set = 0; set <= static_cast<int>(spec::EventSet::kUser); ++set) {
        source += "[";
        source += spec::event_set_name(static_cast<spec::EventSet>(set));
        source += "] | ";
    }
    source += "0)\n";
    spec::Diagnostic diag;
    const auto parsed = spec::parse_model(source, &diag);
    EXPECT_TRUE(parsed.has_value()) << diag.to_string("<every_name>");
    return spec::compile_model(parsed.value());
}

TEST(SpecPrinter, PredicatesUseAlloyOperatorsAndDeclaredNames)
{
    // Each axiom's one-line `pred`: Alloy's operators only, no comment, no
    // `let` name, and every identifier one of Alloy's own words or
    // declared in the module.
    std::vector<Model> models{every_name_model()};
    for (const spec::RegistryEntry& entry : spec::registry_entries()) {
        std::string error;
        const auto resolved = spec::resolve_model(entry.name, &error);
        ASSERT_TRUE(resolved.has_value()) << error;
        models.push_back(resolved->model);
    }
    for (const Model& model : models) {
        const std::string text = model_to_alloy(model);
        std::set<std::string> known = declared_names(text);
        known.insert({"no", "none", "iden", "acyclic", "irreflexive"});
        std::istringstream module(text);
        std::size_t bodies = 0;
        for (std::string line; std::getline(module, line);) {
            const std::size_t open = line.find(" { ");
            if (line.rfind("pred ", 0) != 0 || open == std::string::npos) {
                continue;
            }
            ASSERT_GE(line.size(), open + 5) << line;
            ASSERT_EQ(line.substr(line.size() - 2), " }") << line;
            const std::string body =
                line.substr(open + 3, line.size() - open - 5);
            ++bodies;
            EXPECT_EQ(body.find('|'), std::string::npos) << line;
            EXPECT_EQ(body.find(';'), std::string::npos) << line;
            EXPECT_EQ(body.find("--"), std::string::npos) << line;
            for (const std::string& name : identifiers(body)) {
                for (const auto& let : model.source_spec()->lets) {
                    EXPECT_NE(name, let.name) << model.name() << ": " << line;
                }
                EXPECT_EQ(known.count(name), 1U)
                    << model.name() << ": " << name << " is undeclared in "
                    << line;
            }
        }
        EXPECT_EQ(bodies, model.axioms().size()) << model.name();
    }
}

TEST(SpecPrinter, ScVariantUsesFullProgramOrder)
{
    const std::string module = model_to_alloy(sc_t_elt());
    EXPECT_NE(module.find("sequential consistency"), std::string::npos);
}

}  // namespace
}  // namespace transform::mtm
