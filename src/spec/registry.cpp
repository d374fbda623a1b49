#include "spec/registry.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "spec/compile.h"
#include "spec/parser.h"

namespace transform::spec {

namespace {

/// The embedded zoo. Each source is byte-identical to the checked-in file
/// examples/models/<name> (a golden test enforces it); the `+ 1` skips the
/// newline that opens each raw literal for readability.
const std::vector<RegistryEntry> kRegistry = {
    {"x86tso.mtm",
     "x86-TSO MCM (sc_per_loc, rmw_atomicity, causality)",
     R"MTM(
// x86-TSO, the baseline memory consistency model (paper section II-A):
// per-location coherence, RMW atomicity, and causality over the TSO
// preserved program order. This file is the library's x86tso model:
// mtm::x86tso() and `--model x86tso` compile it.
model x86tso
vm off

let com = rf | co | fr

axiom sc_per_loc "coherence: rf + co + fr + po_loc is acyclic per location":
  acyclic(com | po_loc)
axiom rmw_atomicity "no same-address write intervenes inside an RMW (fr.co & rmw = 0)":
  empty((fr ; co) & rmw)
axiom causality "acyclic(rfe + co + fr + ppo + fence) (TSO ppo)":
  acyclic(rfe | co | fr | ppo | fence)
)MTM" + 1},
    {"x86t_elt.mtm",
     "the paper's estimated x86 MTM (the default model)",
     R"MTM(
// x86t_elt — the paper's estimated x86 memory transistency model
// (section V): x86-TSO plus the transistency axioms invlpg and
// tlb_causality over the Table-I VM relations. This file is the library's
// default model: mtm::x86t_elt() and `--model x86t_elt` compile it.
model x86t_elt
vm on

let com = rf | co | fr

axiom sc_per_loc "coherence: rf + co + fr + po_loc is acyclic per location":
  acyclic(com | po_loc)
axiom rmw_atomicity "no same-address write intervenes inside an RMW (fr.co & rmw = 0)":
  empty((fr ; co) & rmw)
axiom causality "acyclic(rfe + co + fr + ppo + fence) (TSO ppo)":
  acyclic(rfe | co | fr | ppo | fence)
axiom invlpg "accesses after an INVLPG use the latest mapping: acyclic(fr_va + ^po + remap)":
  acyclic(fr_va | po | remap)
axiom tlb_causality "diagnostic: acyclic(ptw_source + rf + co + fr)":
  acyclic(ptw_source | com)
)MTM" + 1},
    {"sc_t_elt.mtm",
     "sequentially-consistent MTM (full program order)",
     R"MTM(
// sc_t_elt — a sequentially-consistent MTM: the paper's transistency
// vocabulary applied to an SC base model (the "define your own MTM"
// example). The causality axiom preserves the full extended program order
// over memory events (po_mem), ghosts included. mtm::sc_t_elt() and
// `--model sc_t_elt` compile this file.
model sc_t_elt
vm on

let com = rf | co | fr

axiom sc_per_loc "coherence: rf + co + fr + po_loc is acyclic per location":
  acyclic(com | po_loc)
axiom rmw_atomicity "no same-address write intervenes inside an RMW (fr.co & rmw = 0)":
  empty((fr ; co) & rmw)
axiom causality "acyclic(rfe + co + fr + po + fence) (sequential consistency)":
  acyclic(rfe | co | fr | po_mem | fence)
axiom invlpg "accesses after an INVLPG use the latest mapping: acyclic(fr_va + ^po + remap)":
  acyclic(fr_va | po | remap)
axiom tlb_causality "diagnostic: acyclic(ptw_source + rf + co + fr)":
  acyclic(ptw_source | com)
)MTM" + 1},
    {"sc.mtm",
     "sequential consistency as a plain MCM",
     R"MTM(
// Sequential consistency as a plain MCM (no VM modelling): every memory
// event takes effect in the extended program order, so even the classic
// store-buffering (SB) reordering is forbidden. The strongest baseline in
// the zoo and the smallest useful example of a from-scratch model file.
model sc
vm off

axiom sc_per_loc "coherence: rf + co + fr + po_loc is acyclic per location":
  acyclic(rf | co | fr | po_loc)
axiom rmw_atomicity "no same-address write intervenes inside an RMW (fr.co & rmw = 0)":
  empty((fr ; co) & rmw)
axiom causality "acyclic(rfe + co + fr + po_mem + fence) (sequential consistency)":
  acyclic(rfe | co | fr | po_mem | fence)
)MTM" + 1},
    {"pso.mtm",
     "PSO-style MCM: TSO with W->W ordering relaxed",
     R"MTM(
// A PSO-style weakening of x86-TSO: the store buffer may also reorder
// write->write pairs, so the preserved program order drops W->W edges on
// top of TSO's W->R. The ppo_pso definition shows the relaxed-ppo pattern:
// carve pairs out of a stronger order with set brackets and difference.
model pso
vm off

let ppo_pso = ppo \ ([W] ; po_mem ; [W])

axiom sc_per_loc "coherence: rf + co + fr + po_loc is acyclic per location":
  acyclic(rf | co | fr | po_loc)
axiom rmw_atomicity "no same-address write intervenes inside an RMW (fr.co & rmw = 0)":
  empty((fr ; co) & rmw)
axiom causality "acyclic(rfe + co + fr + ppo_pso + fence) (W->R and W->W relaxed)":
  acyclic(rfe | co | fr | ppo_pso | fence)
)MTM" + 1},
    {"pso_t_elt.mtm",
     "transistency axioms over the PSO base",
     R"MTM(
// pso_t_elt — transistency over a PSO-style base: the x86t_elt VM axioms
// (invlpg, tlb_causality) kept intact while the consistency causality
// relaxes both W->R and W->W ordering. A synthesis workload no other zoo
// model covers: ELTs that survive the weaker store ordering.
model pso_t_elt
vm on

let com = rf | co | fr
let ppo_pso = ppo \ ([W] ; po_mem ; [W])

axiom sc_per_loc "coherence: rf + co + fr + po_loc is acyclic per location":
  acyclic(com | po_loc)
axiom rmw_atomicity "no same-address write intervenes inside an RMW (fr.co & rmw = 0)":
  empty((fr ; co) & rmw)
axiom causality "acyclic(rfe + co + fr + ppo_pso + fence) (W->R and W->W relaxed)":
  acyclic(rfe | co | fr | ppo_pso | fence)
axiom invlpg "accesses after an INVLPG use the latest mapping: acyclic(fr_va + ^po + remap)":
  acyclic(fr_va | po | remap)
axiom tlb_causality "diagnostic: acyclic(ptw_source + rf + co + fr)":
  acyclic(ptw_source | com)
)MTM" + 1},
    {"x86t_elt_weak_tlb.mtm",
     "x86t_elt with tlb_causality weakened to cross-thread rf",
     R"MTM(
// x86t_elt with a weakened tlb_causality: only cross-thread communication
// (rfe instead of full rf) constrains reuse of a shared TLB entry, so
// same-thread stale-translation chains that x86t_elt forbids become
// permitted. Synthesizing this variant shows which ELTs in the x86t_elt
// tlb_causality suite depend on same-thread reads-from edges.
model x86t_elt_weak_tlb
vm on

let com = rf | co | fr

axiom sc_per_loc "coherence: rf + co + fr + po_loc is acyclic per location":
  acyclic(com | po_loc)
axiom rmw_atomicity "no same-address write intervenes inside an RMW (fr.co & rmw = 0)":
  empty((fr ; co) & rmw)
axiom causality "acyclic(rfe + co + fr + ppo + fence) (TSO ppo)":
  acyclic(rfe | co | fr | ppo | fence)
axiom invlpg "accesses after an INVLPG use the latest mapping: acyclic(fr_va + ^po + remap)":
  acyclic(fr_va | po | remap)
axiom tlb_causality "weakened: acyclic(ptw_source + rfe + co + fr) - same-thread rf unconstrained":
  acyclic(ptw_source | rfe | co | fr)
)MTM" + 1},
    {"x86tso_star.mtm",
     "x86-TSO with causality stated via reflexive closure (^* exercise)",
     R"MTM(
// x86tso_star - x86-TSO with the causality axiom restated through the
// reflexive-transitive closure: acyclic(x) is equivalent to
// irreflexive(x ; x^*) because x ; x^* = x^+. Semantically identical to
// x86tso.mtm; it exists to exercise the `^*` operator end-to-end (parse,
// concrete evaluation, symbolic lowering) in every zoo sweep.
model x86tso_star
vm off

let com = rf | co | fr
let tso = rfe | co | fr | ppo | fence

axiom sc_per_loc "coherence: rf + co + fr + po_loc is acyclic per location":
  acyclic(com | po_loc)
axiom rmw_atomicity "no same-address write intervenes inside an RMW (fr.co & rmw = 0)":
  empty((fr ; co) & rmw)
axiom causality "irreflexive(tso ; tso^*), i.e. acyclic(tso), via reflexive closure":
  irreflexive(tso ; tso^*)
)MTM" + 1},
    {"x86t_elt_fence_invlpg.mtm",
     "x86t_elt with invlpg ordering only through fences",
     R"MTM(
// x86t_elt with a weakened invlpg axiom: program order alone no longer
// orders accesses around remaps - only MFENCE-separated pairs do. A
// hypothetical aggressive TLB that keeps serving stale entries until a
// fence; its suites expose exactly the ELTs whose forbidden outcome
// hinges on unfenced program order after an INVLPG.
model x86t_elt_fence_invlpg
vm on

let com = rf | co | fr

axiom sc_per_loc "coherence: rf + co + fr + po_loc is acyclic per location":
  acyclic(com | po_loc)
axiom rmw_atomicity "no same-address write intervenes inside an RMW (fr.co & rmw = 0)":
  empty((fr ; co) & rmw)
axiom causality "acyclic(rfe + co + fr + ppo + fence) (TSO ppo)":
  acyclic(rfe | co | fr | ppo | fence)
axiom invlpg "weakened: acyclic(fr_va + fence + remap) - only fences order around remaps":
  acyclic(fr_va | fence | remap)
axiom tlb_causality "diagnostic: acyclic(ptw_source + rf + co + fr)":
  acyclic(ptw_source | com)
)MTM" + 1},
};

std::optional<ResolvedModel>
compile_source(const std::string& source, const std::string& origin,
               std::string* error)
{
    Diagnostic diag;
    const std::optional<ModelSpec> spec = parse_model(source, &diag);
    if (!spec.has_value()) {
        if (error != nullptr) {
            *error = diag.to_string(origin);
        }
        return std::nullopt;
    }
    return ResolvedModel{compile_model(*spec), origin};
}

}  // namespace

const std::vector<RegistryEntry>&
registry_entries()
{
    return kRegistry;
}

std::optional<ResolvedModel>
resolve_model(const std::string& name_or_path, std::string* error)
{
    for (const RegistryEntry& entry : kRegistry) {
        if (name_or_path == entry.name ||
            name_or_path + ".mtm" == entry.name) {
            return compile_source(entry.source,
                                  std::string("registry:") + entry.name,
                                  error);
        }
    }
    std::error_code ec;
    if (std::filesystem::exists(name_or_path, ec)) {
        std::ifstream in(name_or_path);
        if (!in) {
            if (error != nullptr) {
                *error = "cannot read " + name_or_path;
            }
            return std::nullopt;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        return compile_source(buffer.str(), name_or_path, error);
    }
    if (error != nullptr) {
        std::ostringstream out;
        out << "unknown model '" << name_or_path
            << "' (not a registry entry or a readable .mtm file)\n";
        out << list_models_text();
        *error = out.str();
    }
    return std::nullopt;
}

std::string
list_models_text()
{
    std::ostringstream out;
    out << "registry models (.mtm specifications; addressable with or "
           "without the suffix; x86t_elt is the default):\n";
    for (const RegistryEntry& entry : kRegistry) {
        out << "  " << entry.name << "\n      " << entry.summary << "\n";
    }
    out << "or any path to a .mtm file (see docs/models.md for the "
           "language)\n";
    return out.str();
}

}  // namespace transform::spec
