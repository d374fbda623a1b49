#include "mtm/model.h"

#include <algorithm>

#include "util/logging.h"

namespace transform::mtm {

using elt::CycleScratch;
using elt::DerivedRelations;
using elt::EdgeSet;
using elt::Program;

namespace {

bool
acyclic(const Program& p, std::initializer_list<const EdgeSet*> parts)
{
    return !elt::has_cycle(p.num_events(), parts);
}

/// sc_per_loc: acyclic(rf + co + fr + po_loc).
Axiom
sc_per_loc_axiom()
{
    return {"sc_per_loc",
            "coherence: rf + co + fr + po_loc is acyclic per location",
            AxiomTag::kScPerLoc,
            [](const Program& p, const DerivedRelations& d,
               CycleScratch* scratch) {
                (void)scratch;
                return acyclic(p, {&d.rf, &d.co, &d.fr, &d.po_loc});
            }};
}

/// rmw_atomicity: fr.co does not intersect rmw.
Axiom
rmw_atomicity_axiom()
{
    return {"rmw_atomicity",
            "no same-address write intervenes inside an RMW (fr.co & rmw = 0)",
            AxiomTag::kRmwAtomicity,
            [](const Program& p, const DerivedRelations& d,
               CycleScratch* scratch) {
                (void)p;
                (void)scratch;
                for (const auto& [r, w] : d.rmw) {
                    // Does some w' exist with fr(r, w') and co(w', w)?
                    for (const auto& [fr_from, fr_to] : d.fr) {
                        if (fr_from != r) {
                            continue;
                        }
                        for (const auto& [co_from, co_to] : d.co) {
                            if (co_from == fr_to && co_to == w) {
                                return false;
                            }
                        }
                    }
                }
                return true;
            }};
}

/// causality: acyclic(rfe + co + fr + ppo + fence).
Axiom
causality_axiom(bool sequential_ppo)
{
    return {"causality",
            sequential_ppo
                ? "acyclic(rfe + co + fr + po + fence) (sequential consistency)"
                : "acyclic(rfe + co + fr + ppo + fence) (TSO ppo)",
            sequential_ppo ? AxiomTag::kCausalitySc : AxiomTag::kCausalityTso,
            [sequential_ppo](const Program& p, const DerivedRelations& d,
                             CycleScratch* scratch) {
                // For the SC variant the full extended program order between
                // memory events is preserved: ppo U (the pairs TSO drops) ==
                // po_loc-agnostic extended order. DerivedRelations keeps TSO
                // ppo; reconstruct full order by adding write->read pairs.
                if (!sequential_ppo) {
                    return acyclic(p,
                                   {&d.rfe, &d.co, &d.fr, &d.ppo, &d.fence});
                }
                CycleScratch local;
                if (scratch == nullptr) {
                    scratch = &local;
                }
                EdgeSet& full = scratch->tmp_edges;
                full.assign(d.ppo.begin(), d.ppo.end());
                for (elt::EventId a = 0; a < p.num_events(); ++a) {
                    for (elt::EventId b = 0; b < p.num_events(); ++b) {
                        if (a != b && elt::is_memory(p.event(a).kind) &&
                            elt::is_memory(p.event(b).kind) &&
                            p.precedes(a, b) &&
                            elt::is_write_like(p.event(a).kind) &&
                            elt::is_read_like(p.event(b).kind)) {
                            full.emplace_back(a, b);
                        }
                    }
                }
                return acyclic(p, {&d.rfe, &d.co, &d.fr, &full, &d.fence});
            }};
}

/// invlpg: acyclic(fr_va + ^po + remap).
Axiom
invlpg_axiom()
{
    return {"invlpg",
            "accesses after an INVLPG use the latest mapping: "
            "acyclic(fr_va + ^po + remap)",
            AxiomTag::kInvlpg,
            [](const Program& p, const DerivedRelations& d,
               CycleScratch* scratch) {
                (void)scratch;
                return acyclic(p, {&d.fr_va, &d.po, &d.remap});
            }};
}

/// tlb_causality: acyclic(ptw_source + com).
Axiom
tlb_causality_axiom()
{
    return {"tlb_causality",
            "diagnostic: acyclic(ptw_source + rf + co + fr)",
            AxiomTag::kTlbCausality,
            [](const Program& p, const DerivedRelations& d,
               CycleScratch* scratch) {
                (void)scratch;
                return acyclic(p, {&d.ptw_source, &d.rf, &d.co, &d.fr});
            }};
}

}  // namespace

Model::Model(std::string name, bool vm_aware, std::vector<Axiom> axioms)
    : name_(std::move(name)), vm_aware_(vm_aware), axioms_(std::move(axioms))
{
    TF_ASSERT(static_cast<int>(axioms_.size()) <= kMaxAxioms);
}

const Axiom*
Model::axiom(const std::string& name) const
{
    for (const Axiom& a : axioms_) {
        if (a.name == name) {
            return &a;
        }
    }
    return nullptr;
}

int
Model::axiom_index(const std::string& name) const
{
    for (std::size_t i = 0; i < axioms_.size(); ++i) {
        if (axioms_[i].name == name) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

AxiomMask
Model::violated_mask(const elt::Program& program,
                     const elt::DerivedRelations& d,
                     elt::CycleScratch* scratch) const
{
    AxiomMask mask = 0;
    for (std::size_t i = 0; i < axioms_.size(); ++i) {
        if (!axioms_[i].holds(program, d, scratch)) {
            mask |= AxiomMask{1} << i;
        }
    }
    return mask;
}

std::vector<std::string>
Model::mask_names(AxiomMask mask) const
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < axioms_.size(); ++i) {
        if (mask & (AxiomMask{1} << i)) {
            out.push_back(axioms_[i].name);
        }
    }
    return out;
}

std::vector<std::string>
Model::violated_axioms(const elt::Program& program,
                       const elt::DerivedRelations& d) const
{
    return mask_names(violated_mask(program, d));
}

std::vector<std::string>
Model::violated_axioms(const elt::Execution& e) const
{
    const elt::DerivedRelations d = elt::derive(e, derive_options());
    if (!d.well_formed) {
        return {"well_formed"};
    }
    return violated_axioms(e.program, d);
}

Model
x86tso()
{
    return Model("x86tso", /*vm_aware=*/false,
                 {sc_per_loc_axiom(), rmw_atomicity_axiom(),
                  causality_axiom(/*sequential_ppo=*/false)});
}

Model
x86t_elt()
{
    return Model("x86t_elt", /*vm_aware=*/true,
                 {sc_per_loc_axiom(), rmw_atomicity_axiom(),
                  causality_axiom(/*sequential_ppo=*/false), invlpg_axiom(),
                  tlb_causality_axiom()});
}

Model
sc_t_elt()
{
    return Model("sc_t_elt", /*vm_aware=*/true,
                 {sc_per_loc_axiom(), rmw_atomicity_axiom(),
                  causality_axiom(/*sequential_ppo=*/true), invlpg_axiom(),
                  tlb_causality_axiom()});
}

std::vector<std::string>
x86t_elt_axiom_names()
{
    return {"sc_per_loc", "rmw_atomicity", "causality", "invlpg",
            "tlb_causality"};
}

}  // namespace transform::mtm
