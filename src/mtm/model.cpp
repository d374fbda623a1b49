#include "mtm/model.h"

#include <bit>
#include <initializer_list>

#include "util/logging.h"

namespace transform::mtm {

using elt::BitRow;
using elt::BitRows;
using elt::CycleScratch;
using elt::DerivedRelations;
using elt::Program;

namespace {

/// acyclic(the union of \p parts), the parts ORed row by row.
bool
acyclic(const DerivedRelations& d, std::initializer_list<const BitRows*> parts)
{
    BitRow rows[elt::kMaxBitEvents] = {};
    for (int a = 0; a < d.num_events; ++a) {
        BitRow row = 0;
        for (const BitRows* part : parts) {
            row |= (*part)[a];
        }
        rows[a] = row;
    }
    return !elt::rows_have_cycle(rows, d.num_events);
}

/// sc_per_loc: acyclic(rf + co + fr + po_loc).
Axiom
sc_per_loc_axiom()
{
    return {"sc_per_loc",
            "coherence: rf + co + fr + po_loc is acyclic per location",
            AxiomTag::kScPerLoc,
            [](const Program&, const DerivedRelations& d, CycleScratch*) {
                return acyclic(d, {&d.rf, &d.co, &d.fr, &d.po_loc});
            }};
}

/// rmw_atomicity: fr.co does not intersect rmw.
Axiom
rmw_atomicity_axiom()
{
    return {"rmw_atomicity",
            "no same-address write intervenes inside an RMW (fr.co & rmw = 0)",
            AxiomTag::kRmwAtomicity,
            [](const Program&, const DerivedRelations& d, CycleScratch*) {
                // Row a of fr.co is the union of the co rows fr row a
                // selects; it must miss every rmw partner of a.
                for (int a = 0; a < d.num_events; ++a) {
                    if (d.rmw[a] == 0) {
                        continue;
                    }
                    BitRow joined = 0;
                    for (BitRow bits = d.fr[a]; bits != 0; bits &= bits - 1) {
                        joined |= d.co[std::countr_zero(bits)];
                    }
                    if ((joined & d.rmw[a]) != 0) {
                        return false;
                    }
                }
                return true;
            }};
}

/// causality: acyclic(rfe + co + fr + ppo + fence). The SC variant keeps
/// the full extended order over memory events, po_mem (ppo plus the
/// write -> read pairs TSO drops).
Axiom
causality_axiom(bool sequential_ppo)
{
    return {"causality",
            sequential_ppo
                ? "acyclic(rfe + co + fr + po + fence) (sequential consistency)"
                : "acyclic(rfe + co + fr + ppo + fence) (TSO ppo)",
            sequential_ppo ? AxiomTag::kCausalitySc : AxiomTag::kCausalityTso,
            [sequential_ppo](const Program&, const DerivedRelations& d,
                             CycleScratch*) {
                const BitRows& order = sequential_ppo ? d.po_mem : d.ppo;
                return acyclic(d, {&d.rfe, &d.co, &d.fr, &order, &d.fence});
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
            [](const Program&, const DerivedRelations& d, CycleScratch*) {
                return acyclic(d, {&d.fr_va, &d.po, &d.remap});
            }};
}

/// tlb_causality: acyclic(ptw_source + com).
Axiom
tlb_causality_axiom()
{
    return {"tlb_causality",
            "diagnostic: acyclic(ptw_source + rf + co + fr)",
            AxiomTag::kTlbCausality,
            [](const Program&, const DerivedRelations& d, CycleScratch*) {
                return acyclic(d, {&d.ptw_source, &d.rf, &d.co, &d.fr});
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
