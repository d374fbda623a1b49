/// \file
/// Memory transistency models as conjunctions of named axioms, and their
/// evaluation on candidate executions.
///
/// A model's *transistency predicate* is the conjunction of its axioms; an
/// execution is PERMITTED when every axiom holds and FORBIDDEN otherwise
/// (section II-A / V-A of the paper). Every model is a `.mtm`
/// specification compiled by spec::compile_model: each axiom carries its
/// parsed condition, which the SAT backend lowers to circuits, and that
/// condition lowered once to row operations, which the verdicts run. The
/// predefined models are the registry's embedded sources (spec/registry.h):
///  - x86tso():   sc_per_loc, rmw_atomicity, causality — the x86-TSO MCM;
///  - x86t_elt(): x86-TSO plus the transistency axioms invlpg and
///                tlb_causality — the paper's estimated x86 MTM;
///  - sc_t_elt(): a sequentially-consistent MTM (ppo = full po), provided
///                as the "define your own MTM" example.
///
/// Verdicts come in two forms: `violated_mask` — an axiom-index bitset,
/// the allocation-free fast path the synthesis engine judges millions of
/// candidates through — and the string API (`violated_axioms`), kept as a
/// shim over the mask for printers, tools and tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "elt/derive.h"
#include "elt/execution.h"

namespace transform::spec {
struct AxiomDef;
struct ModelSpec;
class RowProgram;
}  // namespace transform::spec

namespace transform::mtm {

/// Bitset of violated axioms, indexed by a model's axiom order: bit i set
/// means axioms()[i] is violated. 0 == the execution is permitted.
using AxiomMask = std::uint32_t;

/// Models hold at most this many axioms (the mask width).
inline constexpr int kMaxAxioms = 32;

/// One axiom of a transistency (or consistency) predicate. Both halves
/// are shared and immutable, so copying a Model is cheap and keeps them in
/// sync.
struct Axiom {
    std::string name;
    std::string description;
    /// The parsed condition (form + relational expression).
    std::shared_ptr<const spec::AxiomDef> def;
    /// def's expression lowered to row operations: what violated_mask runs.
    std::shared_ptr<const spec::RowProgram> program;
    /// When the axiom is `acyclic` over a plain union of base relations,
    /// those relations, one bit per spec::BaseRel (spec::base_union);
    /// otherwise 0. The minimality judge reads a violation's cycle off it.
    unsigned acyclic_union = 0;
};

/// A memory (transistency) model: a named conjunction of axioms.
class Model {
  public:
    Model(std::string name, bool vm_aware, std::vector<Axiom> axioms);

    const std::string& name() const { return name_; }

    /// True for MTMs (VM events modelled); false for plain MCMs.
    bool vm_aware() const { return vm_aware_; }

    const std::vector<Axiom>& axioms() const { return axioms_; }

    /// Finds an axiom by name (nullptr if absent).
    const Axiom* axiom(const std::string& name) const;

    /// Index of the named axiom in axioms() (-1 if absent) — the bit
    /// position the axiom occupies in an AxiomMask.
    int axiom_index(const std::string& name) const;

    /// Derivation options matching this model's VM-awareness.
    elt::DeriveOptions derive_options() const { return {vm_aware_}; }

    /// Bitset of the axioms the execution violates (0 => permitted). The
    /// allocation-free fast path: no strings are built, and a non-null
    /// \p scratch lends the row programs its slot arena. The execution
    /// must be well-formed (derive it first and check).
    AxiomMask violated_mask(const elt::Program& program,
                            const elt::DerivedRelations& d,
                            elt::CycleScratch* scratch = nullptr) const;

    /// True when the execution violates some axiom: violated_mask(...) != 0,
    /// but stops at the first violated axiom in axiom order. The judge's
    /// relaxed verdicts only need this bit. With \p survivors, the
    /// verdict is that of the execution \p d restricted to those events
    /// (spec::RowProgram::holds): \p d must then hold no pair touching
    /// another event.
    bool violates_any(const elt::Program& program,
                      const elt::DerivedRelations& d,
                      elt::CycleScratch* scratch = nullptr,
                      elt::BitRow survivors = elt::kAllEvents) const;

    /// Names for the set bits of \p mask, in axiom order.
    std::vector<std::string> mask_names(AxiomMask mask) const;

    /// Names of the axioms the execution violates (empty => permitted).
    /// String shim over violated_mask for printers/tools; the hot path
    /// uses the mask directly.
    std::vector<std::string> violated_axioms(
        const elt::Program& program, const elt::DerivedRelations& d) const;

    /// Convenience: derives and judges in one step. Ill-formed executions
    /// are reported as a violation of the pseudo-axiom "well_formed".
    std::vector<std::string> violated_axioms(const elt::Execution& e) const;

    /// True when every axiom holds (the transistency predicate).
    bool permits(const elt::Execution& e) const
    {
        return violated_axioms(e).empty();
    }

    /// The parsed `.mtm` specification this model was compiled from (null
    /// for copies made through the 3-arg constructor). Consulted only by
    /// the `.mtm` printer (mtm::model_to_mtm), which requires it.
    const std::shared_ptr<const spec::ModelSpec>& source_spec() const
    {
        return source_spec_;
    }
    void set_source_spec(std::shared_ptr<const spec::ModelSpec> spec)
    {
        source_spec_ = std::move(spec);
    }

  private:
    std::string name_;
    bool vm_aware_;
    std::vector<Axiom> axioms_;
    std::shared_ptr<const spec::ModelSpec> source_spec_;
};

/// The x86-TSO consistency model (sc_per_loc, rmw_atomicity, causality):
/// the registry's x86tso.mtm.
Model x86tso();

/// The paper's estimated x86 MTM: x86-TSO plus invlpg and tlb_causality
/// (x86t_elt.mtm).
Model x86t_elt();

/// A sequentially-consistent MTM (full ppo) with the transistency axioms —
/// the paper's vocabulary applied to a different base MCM (sc_t_elt.mtm).
Model sc_t_elt();

/// Names of the five x86t_elt axioms in the paper's order.
std::vector<std::string> x86t_elt_axiom_names();

}  // namespace transform::mtm
