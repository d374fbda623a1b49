/// \file
/// Differential tests for the bit-row verdict kernel: elt::rows_have_cycle
/// and every operator of the lowered `.mtm` interpreter (spec/eval.h)
/// against plain references kept here — a colored DFS over adjacency lists
/// and an evaluator over sorted, duplicate-free edge vectors. Relations are
/// seeded random edge lists with self-loops and duplicate edges, at sizes
/// up to the 64-event cap, where the live-node mask is the full word.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "elt/derive.h"
#include "elt/program.h"
#include "mtm/model.h"
#include "spec/ast.h"
#include "spec/compile.h"
#include "spec/eval.h"

namespace transform {
namespace {

using elt::BitRow;
using elt::BitRows;
using elt::DerivedRelations;
using elt::Edge;
using elt::EdgeSet;
using elt::EventId;
using spec::BaseRel;
using spec::EventSet;
using spec::Expr;
using spec::ExprOp;
using spec::ExprPtr;

constexpr int kSizes[] = {1, 2, 5, 63, 64};

/// About 2n random edges over n nodes, each duplicated with probability
/// 1/4, plus one self-loop in a quarter of the draws.
EdgeSet
random_edges(std::mt19937& rng, int n)
{
    std::uniform_int_distribution<int> node(0, n - 1);
    std::uniform_int_distribution<int> count(0, 2 * n);
    std::uniform_int_distribution<int> quarter(0, 3);
    EdgeSet edges;
    for (int i = count(rng); i > 0; --i) {
        const EventId from = node(rng);
        edges.emplace_back(from, node(rng));
        if (quarter(rng) == 0) {
            edges.push_back(edges.back());
        }
    }
    if (quarter(rng) == 0) {
        const EventId loop = node(rng);
        edges.emplace_back(loop, loop);
    }
    std::shuffle(edges.begin(), edges.end(), rng);
    return edges;
}

/// Edges that only go forward in a random order of the n nodes (a DAG),
/// with duplicates; adding any backward edge may close a cycle.
EdgeSet
random_dag(std::mt19937& rng, int n, const std::vector<int>& order)
{
    EdgeSet edges = random_edges(rng, n);
    EdgeSet forward;
    for (const auto& [a, b] : edges) {
        if (order[a] < order[b]) {
            forward.emplace_back(a, b);
        } else if (order[b] < order[a]) {
            forward.emplace_back(b, a);
        }
    }
    return forward;
}

bool
reference_has_cycle(int n, const std::vector<const EdgeSet*>& sets)
{
    std::vector<std::vector<int>> successors(n);
    for (const EdgeSet* set : sets) {
        for (const auto& [from, to] : *set) {
            successors[from].push_back(to);
        }
    }
    std::vector<int> color(n, 0);  // 0 white, 1 on the stack, 2 done
    std::function<bool(int)> visit = [&](int node) {
        color[node] = 1;
        for (const int next : successors[node]) {
            if (color[next] == 1 || (color[next] == 0 && visit(next))) {
                return true;
            }
        }
        color[node] = 2;
        return false;
    };
    for (int node = 0; node < n; ++node) {
        if (color[node] == 0 && visit(node)) {
            return true;
        }
    }
    return false;
}

/// The union of \p sets as adjacency rows.
BitRows
rows_of(const std::vector<const EdgeSet*>& sets)
{
    BitRows rows{};
    for (const EdgeSet* set : sets) {
        for (const auto& [from, to] : *set) {
            rows[from] |= BitRow{1} << to;
        }
    }
    return rows;
}

bool
rows_cyclic(int n, const std::vector<const EdgeSet*>& sets)
{
    return elt::rows_have_cycle(rows_of(sets).data(), n);
}

TEST(KernelDiff, RowsHaveCycleMatchesReferenceDfs)
{
    std::mt19937 rng(20201);
    for (const int n : kSizes) {
        std::vector<int> order(n);
        for (int i = 0; i < n; ++i) {
            order[i] = i;
        }
        int cyclic = 0;
        int acyclic = 0;
        for (int trial = 0; trial < 400; ++trial) {
            std::shuffle(order.begin(), order.end(), rng);
            // Mostly DAGs in a random node order, some with random (often
            // cycle-closing) edges or a self-loop added.
            const EdgeSet dag = random_dag(rng, n, order);
            EdgeSet extra;
            switch (trial % 4) {
            case 0: break;
            case 1: extra = random_edges(rng, n); break;
            case 2: extra.emplace_back(trial % n, trial % n); break;
            default:
                if (!dag.empty()) {
                    const Edge& e = dag[trial % dag.size()];
                    extra.emplace_back(e.second, e.first);
                }
                break;
            }
            const std::vector<const EdgeSet*> sets = {&dag, &extra, &dag};
            const bool expected = reference_has_cycle(n, sets);
            EXPECT_EQ(rows_cyclic(n, sets), expected)
                << "n=" << n << " trial=" << trial;
            ++(expected ? cyclic : acyclic);
        }
        // Both verdicts occur at every size, so neither side is vacuous.
        EXPECT_GT(cyclic, 0) << n;
        EXPECT_GT(acyclic, 0) << n;
    }
}

TEST(KernelDiff, FullWordCycleThroughEveryNode)
{
    // A 64-node ring is cyclic and only becomes acyclic when any one edge
    // goes: every node, including bit 63, must take part in the peeling.
    EdgeSet ring;
    for (EventId a = 0; a < elt::kMaxBitEvents; ++a) {
        ring.emplace_back(a, (a + 1) % elt::kMaxBitEvents);
    }
    EXPECT_TRUE(rows_cyclic(elt::kMaxBitEvents, {&ring}));
    for (std::size_t cut = 0; cut < ring.size(); ++cut) {
        EdgeSet path = ring;
        path.erase(path.begin() + static_cast<std::ptrdiff_t>(cut));
        EXPECT_FALSE(rows_cyclic(elt::kMaxBitEvents, {&path})) << cut;
    }
    const EdgeSet top_loop = {{63, 63}};
    EXPECT_TRUE(rows_cyclic(elt::kMaxBitEvents, {&top_loop}));
    EXPECT_FALSE(rows_cyclic(elt::kMaxBitEvents, {}));
}

// ---------------------------------------------------------------------------
// The interpreter against a sorted-edge-vector reference.
// ---------------------------------------------------------------------------

constexpr BaseRel kBases[] = {
    BaseRel::kPo,    BaseRel::kPoLoc, BaseRel::kPoMem,  BaseRel::kRf,
    BaseRel::kRfe,   BaseRel::kCo,    BaseRel::kFr,     BaseRel::kPpo,
    BaseRel::kFence, BaseRel::kRmw,   BaseRel::kGhost,  BaseRel::kRfPtw,
    BaseRel::kRfPa,  BaseRel::kCoPa,  BaseRel::kFrPa,   BaseRel::kFrVa,
    BaseRel::kRemap, BaseRel::kPtwSource,
};

constexpr EventSet kSets[] = {
    EventSet::kRead, EventSet::kWrite, EventSet::kMemory, EventSet::kData,
    EventSet::kPte,  EventSet::kFence, EventSet::kWpte,   EventSet::kInvlpg,
    EventSet::kRptw, EventSet::kWdb,   EventSet::kRdb,    EventSet::kGhost,
    EventSet::kUser,
};

/// A program of exactly n events over three threads with a random mix of
/// kinds, ghosts included. It need not be well-formed: the interpreter only
/// reads event kinds and program order.
elt::Program
random_program(std::mt19937& rng, int n)
{
    std::uniform_int_distribution<int> kind(0, 7);
    elt::ProgramBuilder b;
    b.thread();
    int threads = 1;
    int events = 0;
    while (events < n) {
        if (threads < 3 && events > 0 && events >= threads * n / 3) {
            b.thread();
            ++threads;
        }
        switch (kind(rng)) {
        case 0:
        case 1: {
            const EventId r = b.R(events % 3);
            if (events + 2 <= n && kind(rng) < 4) {
                b.rptw(r);
                ++events;
            }
            break;
        }
        case 2:
        case 3: {
            const EventId w = b.W(events % 3);
            if (events + 2 <= n && kind(rng) < 4) {
                b.wdb(w);
                ++events;
            }
            break;
        }
        case 4: b.mfence(); break;
        case 5: b.wpte(events % 3, 1 + events % 2); break;
        case 6: b.invlpg(events % 3); break;
        default: b.invlpg_all(); break;
        }
        ++events;
    }
    elt::Program p = b.build();
    EXPECT_EQ(p.num_events(), n);
    return p;
}

/// Every relation field of \p d.
std::vector<BitRows*>
relation_fields(DerivedRelations* d)
{
    return {&d->po,    &d->po_loc, &d->po_mem, &d->rf,     &d->co,
            &d->fr,    &d->rfe,    &d->ppo,    &d->fence,  &d->rmw,
            &d->ghost, &d->rf_ptw, &d->rf_pa,  &d->co_pa,  &d->fr_pa,
            &d->fr_va, &d->remap,  &d->ptw_source};
}

/// Every base-relation field filled with random edges.
DerivedRelations
random_derived(std::mt19937& rng, int n)
{
    DerivedRelations d;
    d.well_formed = true;
    d.num_events = n;
    for (BitRows* field : relation_fields(&d)) {
        const EdgeSet edges = random_edges(rng, n);
        *field = rows_of({&edges});
    }
    return d;
}

EdgeSet
normalized(EdgeSet edges)
{
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
}

/// (lhs ; rhs) from sorted inputs: the rhs pairs starting where each lhs
/// pair ends.
EdgeSet
reference_join(const EdgeSet& lhs, const EdgeSet& rhs)
{
    EdgeSet out;
    for (const auto& [a, b] : lhs) {
        auto it = std::lower_bound(rhs.begin(), rhs.end(), Edge{b, 0});
        for (; it != rhs.end() && it->first == b; ++it) {
            out.emplace_back(a, it->second);
        }
    }
    return normalized(out);
}

/// The reference evaluator: sorted, duplicate-free edge vectors and the
/// textbook definition of every operator.
struct Reference {
    const elt::Program& p;
    const elt::DerivedRelations& d;

    EdgeSet
    base(BaseRel rel) const
    {
        const auto edges = [this](const BitRows& rows) {
            return elt::edges_of(rows, p.num_events());
        };
        switch (rel) {
        case BaseRel::kPo: return edges(d.po);
        case BaseRel::kPoLoc: return edges(d.po_loc);
        case BaseRel::kPoMem: return edges(d.po_mem);
        case BaseRel::kRf: return edges(d.rf);
        case BaseRel::kRfe: return edges(d.rfe);
        case BaseRel::kCo: return edges(d.co);
        case BaseRel::kFr: return edges(d.fr);
        case BaseRel::kPpo: return edges(d.ppo);
        case BaseRel::kFence: return edges(d.fence);
        case BaseRel::kRmw: return edges(d.rmw);
        case BaseRel::kGhost: return edges(d.ghost);
        case BaseRel::kRfPtw: return edges(d.rf_ptw);
        case BaseRel::kRfPa: return edges(d.rf_pa);
        case BaseRel::kCoPa: return edges(d.co_pa);
        case BaseRel::kFrPa: return edges(d.fr_pa);
        case BaseRel::kFrVa: return edges(d.fr_va);
        case BaseRel::kRemap: return edges(d.remap);
        case BaseRel::kPtwSource: return edges(d.ptw_source);
        }
        ADD_FAILURE() << "unknown base relation";
        return {};
    }

    /// r^+ as the fixpoint of r := r | (r ; r).
    static EdgeSet
    closure(EdgeSet r)
    {
        for (;;) {
            EdgeSet next;
            const EdgeSet step = reference_join(r, r);
            std::set_union(r.begin(), r.end(), step.begin(), step.end(),
                           std::back_inserter(next));
            if (next.size() == r.size()) {
                return r;
            }
            r = std::move(next);
        }
    }

    EdgeSet
    eval(const Expr& e) const
    {
        const int n = p.num_events();
        EdgeSet out;
        switch (e.op) {
        case ExprOp::kBase: return base(e.base);
        case ExprOp::kEmpty: return out;
        case ExprOp::kIdSet:
            for (EventId a = 0; a < n; ++a) {
                if (spec::event_in_set(e.set, p.event(a).kind)) {
                    out.emplace_back(a, a);
                }
            }
            return out;
        case ExprOp::kUnion: {
            const EdgeSet l = eval(*e.lhs), r = eval(*e.rhs);
            std::set_union(l.begin(), l.end(), r.begin(), r.end(),
                           std::back_inserter(out));
            return out;
        }
        case ExprOp::kIntersect: {
            const EdgeSet l = eval(*e.lhs), r = eval(*e.rhs);
            std::set_intersection(l.begin(), l.end(), r.begin(), r.end(),
                                  std::back_inserter(out));
            return out;
        }
        case ExprOp::kMinus: {
            const EdgeSet l = eval(*e.lhs), r = eval(*e.rhs);
            std::set_difference(l.begin(), l.end(), r.begin(), r.end(),
                                std::back_inserter(out));
            return out;
        }
        case ExprOp::kJoin: return reference_join(eval(*e.lhs), eval(*e.rhs));
        case ExprOp::kTranspose:
            for (const auto& [a, b] : eval(*e.lhs)) {
                out.emplace_back(b, a);
            }
            return normalized(out);
        case ExprOp::kClosure: return closure(eval(*e.lhs));
        case ExprOp::kReflexiveClosure:
            out = closure(eval(*e.lhs));
            for (EventId a = 0; a < n; ++a) {
                out.emplace_back(a, a);
            }
            return normalized(out);
        case ExprOp::kLetRef: return eval(*e.lhs);
        }
        ADD_FAILURE() << "unknown expression op";
        return out;
    }
};

ExprPtr
leaf(BaseRel rel)
{
    auto e = std::make_shared<Expr>();
    e->op = ExprOp::kBase;
    e->base = rel;
    return e;
}

ExprPtr
node(ExprOp op, ExprPtr lhs, ExprPtr rhs = nullptr)
{
    auto e = std::make_shared<Expr>();
    e->op = op;
    e->lhs = std::move(lhs);
    e->rhs = std::move(rhs);
    return e;
}

ExprPtr
id_set(EventSet set)
{
    auto e = std::make_shared<Expr>();
    e->op = ExprOp::kIdSet;
    e->set = set;
    return e;
}

ExprPtr
let_ref(ExprPtr body)
{
    auto ref = std::make_shared<Expr>();
    ref->op = ExprOp::kLetRef;
    ref->lhs = std::move(body);
    ref->let_name = "shared";
    return ref;
}

ExprPtr
random_leaf(std::mt19937& rng)
{
    switch (rng() % 8) {
    case 0: return node(ExprOp::kEmpty, nullptr);
    case 1:
    case 2: return id_set(kSets[rng() % std::size(kSets)]);
    default: return leaf(kBases[rng() % std::size(kBases)]);
    }
}

/// A random expression of depth <= \p depth. Now and then a subexpression
/// becomes a `let` body referenced twice, so pinning is exercised too.
ExprPtr
random_expr(std::mt19937& rng, int depth)
{
    if (depth == 0) {
        return random_leaf(rng);
    }
    const auto sub = [&] { return random_expr(rng, depth - 1); };
    switch (rng() % 14) {
    case 0:
    case 1: return random_leaf(rng);
    case 2:
    case 3: return node(ExprOp::kUnion, sub(), sub());
    case 4: return node(ExprOp::kIntersect, sub(), sub());
    case 5: return node(ExprOp::kMinus, sub(), sub());
    case 6:
    case 7: return node(ExprOp::kJoin, sub(), sub());
    case 8: return node(ExprOp::kTranspose, sub());
    case 9: return node(ExprOp::kClosure, sub());
    case 10: return node(ExprOp::kReflexiveClosure, sub());
    case 11: {
        const ExprPtr body = sub();
        const ExprPtr ref = let_ref(body);
        return node(ExprOp::kJoin, ref, node(ExprOp::kUnion, ref, body));
    }
    default:
        // [S] ; r ; [S'], the restriction idiom of the model zoo.
        return node(ExprOp::kJoin, id_set(kSets[rng() % std::size(kSets)]),
                    node(ExprOp::kJoin, sub(),
                         id_set(kSets[rng() % std::size(kSets)])));
    }
}

/// eval_expr and axiom_holds against the reference, on a scratch whose
/// arena already has live slots below the evaluation's mark: those slots
/// stay untouched and spec_pool_live returns to the mark.
void
expect_matches_reference(const Expr& expr, const elt::Program& p,
                         const elt::DerivedRelations& d,
                         elt::CycleScratch* scratch, const std::string& what)
{
    const std::size_t mark = scratch->spec_pool_live;
    const EdgeSet expected = Reference{p, d}.eval(expr);
    EdgeSet actual{{-1, -1}};  // eval_expr replaces, not appends
    spec::eval_expr(expr, p, d, scratch, &actual);
    EXPECT_EQ(actual, expected) << what;
    EXPECT_EQ(scratch->spec_pool_live, mark) << what;

    bool reflexive = false;
    for (const auto& [a, b] : expected) {
        reflexive = reflexive || a == b;
    }
    const bool holds[] = {
        !reference_has_cycle(p.num_events(), {&expected}),  // kAcyclic
        !reflexive,                                          // kIrreflexive
        expected.empty(),                                    // kEmpty
    };
    spec::AxiomDef axiom;
    axiom.expr = std::shared_ptr<const Expr>(std::shared_ptr<const Expr>{},
                                             &expr);
    for (const spec::AxiomForm form :
         {spec::AxiomForm::kAcyclic, spec::AxiomForm::kIrreflexive,
          spec::AxiomForm::kEmpty}) {
        axiom.form = form;
        EXPECT_EQ(spec::axiom_holds(axiom, p, d, scratch),
                  holds[static_cast<int>(form)])
            << what << " form " << static_cast<int>(form);
        EXPECT_EQ(scratch->spec_pool_live, mark) << what;
    }
}

elt::CycleScratch
scratch_with_live_slots(elt::BitRow pattern)
{
    elt::CycleScratch scratch;
    scratch.spec_pool.resize(2);
    scratch.spec_pool[0].fill(pattern);
    scratch.spec_pool[1].fill(~pattern);
    scratch.spec_pool_live = 2;
    return scratch;
}

void
expect_live_slots_untouched(const elt::CycleScratch& scratch,
                            elt::BitRow pattern)
{
    for (std::size_t row = 0; row < elt::kMaxBitEvents; ++row) {
        EXPECT_EQ(scratch.spec_pool[0][row], pattern);
        EXPECT_EQ(scratch.spec_pool[1][row], ~pattern);
    }
}

TEST(KernelDiff, EveryOperatorMatchesSortedEdgeReference)
{
    constexpr elt::BitRow kPattern = 0x0123456789abcdefULL;
    std::mt19937 rng(1807);
    for (const int n : kSizes) {
        const elt::Program p = random_program(rng, n);
        const elt::DerivedRelations d = random_derived(rng, n);
        elt::CycleScratch scratch = scratch_with_live_slots(kPattern);
        const ExprPtr x = leaf(BaseRel::kRf);
        const ExprPtr y = leaf(BaseRel::kCo);
        const struct {
            const char* name;
            ExprPtr expr;
        } cases[] = {
            {"rf", x},
            {"po_mem", leaf(BaseRel::kPoMem)},
            {"0", node(ExprOp::kEmpty, nullptr)},
            {"rf | co", node(ExprOp::kUnion, x, y)},
            {"rf & co", node(ExprOp::kIntersect, x, y)},
            {"rf \\ co", node(ExprOp::kMinus, x, y)},
            {"rf ; co", node(ExprOp::kJoin, x, y)},
            {"rf^-1", node(ExprOp::kTranspose, x)},
            {"rf^+", node(ExprOp::kClosure, x)},
            {"rf^*", node(ExprOp::kReflexiveClosure, x)},
            {"(rf | co)^+", node(ExprOp::kClosure, node(ExprOp::kUnion, x, y))},
            {"[W] ; rf ; [R]",
             node(ExprOp::kJoin, id_set(EventSet::kWrite),
                  node(ExprOp::kJoin, x, id_set(EventSet::kRead)))},
            {"po_mem ; rf", node(ExprOp::kJoin, leaf(BaseRel::kPoMem), x)},
            {"rf ; po_mem", node(ExprOp::kJoin, x, leaf(BaseRel::kPoMem))},
            {"(rf ; co) & po",
             node(ExprOp::kIntersect, node(ExprOp::kJoin, x, y),
                  leaf(BaseRel::kPo))},
            {"po & (rf ; co)",
             node(ExprOp::kIntersect, leaf(BaseRel::kPo),
                  node(ExprOp::kJoin, x, y))},
            {"(rf ; co) & (po | fr)",
             node(ExprOp::kIntersect, node(ExprOp::kJoin, x, y),
                  node(ExprOp::kUnion, leaf(BaseRel::kPo),
                       leaf(BaseRel::kFr)))},
            {"(rf^-1 ; co) & rf^-1",
             node(ExprOp::kIntersect,
                  node(ExprOp::kJoin, node(ExprOp::kTranspose, x), y),
                  node(ExprOp::kTranspose, x))},
            {"a ten-operand union ending in a temporary",
             [&] {
                 ExprPtr u = leaf(kBases[0]);
                 for (int i = 1; i < 9; ++i) {
                     u = node(ExprOp::kUnion, u, leaf(kBases[i]));
                 }
                 return node(ExprOp::kUnion, u, node(ExprOp::kJoin, x, y));
             }()},
        };
        for (const auto& c : cases) {
            expect_matches_reference(*c.expr, p, d, &scratch,
                                     "n=" + std::to_string(n) + " " + c.name);
        }
        for (const EventSet set : kSets) {
            expect_matches_reference(*id_set(set), p, d, &scratch,
                                     "n=" + std::to_string(n) + " [S]");
        }
        expect_live_slots_untouched(scratch, kPattern);
    }
}

TEST(KernelDiff, BareBaseRelationIsReadInPlace)
{
    // An axiom over one base relation lowers to no operation at all: the
    // verdict reads the DerivedRelations rows directly, takes no arena
    // slot and leaves the relations exactly as they were.
    std::mt19937 rng(77);
    for (const int n : kSizes) {
        const elt::Program p = random_program(rng, n);
        const DerivedRelations d = random_derived(rng, n);
        const DerivedRelations before = d;
        for (const BaseRel rel : kBases) {
            elt::CycleScratch scratch;
            expect_matches_reference(*leaf(rel), p, d, &scratch,
                                     "n=" + std::to_string(n) + " base");
            EXPECT_TRUE(scratch.spec_pool.empty());
            EXPECT_TRUE(d == before);
        }
    }
}

TEST(KernelDiff, SharedLetsMatchReferenceAcrossAxioms)
{
    // One let body referenced twice by one axiom and once by another, in
    // a compiled model: each axiom's lowered program evaluates the body
    // once and both verdicts match the reference, whatever order the
    // axioms share one scratch in.
    const ExprPtr body =
        node(ExprOp::kUnion, leaf(BaseRel::kRf),
             node(ExprOp::kUnion, leaf(BaseRel::kCo), leaf(BaseRel::kFr)));
    spec::ModelSpec model_spec;
    model_spec.name = "shared_lets";
    model_spec.lets.push_back({"com", body});
    spec::AxiomDef twice;
    twice.name = "twice";
    twice.form = spec::AxiomForm::kAcyclic;
    twice.expr = node(ExprOp::kJoin, let_ref(body),
                      node(ExprOp::kUnion, let_ref(body),
                           leaf(BaseRel::kPoMem)));
    spec::AxiomDef once;
    once.name = "once";
    once.form = spec::AxiomForm::kEmpty;
    once.expr = node(ExprOp::kIntersect, let_ref(body), leaf(BaseRel::kPo));
    model_spec.axioms = {twice, once};
    const mtm::Model model = spec::compile_model(model_spec);

    std::mt19937 rng(99);
    for (const int n : kSizes) {
        elt::CycleScratch scratch;
        for (int trial = 0; trial < 40; ++trial) {
            const elt::Program p = random_program(rng, n);
            const DerivedRelations d = random_derived(rng, n);
            const Reference reference{p, d};
            const EdgeSet twice_edges = reference.eval(*twice.expr);
            const bool twice_holds =
                !reference_has_cycle(n, {&twice_edges});
            const bool once_holds = reference.eval(*once.expr).empty();
            const mtm::AxiomMask expected =
                (twice_holds ? 0 : 1) | (once_holds ? 0 : 2);
            EXPECT_EQ(model.violated_mask(p, d, &scratch), expected)
                << "n=" << n << " trial " << trial;
            for (const int i : {1, 0}) {
                const mtm::Axiom& axiom = model.axioms()[i];
                EXPECT_EQ(
                    axiom.program->holds(axiom.def->form, p, d, &scratch),
                    i == 0 ? twice_holds : once_holds);
            }
            expect_matches_reference(*twice.expr, p, d, &scratch, "twice");
            expect_matches_reference(*once.expr, p, d, &scratch, "once");
        }
    }
}

TEST(KernelDiff, RandomExpressionsMatchSortedEdgeReference)
{
    constexpr elt::BitRow kPattern = 0xfedcba9876543210ULL;
    std::mt19937 rng(4242);
    for (const int n : kSizes) {
        elt::CycleScratch scratch = scratch_with_live_slots(kPattern);
        for (int trial = 0; trial < 60; ++trial) {
            const elt::Program p = random_program(rng, n);
            const elt::DerivedRelations d = random_derived(rng, n);
            const ExprPtr expr = random_expr(rng, 4);
            expect_matches_reference(*expr, p, d, &scratch,
                                     "n=" + std::to_string(n) + " trial " +
                                         std::to_string(trial));
        }
        expect_live_slots_untouched(scratch, kPattern);
    }
}

}  // namespace
}  // namespace transform
