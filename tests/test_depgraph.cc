/** @file Dependence-graph construction and RecMII tests. */

#include <gtest/gtest.h>

#include <random>

#include "arch/machine_model.hh"
#include "arch/models.hh"
#include "core/experiment.hh"
#include "core/experiment_spec.hh"
#include "ir/builder.hh"
#include "ir/dependence_graph.hh"
#include "kernels/kernel.hh"
#include "swp_bodies.hh"

namespace vvsp
{
namespace
{

Operand
R(Vreg v)
{
    return Operand::ofReg(v);
}

Operand
K(int32_t v)
{
    return Operand::ofImm(v);
}

LatencyFn
unitLatency()
{
    return [](const Operation &) { return 1; };
}

Operation
mk(Opcode op, Vreg dst, Operand a, Operand b = Operand::none())
{
    Operation o;
    o.op = op;
    o.dst = dst;
    o.src = {a, b, Operand::none()};
    return o;
}

bool
hasEdge(const DependenceGraph &g, int from, int to, DepKind kind,
        int distance = 0)
{
    for (const auto &e : g.edges()) {
        if (e.from == from && e.to == to && e.kind == kind &&
            e.distance == distance) {
            return true;
        }
    }
    return false;
}

TEST(DepGraph, TrueDependence)
{
    std::vector<Operation> ops{mk(Opcode::Mov, 1, K(5)),
                               mk(Opcode::Add, 2, R(1), K(1))};
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_TRUE(hasEdge(g, 0, 1, DepKind::True));
}

TEST(DepGraph, AntiAndOutputDependences)
{
    std::vector<Operation> ops{mk(Opcode::Mov, 1, K(5)),
                               mk(Opcode::Add, 2, R(1), K(1)),
                               mk(Opcode::Mov, 1, K(9))};
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_TRUE(hasEdge(g, 1, 2, DepKind::Anti));
    EXPECT_TRUE(hasEdge(g, 0, 2, DepKind::Output));
}

TEST(DepGraph, PredicateReadIsADependence)
{
    std::vector<Operation> ops{mk(Opcode::CmpLt, 1, K(0), K(1)),
                               mk(Opcode::Mov, 2, K(5))};
    ops[1].pred = R(1);
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_TRUE(hasEdge(g, 0, 1, DepKind::True));
}

TEST(DepGraph, MemoryOrderingSameToken)
{
    Operation st = mk(Opcode::Store, kNoVreg, K(1), K(0));
    st.op = Opcode::Store;
    st.src = {K(1), K(0), Operand::none()};
    st.buffer = 0;
    Operation ld = mk(Opcode::Load, 1, K(0));
    ld.buffer = 0;
    std::vector<Operation> ops{st, ld};
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_TRUE(hasEdge(g, 0, 1, DepKind::Memory));
}

TEST(DepGraph, DisjointAliasTokensDontOrder)
{
    Operation st;
    st.op = Opcode::Store;
    st.src = {K(1), K(0), Operand::none()};
    st.buffer = 0;
    st.aliasToken = 1;
    Operation ld = mk(Opcode::Load, 1, K(0));
    ld.buffer = 0;
    ld.aliasToken = 2;
    std::vector<Operation> ops{st, ld};
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_FALSE(hasEdge(g, 0, 1, DepKind::Memory));
}

TEST(DepGraph, LoadLoadNeedsNoOrdering)
{
    Operation l1 = mk(Opcode::Load, 1, K(0));
    l1.buffer = 0;
    Operation l2 = mk(Opcode::Load, 2, K(1));
    l2.buffer = 0;
    std::vector<Operation> ops{l1, l2};
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_TRUE(g.edges().empty());
}

TEST(DepGraph, CarriedAccumulatorSelfDependence)
{
    // acc = acc + x: distance-1 self edge -> RecMII >= latency.
    std::vector<Operation> ops{mk(Opcode::Add, 1, R(1), K(2))};
    DependenceGraph g(ops, unitLatency(), true);
    EXPECT_TRUE(hasEdge(g, 0, 0, DepKind::True, 1));
    EXPECT_EQ(g.recurrenceMii(), 1);
}

TEST(DepGraph, RecurrenceMiiOfTwoOpCycle)
{
    // a = f(b); b = g(a): carried cycle of two unit-latency ops.
    std::vector<Operation> ops{mk(Opcode::Add, 1, R(2), K(1)),
                               mk(Opcode::Add, 2, R(1), K(1))};
    DependenceGraph g(ops, unitLatency(), true);
    EXPECT_EQ(g.recurrenceMii(), 2);
}

TEST(DepGraph, LongerLatencyRaisesRecMii)
{
    LatencyFn lat = [](const Operation &op) {
        return op.op == Opcode::Mul16Lo ? 2 : 1;
    };
    // acc = mul(acc, k): self cycle with latency 2.
    std::vector<Operation> ops{mk(Opcode::Mul16Lo, 1, R(1), K(3))};
    DependenceGraph g(ops, lat, true);
    EXPECT_EQ(g.recurrenceMii(), 2);
}

TEST(DepGraph, StreamingAccessesSkipCarriedMemoryEdges)
{
    Operation st;
    st.op = Opcode::Store;
    st.src = {K(1), R(9), Operand::none()};
    st.buffer = 0;
    st.noCarriedAlias = true;
    Operation ld = mk(Opcode::Load, 1, R(9));
    ld.buffer = 0;
    ld.noCarriedAlias = true;
    std::vector<Operation> ops{ld, st};
    DependenceGraph g(ops, unitLatency(), true);
    // Intra-iteration anti ordering exists, but no distance-1 edges.
    for (const auto &e : g.edges())
        EXPECT_EQ(e.distance, 0);
}

TEST(DepGraph, HeightsFollowCriticalPath)
{
    std::vector<Operation> ops{mk(Opcode::Mov, 1, K(1)),
                               mk(Opcode::Add, 2, R(1), K(1)),
                               mk(Opcode::Add, 3, R(2), K(1)),
                               mk(Opcode::Mov, 9, K(7))};
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_EQ(g.height(0), 3);
    EXPECT_EQ(g.height(1), 2);
    EXPECT_EQ(g.height(2), 1);
    EXPECT_EQ(g.height(3), 1);
    EXPECT_EQ(g.criticalPathLength(), 3);
}

TEST(DepGraph, ComplementaryPredicatesShareACycle)
{
    std::vector<Operation> ops{mk(Opcode::CmpLt, 1, K(0), K(1)),
                               mk(Opcode::Mov, 2, K(5)),
                               mk(Opcode::Mov, 2, K(6))};
    ops[1].pred = R(1);
    ops[1].predSense = true;
    ops[2].pred = R(1);
    ops[2].predSense = false;
    DependenceGraph g(ops, unitLatency(), false);
    for (const auto &e : g.edges()) {
        if (e.from == 1 && e.to == 2 && e.kind == DepKind::Output)
            EXPECT_EQ(e.latency, 0); // may issue in the same cycle.
    }
}

/**
 * Oracle for recurrenceMii(): plain Bellman-Ford in edge-list order,
 * which can only show a positive cycle by running all n+1 sweeps,
 * under the same binary search over II.
 */
int
oracleRecMii(const DependenceGraph &g)
{
    const size_t n = g.numOps();
    if (n == 0)
        return 1;
    bool any_carried = false;
    int max_lat_sum = 1;
    for (const auto &e : g.edges()) {
        max_lat_sum += e.latency;
        any_carried |= e.distance > 0;
    }
    if (!any_carried)
        return 1;
    std::vector<int> dist;
    auto feasible = [&](int ii) {
        dist.assign(n, 0);
        bool changed = true;
        bool positive_cycle = false;
        for (size_t iter = 0; iter <= n && changed; ++iter) {
            changed = false;
            for (const auto &e : g.edges()) {
                int cand = dist[static_cast<size_t>(e.from)] +
                           e.latency - ii * e.distance;
                if (cand > dist[static_cast<size_t>(e.to)]) {
                    dist[static_cast<size_t>(e.to)] = cand;
                    changed = true;
                    if (iter == n)
                        positive_cycle = true;
                }
            }
        }
        return !positive_cycle && !changed;
    };
    if (feasible(1))
        return 1;
    int lo = 1, hi = max_lat_sum;
    while (hi - lo > 1) {
        int mid = lo + (hi - lo) / 2;
        if (feasible(mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

DependenceGraph
graphOf(size_t n, const std::vector<DepEdge> &edges)
{
    DependenceGraph g;
    g.build(n, edges);
    return g;
}

DepEdge
edge(int from, int to, int latency, int distance)
{
    return DepEdge{from, to, latency, distance, DepKind::True};
}

TEST(RecMiiOracle, ZeroLatencyCarriedCycleGivesOne)
{
    auto g = graphOf(2, {edge(0, 1, 0, 0), edge(1, 0, 0, 1)});
    EXPECT_EQ(g.recurrenceMii(), 1);
    EXPECT_EQ(oracleRecMii(g), 1);
}

TEST(RecMiiOracle, SelfLoopOverTwoIterations)
{
    // ceil(3 / 2) = 2.
    auto g = graphOf(1, {edge(0, 0, 3, 2)});
    EXPECT_EQ(g.recurrenceMii(), 2);
    EXPECT_EQ(oracleRecMii(g), 2);
}

TEST(RecMiiOracle, DistanceThreeRecurrenceBinds)
{
    // Op 0 alone: 4 / 1 = 4. Ops 1-2: ceil(14 / 3) = 5 binds.
    auto g = graphOf(3, {edge(0, 0, 4, 1), edge(1, 2, 7, 0),
                         edge(2, 1, 7, 3)});
    EXPECT_EQ(g.recurrenceMii(), 5);
    EXPECT_EQ(oracleRecMii(g), 5);
}

/**
 * Seeded random graphs: forward distance-0 edges, carried edges of
 * distance 1-3 with latencies 0-4, positive self-loops, tight
 * recurrences that reach zero weight exactly at their II, all-zero-
 * latency carried cycles, and several disconnected recurrence
 * components per graph.
 */
DependenceGraph
randomGraph(std::mt19937 &rng, int n)
{
    auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    std::vector<DepEdge> edges;
    for (int v = 1; v < n; ++v) {
        int preds = pick(0, 3);
        for (int k = 0; k < preds; ++k)
            edges.push_back(edge(pick(0, v - 1), v, pick(0, 4), 0));
    }
    // Disconnected recurrence components over disjoint op ranges.
    int comps = pick(1, 4);
    int span = std::max(1, n / comps);
    for (int c = 0; c < comps; ++c) {
        int lo = c * span;
        int hi = std::min(n - 1, lo + span - 1);
        if (lo > hi)
            break;
        int carried = pick(0, 4);
        for (int k = 0; k < carried; ++k) {
            edges.push_back(edge(pick(lo, hi), pick(lo, hi),
                                 pick(0, 4), pick(1, 3)));
        }
        switch (pick(0, 3)) {
          case 0: { // positive self-loop.
            int v = pick(lo, hi);
            edges.push_back(edge(v, v, pick(1, 4), pick(1, 3)));
            break;
          }
          case 1: { // tight: weight 0 exactly at II = k.
            int a = pick(lo, hi), b = pick(lo, hi);
            if (a > b)
                std::swap(a, b);
            int dist = pick(1, 3);
            int k = pick(1, 4);
            if (a == b) {
                edges.push_back(edge(a, a, k * dist, dist));
            } else {
                int first = pick(0, k * dist);
                edges.push_back(edge(a, b, first, 0));
                edges.push_back(edge(b, a, k * dist - first, dist));
            }
            break;
          }
          case 2: { // zero-latency carried cycle.
            int a = pick(lo, hi), b = pick(lo, hi);
            if (a > b)
                std::swap(a, b);
            if (a != b)
                edges.push_back(edge(a, b, 0, 0));
            edges.push_back(edge(b, a, 0, pick(1, 3)));
            break;
          }
          default:
            break;
        }
    }
    return graphOf(static_cast<size_t>(n), edges);
}

TEST(RecMiiOracle, MatchesOnSeededRandomGraphs)
{
    std::mt19937 rng(20260417);
    int above_one = 0;
    for (int trial = 0; trial < 300; ++trial) {
        int n = trial < 20 ? trial + 1
                           : std::uniform_int_distribution<int>(
                                 1, 300)(rng);
        DependenceGraph g = randomGraph(rng, n);
        int want = oracleRecMii(g);
        ASSERT_EQ(g.recurrenceMii(), want)
            << "trial " << trial << ", n " << n << "\n" << g.str();
        above_one += want > 1;
    }
    // The generator exercises real recurrences, not just II = 1.
    EXPECT_GT(above_one, 100);
}

TEST(RecMiiOracle, MatchesOnUtilizationLoopBodies)
{
    // Every software-pipelined loop body of the `utilization` cell
    // set (most-optimized variant per kernel on every model) small
    // enough for the oracle; larger bodies would make it too slow.
    constexpr size_t kMaxOps = 1500;
    const ExperimentSpec *spec = findExperimentSpec("utilization");
    ASSERT_NE(spec, nullptr);
    int compared = 0;
    for (const std::string &model : spec->models) {
        for (const KernelSpec &k : allKernels()) {
            const VariantSpec &v = k.variants.back();
            DatapathConfig cfg = models::byName(model);
            if (v.needsAbsDiff)
                cfg.cluster.hasAbsDiff = true;
            MachineModel machine(cfg);
            Function fn = lowerVariant(k, v, machine);
            for (const auto &ops : swpLoopBodies(fn, v.mode)) {
                if (ops.size() > kMaxOps)
                    continue;
                DependenceGraph g(ops, machine.latencyFn(), true);
                EXPECT_EQ(g.recurrenceMii(), oracleRecMii(g))
                    << model << " / " << k.name << ", " << ops.size()
                    << " ops";
                ++compared;
            }
        }
    }
    EXPECT_GT(compared, 0);
}

} // namespace
} // namespace vvsp
