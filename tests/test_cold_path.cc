/**
 * @file
 * Cold-path engine tests: CSR adjacency invariants of the flat
 * DependenceGraph, bitmap findFirstFit equivalence with the probing
 * tryReserve definition, scheduler scratch arena reuse, and the
 * parallel II search's bit-identity with the sequential search.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arch/model_registry.hh"
#include "arch/models.hh"
#include "ir/dependence_graph.hh"
#include "sched/modulo_scheduler.hh"
#include "sched/reservation_table.hh"
#include "support/sched_arena.hh"
#include "support/thread_pool.hh"

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

Operation
mk(Opcode op, Vreg dst, Operand a = Operand::none(),
   Operand b = Operand::none())
{
    Operation o;
    o.op = op;
    o.dst = dst;
    o.src = {a, b, Operand::none()};
    return o;
}

LatencyFn
unitLatency()
{
    return [](const Operation &) { return 1; };
}

BankOfFn
bankZero()
{
    return [](int) { return 0; };
}

/**
 * The CSR invariant: succEdges(i) / predEdges(i) partition the edge
 * list exactly (every edge index appears in precisely one node's
 * range, endpoints agree), and indices within a range ascend, which
 * is the original per-node push_back order.
 */
void
expectCsrConsistent(const DependenceGraph &g, int n)
{
    std::vector<int> succ_seen(g.edges().size(), 0);
    std::vector<int> pred_seen(g.edges().size(), 0);
    for (int i = 0; i < n; ++i) {
        int prev = -1;
        for (int e : g.succEdges(i)) {
            EXPECT_EQ(g.edges()[static_cast<size_t>(e)].from, i);
            EXPECT_LT(prev, e) << "succ CSR not in edge order";
            prev = e;
            succ_seen[static_cast<size_t>(e)]++;
        }
        prev = -1;
        for (int e : g.predEdges(i)) {
            EXPECT_EQ(g.edges()[static_cast<size_t>(e)].to, i);
            EXPECT_LT(prev, e) << "pred CSR not in edge order";
            prev = e;
            pred_seen[static_cast<size_t>(e)]++;
        }
    }
    for (size_t e = 0; e < g.edges().size(); ++e) {
        EXPECT_EQ(succ_seen[e], 1) << "edge " << e;
        EXPECT_EQ(pred_seen[e], 1) << "edge " << e;
    }
}

TEST(CsrAdjacency, DiamondFanoutAndJoin)
{
    // 0 feeds 1 and 2; both feed 3.
    std::vector<Operation> ops{mk(Opcode::Mov, 1, K(7)),
                               mk(Opcode::Add, 2, R(1), K(1)),
                               mk(Opcode::Add, 3, R(1), K(2)),
                               mk(Opcode::Add, 4, R(2), R(3))};
    DependenceGraph g(ops, unitLatency(), false);
    expectCsrConsistent(g, 4);

    std::vector<int> succ0;
    for (int e : g.succEdges(0))
        succ0.push_back(g.edges()[static_cast<size_t>(e)].to);
    EXPECT_EQ(succ0, (std::vector<int>{1, 2}));

    std::vector<int> pred3;
    for (int e : g.predEdges(3))
        pred3.push_back(g.edges()[static_cast<size_t>(e)].from);
    EXPECT_EQ(pred3, (std::vector<int>{1, 2}));
    EXPECT_EQ(g.succEdges(3).size(), 0u);
    EXPECT_EQ(g.predEdges(0).size(), 0u);
}

TEST(CsrAdjacency, SelfLoopRecurrence)
{
    // acc = acc + 1: the carried self edge must appear in both the
    // node's successor and predecessor ranges.
    std::vector<Operation> ops{mk(Opcode::Add, 1, R(1), K(1))};
    DependenceGraph g(ops, unitLatency(), true);
    expectCsrConsistent(g, 1);
    bool self_succ = false, self_pred = false;
    for (int e : g.succEdges(0)) {
        const DepEdge &edge = g.edges()[static_cast<size_t>(e)];
        if (edge.to == 0 && edge.distance == 1)
            self_succ = true;
    }
    for (int e : g.predEdges(0)) {
        const DepEdge &edge = g.edges()[static_cast<size_t>(e)];
        if (edge.from == 0 && edge.distance == 1)
            self_pred = true;
    }
    EXPECT_TRUE(self_succ);
    EXPECT_TRUE(self_pred);
    EXPECT_EQ(g.recurrenceMii(), 1);
}

TEST(CsrAdjacency, DisconnectedOpsHaveEmptyRanges)
{
    std::vector<Operation> ops{mk(Opcode::Mov, 1, K(1)),
                               mk(Opcode::Mov, 2, K(2)),
                               mk(Opcode::Mov, 3, K(3))};
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_TRUE(g.edges().empty());
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(g.succEdges(i).size(), 0u);
        EXPECT_EQ(g.predEdges(i).size(), 0u);
        EXPECT_EQ(g.height(i), 1);
    }
}

TEST(CsrAdjacency, InPlaceRebuildMatchesFreshGraph)
{
    // The pooled-graph path: build() over a big graph, then over a
    // small one, must leave no stale adjacency behind.
    std::vector<Operation> big{mk(Opcode::Mov, 1, K(7)),
                               mk(Opcode::Add, 2, R(1), K(1)),
                               mk(Opcode::Add, 3, R(2), K(2)),
                               mk(Opcode::Add, 4, R(3), R(2))};
    std::vector<Operation> small{mk(Opcode::Mov, 1, K(7)),
                                 mk(Opcode::Add, 2, R(1), K(1))};
    DependenceGraph reused;
    reused.build(big, unitLatency(), true);
    reused.build(small, unitLatency(), false);
    DependenceGraph fresh(small, unitLatency(), false);

    ASSERT_EQ(reused.edges().size(), fresh.edges().size());
    for (size_t e = 0; e < fresh.edges().size(); ++e) {
        EXPECT_EQ(reused.edges()[e].from, fresh.edges()[e].from);
        EXPECT_EQ(reused.edges()[e].to, fresh.edges()[e].to);
        EXPECT_EQ(reused.edges()[e].latency, fresh.edges()[e].latency);
        EXPECT_EQ(reused.edges()[e].distance,
                  fresh.edges()[e].distance);
    }
    expectCsrConsistent(reused, 2);
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(reused.height(i), fresh.height(i));
}

// ---- findFirstFit vs the probing definition ---------------------------

/** Deterministic 64-bit LCG (tests must not use random_device). */
struct Lcg
{
    uint64_t s = 0x9E3779B97F4A7C15ull;
    uint32_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<uint32_t>(s >> 33);
    }
};

/** A random op drawn across every slot class the table recognizes. */
Operation
randomOp(Lcg &rng, const MachineModel &machine)
{
    Operation op;
    switch (rng.next() % 6) {
      case 0:
        op = mk(Opcode::Add, 1, K(1), K(2));
        break;
      case 1:
        op = mk(Opcode::Shl, 1, K(1), K(2));
        break;
      case 2:
        op = mk(Opcode::Mul16Lo, 1, K(3), K(5));
        break;
      case 3:
        op = mk(Opcode::Load, 1, K(0));
        op.buffer = 0;
        break;
      case 4:
        op = mk(Opcode::AbsDiff, 1, K(9), K(4));
        break;
      default:
        op = mk(Opcode::Xfer, 1, R(9));
        break;
    }
    op.cluster = static_cast<int>(rng.next()) % machine.clusters();
    if (op.op == Opcode::Xfer) {
        op.dstCluster =
            static_cast<int>(rng.next()) % machine.clusters();
    }
    return op;
}

TEST(FindFirstFit, MatchesTryReserveProbingAcrossIis)
{
    // findFirstFit's contract is "exactly equivalent to probing
    // tryReserve at estart, estart+1, ..." - check it against a
    // shadow table driven by that literal loop, over random
    // reservation patterns at every II in 1..32. The bitmap (and,
    // where enabled, AVX2) scan path must agree cycle-for-cycle and
    // slot-for-slot.
    MachineModel machine(models::i4c8s4());
    Lcg rng;
    for (int ii = 1; ii <= 32; ++ii) {
        ReservationTable fit(machine, ii, bankZero());
        ReservationTable shadow(machine, ii, bankZero());

        // Random prefill, mirrored into both tables.
        int prefill = 3 * ii + 8;
        for (int k = 0; k < prefill; ++k) {
            Operation op = randomOp(rng, machine);
            int cycle = static_cast<int>(rng.next()) % (2 * ii);
            int s1 = -1, s2 = -1;
            bool a = fit.tryReserve(op, cycle, &s1);
            bool b = shadow.tryReserve(op, cycle, &s2);
            ASSERT_EQ(a, b) << "ii=" << ii << " k=" << k;
            ASSERT_EQ(s1, s2) << "ii=" << ii << " k=" << k;
        }

        // Probe; both tables keep evolving as fits are reserved.
        for (int t = 0; t < 48; ++t) {
            Operation op = randomOp(rng, machine);
            int estart = static_cast<int>(rng.next()) % (3 * ii);
            int s1 = -1, s2 = -1;
            int got = fit.findFirstFit(op, estart, &s1);
            int want = -1;
            for (int c = estart; c < estart + ii; ++c) {
                if (shadow.tryReserve(op, c, &s2)) {
                    want = c;
                    break;
                }
            }
            ASSERT_EQ(got, want)
                << "ii=" << ii << " t=" << t << " estart=" << estart;
            if (got >= 0) {
                ASSERT_EQ(s1, s2) << "ii=" << ii << " t=" << t;
            }
        }
    }
}

TEST(FindFirstFit, WrapsAroundTheInterval)
{
    // estart near the top of the interval must wrap to earlier
    // modulo rows rather than fail.
    MachineModel machine(models::i4c8s4());
    ReservationTable t(machine, 4, bankZero());
    Operation ld = mk(Opcode::Load, 1, K(0));
    ld.buffer = 0;
    int slot = -1;
    // One load per row is the i4 limit; fill rows 3, 0, 1.
    ASSERT_TRUE(t.tryReserve(ld, 3, &slot));
    ASSERT_TRUE(t.tryReserve(ld, 4, &slot));
    ASSERT_TRUE(t.tryReserve(ld, 5, &slot));
    // From estart 3 the only free row is 2, reached by wrapping.
    EXPECT_EQ(t.findFirstFit(ld, 3, &slot), 6);
    // Now every row is full.
    EXPECT_EQ(t.findFirstFit(ld, 3, &slot), -1);
}

/** A random op over every reservation-key kind, with banks 0, 1 and
 *  out-of-range buffers (see rowApiBankOf). */
Operation
randomKeyedOp(Lcg &rng, const MachineModel &machine)
{
    Operation op;
    switch (rng.next() % 8) {
      case 0:
        op = mk(Opcode::Add, 1, K(1), K(2));
        break;
      case 1:
        op = mk(Opcode::Shl, 1, K(1), K(2));
        break;
      case 2:
        op = mk(Opcode::Mul8, 1, K(3), K(5));
        break;
      case 3:
        op = mk(Opcode::AbsDiff, 1, K(9), K(4));
        break;
      case 4:
        op = mk(Opcode::Load, 1, K(0));
        op.buffer = static_cast<int>(rng.next() % 3);
        break;
      case 5:
      case 6:
        op = mk(Opcode::Xfer, 1, R(9));
        break;
      default:
        op.op = Opcode::Br;
        break;
    }
    op.cluster = static_cast<int>(rng.next()) % machine.clusters();
    op.dstCluster = static_cast<int>(rng.next()) % machine.clusters();
    return op;
}

/** Buffer 0 is bank 0, buffer 1 bank 1 where the machine has two
 *  banks, and the rest lie outside every bank (any-bank LSUs only). */
BankOfFn
rowApiBankOf(const MachineModel &machine)
{
    int banks = machine.memBanks();
    return [banks](int buffer) {
        if (buffer == 0)
            return 0;
        if (buffer == 1 && banks > 1)
            return 1;
        return buffer == 1 ? 3 : -1;
    };
}

/**
 * Same state: every probe op of every kind fits the same rows with
 * the same slots on copies of both tables, and every row holds the
 * same number of ops.
 */
void
expectSameTableState(const ReservationTable &rows,
                     const ReservationTable &cycles,
                     const MachineModel &machine, int ii,
                     const std::string &what)
{
    for (int r = 0; r < ii; ++r)
        ASSERT_EQ(rows.opsAt(r), cycles.opsAt(r)) << what << " row " << r;
    Lcg probe_rng;
    for (int k = 0; k < 24; ++k) {
        Operation op = randomKeyedOp(probe_rng, machine);
        for (int r = 0; r < ii; ++r) {
            ReservationTable a = rows, b = cycles;
            int sa = -2, sb = -2;
            bool fa = a.reserveRow(a.keyOf(op), r, &sa);
            bool fb = b.tryReserve(op, r, &sb);
            ASSERT_EQ(fa, fb) << what << " probe " << k << " row " << r;
            ASSERT_EQ(sa, sb) << what << " probe " << k << " row " << r;
        }
    }
}

TEST(FindFirstFit, RowApiMatchesCycleApiOnEveryModel)
{
    // reserveRow / firstFitRow / releaseRow must make exactly the
    // decisions tryReserve / findFirstFit / release make, and leave
    // the same table behind. Random reserve, first-fit and release
    // sequences on every registered model; I2C16S4's one crossbar
    // port per cluster saturates quickly, its two banks have
    // bank-specific LSUs, and the one-bank models serve out-of-range
    // banks from their any-bank LSUs.
    std::vector<std::string> names =
        ModelRegistry::instance().names();
    names.push_back("I4C8S5+2LS+AD");
    ASSERT_GE(names.size(), 8u);
    Lcg rng;
    // Refusals and placements per key kind, to show the sequences
    // reach the cases named above.
    int xfer_refused = 0, any_bank_placed = 0, branch_placed = 0,
        branch_refused = 0;
    auto tally = [&](const ReservationTable::OpKey &key,
                     const Operation &op, bool placed) {
        using Kind = ReservationTable::OpKey::Kind;
        if (key.kind == Kind::Xfer && !placed)
            xfer_refused++;
        if (key.kind == Kind::Branch)
            (placed ? branch_placed : branch_refused)++;
        if (placed && op.op == Opcode::Load && op.buffer == 2)
            any_bank_placed++;
    };
    for (const std::string &name : names) {
        MachineModel machine(models::byName(name));
        BankOfFn bank_of = rowApiBankOf(machine);
        for (int ii : {1, 2, 3, 7, 13, 64, 65, 130}) {
            ReservationTable rows(machine, ii, bank_of);
            ReservationTable cycles(machine, ii, bank_of);
            struct Held
            {
                Operation op;
                int cycle;
                int slot;
            };
            std::vector<Held> held;
            const std::string what =
                name + " ii=" + std::to_string(ii);
            for (int step = 0; step < 6 * ii + 40; ++step) {
                Operation op = randomKeyedOp(rng, machine);
                const ReservationTable::OpKey key = rows.keyOf(op);
                int sa = -2, sb = -2;
                uint32_t action = rng.next() % 5;
                if (action == 0 && !held.empty()) {
                    size_t k = rng.next() % held.size();
                    rows.releaseRow(rows.keyOf(held[k].op),
                                    held[k].cycle % ii, held[k].slot);
                    cycles.release(held[k].op, held[k].cycle,
                                   held[k].slot);
                    held.erase(held.begin() +
                               static_cast<ptrdiff_t>(k));
                } else if (action <= 2) {
                    int cycle = static_cast<int>(rng.next() % 300);
                    bool fa = rows.reserveRow(key, cycle % ii, &sa);
                    bool fb = cycles.tryReserve(op, cycle, &sb);
                    ASSERT_EQ(fa, fb) << what << " step " << step;
                    tally(key, op, fa);
                    if (fa) {
                        ASSERT_EQ(sa, sb) << what << " step " << step;
                        held.push_back({op, cycle, sa});
                    }
                } else {
                    int estart = static_cast<int>(rng.next() % 300);
                    int r0 = estart % ii;
                    int row = rows.firstFitRow(key, r0, &sa);
                    int cycle = cycles.findFirstFit(op, estart, &sb);
                    tally(key, op, row >= 0);
                    if (row < 0) {
                        ASSERT_EQ(cycle, -1) << what << " step " << step;
                        continue;
                    }
                    ASSERT_EQ(cycle,
                              estart + (row >= r0 ? row - r0
                                                  : row - r0 + ii))
                        << what << " step " << step;
                    ASSERT_EQ(sa, sb) << what << " step " << step;
                    held.push_back({op, cycle, sa});
                }
            }
            expectSameTableState(rows, cycles, machine, ii, what);
        }
    }
    EXPECT_GT(xfer_refused, 0);
    EXPECT_GT(any_bank_placed, 0);
    EXPECT_GT(branch_placed, 0);
    EXPECT_GT(branch_refused, 0);
}

// ---- scheduler scratch arena ------------------------------------------

TEST(SchedArena, RecyclesBuffersWithinAThread)
{
    SchedArena &arena = SchedArena::local();
    uint64_t reuses_before = arena.reuses();
    const int32_t *p0 = nullptr;
    {
        ArenaVec<int32_t> v;
        v->assign(1024, 7);
        p0 = v->data();
    }
    {
        // Same thread, same pool: the freed buffer comes back.
        ArenaVec<int32_t> v;
        v->assign(512, 3);
        EXPECT_EQ(v->data(), p0);
    }
    EXPECT_GT(arena.reuses(), reuses_before);
}

// ---- parallel II search ------------------------------------------------

TEST(IiSearchParallel, BitIdenticalToSequential)
{
    MachineModel machine(models::i4c8s4());
    ModuloScheduler sched(machine, bankZero());

    // Loops with some II slack so the parallel search actually
    // explores several candidate IIs past the MII.
    std::vector<std::vector<Operation>> loops;
    {
        // Resource-bound: 5 loads on one LSU, plus consumer chain.
        std::vector<Operation> ops;
        for (int i = 0; i < 5; ++i) {
            Operation ld = mk(Opcode::Load, static_cast<Vreg>(i + 1),
                              K(i));
            ld.buffer = 0;
            ops.push_back(ld);
        }
        ops.push_back(mk(Opcode::Add, 9, R(1), R(2)));
        ops.push_back(mk(Opcode::Add, 10, R(9), R(3)));
        loops.push_back(ops);
    }
    {
        // Recurrence-bound: a carried 3-op cycle plus parallel work.
        std::vector<Operation> ops{mk(Opcode::Add, 1, R(3), K(1)),
                                   mk(Opcode::Add, 2, R(1), K(1)),
                                   mk(Opcode::Add, 3, R(2), K(1))};
        for (int i = 0; i < 6; ++i)
            ops.push_back(mk(Opcode::Add,
                             static_cast<Vreg>(20 + i), K(i), K(1)));
        loops.push_back(ops);
    }

    std::vector<BlockSchedule> seq;
    for (const auto &ops : loops)
        seq.push_back(sched.schedule(ops));

    ThreadPool pool(4);
    ModuloScheduler::setIiSearch(&pool, pool.threadCount());
    std::vector<BlockSchedule> par;
    for (const auto &ops : loops)
        par.push_back(sched.schedule(ops));
    ModuloScheduler::setIiSearch(nullptr, 1);

    for (size_t l = 0; l < loops.size(); ++l) {
        const BlockSchedule &a = seq[l];
        const BlockSchedule &b = par[l];
        EXPECT_EQ(a.ii, b.ii) << "loop " << l;
        EXPECT_EQ(a.length, b.length) << "loop " << l;
        EXPECT_EQ(a.stages, b.stages) << "loop " << l;
        EXPECT_EQ(a.maxLive, b.maxLive) << "loop " << l;
        ASSERT_EQ(a.placed.size(), b.placed.size());
        for (size_t i = 0; i < a.placed.size(); ++i) {
            EXPECT_EQ(a.placed[i].cycle, b.placed[i].cycle)
                << "loop " << l << " op " << i;
            EXPECT_EQ(a.placed[i].cluster, b.placed[i].cluster)
                << "loop " << l << " op " << i;
            EXPECT_EQ(a.placed[i].slot, b.placed[i].slot)
                << "loop " << l << " op " << i;
        }
    }
}

} // namespace
} // namespace vvsp
