/**
 * @file
 * ModuloKernelOracle: the modulo scheduler's II-attempt kernel
 * against a plain reference kernel kept here as its specification.
 * The reference places whole ops through the table's cycle API
 * (tryReserve / findFirstFit / release), takes rows as cycle % ii,
 * scans a flat bitset for the next op by priority, and checks
 * self-edges after every placement. The optimized kernel must match
 * it decision for decision: for every II the reference walk visits,
 * the same outcome, eviction count and start cycles, and the same
 * final schedule from scheduleBudgeted() at II-search widths 1 and 4.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <vector>

#include "arch/models.hh"
#include "core/experiment.hh"
#include "core/experiment_spec.hh"
#include "ir/dependence_graph.hh"
#include "kernels/kernel.hh"
#include "obs/stats_registry.hh"
#include "sched/modulo_scheduler.hh"
#include "sched/reg_pressure.hh"
#include "sched/reservation_table.hh"
#include "support/random.hh"
#include "support/thread_pool.hh"
#include "swp_bodies.hh"

namespace vvsp
{
namespace
{

using Kind = ModuloScheduler::AttemptOutcome::Kind;

/** What the reference kernel reports for one II. */
struct OracleAttempt
{
    int ii = 0;
    Kind kind = Kind::Ok;
    uint64_t evictions = 0;
    std::vector<int> start;
};

/** The reference II attempt: one placement loop over whole ops. */
OracleAttempt
oracleAttempt(const std::vector<Operation> &ops,
              const DependenceGraph &ddg, int ii,
              const std::vector<int> &by_priority,
              ReservationTable &table)
{
    OracleAttempt outcome;
    outcome.ii = ii;
    std::vector<int> &start = outcome.start;
    const int n = static_cast<int>(ops.size());
    start.assign(static_cast<size_t>(n), -1);
    std::vector<int32_t> prev(static_cast<size_t>(n), -1);
    std::vector<int32_t> slot_of(static_cast<size_t>(n), -1);
    std::vector<int32_t> rank_of(static_cast<size_t>(n));
    table.reset(ii);

    std::vector<int32_t> row_head(static_cast<size_t>(ii), -1);
    std::vector<int32_t> nxt(static_cast<size_t>(n), -1);
    std::vector<int32_t> prv(static_cast<size_t>(n), -1);
    auto row_link = [&](int i, int cycle) {
        int r = cycle % ii;
        int h = row_head[static_cast<size_t>(r)];
        nxt[static_cast<size_t>(i)] = h;
        prv[static_cast<size_t>(i)] = -r - 2; // head marker.
        if (h >= 0)
            prv[static_cast<size_t>(h)] = i;
        row_head[static_cast<size_t>(r)] = i;
    };
    auto row_unlink = [&](int i) {
        int p = prv[static_cast<size_t>(i)];
        int x = nxt[static_cast<size_t>(i)];
        if (p >= 0)
            nxt[static_cast<size_t>(p)] = x;
        else
            row_head[static_cast<size_t>(-p - 2)] = x;
        if (x >= 0)
            prv[static_cast<size_t>(x)] = p;
    };

    for (int r = 0; r < n; ++r)
        rank_of[static_cast<size_t>(by_priority[static_cast<size_t>(
            r)])] = r;
    std::vector<uint64_t> unplaced((static_cast<size_t>(n) + 63) / 64,
                                   ~uint64_t{0});
    if (n % 64)
        unplaced.back() = (uint64_t{1} << (n % 64)) - 1;

    auto unschedule = [&](int i) {
        if (start[static_cast<size_t>(i)] < 0)
            return;
        table.release(ops[static_cast<size_t>(i)],
                      start[static_cast<size_t>(i)],
                      slot_of[static_cast<size_t>(i)]);
        start[static_cast<size_t>(i)] = -1;
        row_unlink(i);
        outcome.evictions++;
        int r = rank_of[static_cast<size_t>(i)];
        unplaced[static_cast<size_t>(r) / 64] |= uint64_t{1}
                                                 << (r % 64);
    };

    long budget = 32L * n + 256;
    while (true) {
        int op_idx = -1;
        for (size_t w = 0; w < unplaced.size(); ++w) {
            if (unplaced[w]) {
                int r = static_cast<int>(
                    w * 64 +
                    static_cast<size_t>(std::countr_zero(unplaced[w])));
                op_idx = by_priority[static_cast<size_t>(r)];
                break;
            }
        }
        if (op_idx < 0)
            return outcome; // all placed.
        if (budget-- <= 0) {
            outcome.kind = Kind::FailBudget;
            return outcome;
        }

        int estart = 0;
        for (int e : ddg.predEdges(op_idx)) {
            const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
            int from = start[static_cast<size_t>(edge.from)];
            if (from < 0)
                continue;
            estart = std::max(estart,
                              from + edge.latency - ii * edge.distance);
        }

        const Operation &op = ops[static_cast<size_t>(op_idx)];
        int slot = -1;
        int placed_at = table.findFirstFit(op, estart, &slot);
        if (placed_at < 0) {
            int t = std::max(estart,
                             prev[static_cast<size_t>(op_idx)] + 1);
            for (int i = row_head[static_cast<size_t>(t % ii)];
                 i >= 0;) {
                int next = nxt[static_cast<size_t>(i)];
                unschedule(i);
                i = next;
            }
            bool ok = table.tryReserve(op, t, &slot);
            EXPECT_TRUE(ok) << "forced placement failed";
            placed_at = t;
        }
        start[static_cast<size_t>(op_idx)] = placed_at;
        slot_of[static_cast<size_t>(op_idx)] = slot;
        prev[static_cast<size_t>(op_idx)] = placed_at;
        row_link(op_idx, placed_at);
        {
            int r = rank_of[static_cast<size_t>(op_idx)];
            unplaced[static_cast<size_t>(r) / 64] &=
                ~(uint64_t{1} << (r % 64));
        }

        for (int e : ddg.succEdges(op_idx)) {
            const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
            int to = start[static_cast<size_t>(edge.to)];
            if (edge.to == op_idx || to < 0)
                continue;
            if (to < placed_at + edge.latency - ii * edge.distance)
                unschedule(edge.to);
        }
        for (int e : ddg.succEdges(op_idx)) {
            const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
            if (edge.to == op_idx &&
                edge.latency > ii * edge.distance) {
                outcome.kind = Kind::FailRecurrence;
                return outcome;
            }
        }
    }
}

/** The reference II walk: every attempt it made, and its result. */
struct OracleWalk
{
    std::vector<OracleAttempt> attempts;
    BlockSchedule result;
};

/** schedule() with the reference kernel, sequential search. */
OracleWalk
oracleSchedule(const std::vector<Operation> &ops,
               const MachineModel &machine, const BankOfFn &bank_of,
               int max_live_target)
{
    OracleWalk walk;
    const int n = static_cast<int>(ops.size());
    DependenceGraph ddg(ops, machine.latencyFn(), true);
    ModuloScheduler mii_source(machine, bank_of);
    int mii = std::max(mii_source.resourceMii(ops), ddg.recurrenceMii());

    std::vector<int> by_priority(static_cast<size_t>(n));
    std::iota(by_priority.begin(), by_priority.end(), 0);
    std::stable_sort(by_priority.begin(), by_priority.end(),
                     [&ddg](int a, int b) {
                         return ddg.height(a) > ddg.height(b);
                     });

    auto build = [&](int ii,
                     const std::vector<int> &start) -> BlockSchedule {
        BlockSchedule result;
        result.ii = ii;
        result.placed.assign(static_cast<size_t>(n), PlacedOp{});
        int max_start = 0;
        for (int i = 0; i < n; ++i) {
            result.placed[static_cast<size_t>(i)] =
                PlacedOp{start[static_cast<size_t>(i)],
                         ops[static_cast<size_t>(i)].cluster, 0};
            max_start = std::max(max_start,
                                 start[static_cast<size_t>(i)]);
        }
        result.stages = max_start / ii + 1;
        result.length = max_start + 1;
        result.instructions = ii;
        result.maxLive = maxLivePerCluster(ops, result, machine, ii);
        return result;
    };

    BlockSchedule best;
    bool have_best = false;
    int pressure_retries = 0;
    auto consume = [&](BlockSchedule cand) -> bool {
        if (max_live_target <= 0 || cand.maxLive <= max_live_target) {
            walk.result = std::move(cand);
            return true;
        }
        if (!have_best || cand.maxLive < best.maxLive) {
            best = std::move(cand);
            have_best = true;
        }
        if (++pressure_retries >= 6) {
            walk.result = best;
            return true;
        }
        return false;
    };

    ReservationTable table(machine, 1, bank_of);
    const int max_ii = mii + 2 * n + 16;
    for (int ii = mii; ii <= max_ii; ++ii) {
        walk.attempts.push_back(
            oracleAttempt(ops, ddg, ii, by_priority, table));
        const OracleAttempt &a = walk.attempts.back();
        if (a.kind != Kind::Ok)
            continue;
        if (consume(build(ii, a.start)))
            return walk;
    }
    ADD_FAILURE() << "reference walk found no II";
    return walk;
}

void
expectSameSchedule(const BlockSchedule &want, const BlockSchedule &got,
                   const std::string &what)
{
    EXPECT_EQ(want.ii, got.ii) << what;
    EXPECT_EQ(want.stages, got.stages) << what;
    EXPECT_EQ(want.maxLive, got.maxLive) << what;
    EXPECT_EQ(want.length, got.length) << what;
    ASSERT_EQ(want.placed.size(), got.placed.size()) << what;
    for (size_t i = 0; i < want.placed.size(); ++i) {
        ASSERT_EQ(want.placed[i].cycle, got.placed[i].cycle)
            << what << ", op " << i;
    }
}

/**
 * Check one body: every II of the reference walk against attemptAt(),
 * then the final schedule at II-search widths 1 and 4. Returns the
 * number of attempts compared.
 */
size_t
checkBody(const std::vector<Operation> &ops, const MachineModel &machine,
          const BankOfFn &bank_of, int max_live_target,
          ThreadPool &pool, const std::string &what)
{
    OracleWalk walk =
        oracleSchedule(ops, machine, bank_of, max_live_target);
    ModuloScheduler sched(machine, bank_of);
    std::vector<int> start;
    for (const OracleAttempt &want : walk.attempts) {
        auto got = sched.attemptAt(ops, want.ii, &start);
        std::string at = what + " ii=" + std::to_string(want.ii);
        EXPECT_EQ(static_cast<int>(want.kind),
                  static_cast<int>(got.kind))
            << at;
        EXPECT_EQ(want.evictions, got.evictions) << at;
        EXPECT_EQ(want.start, start) << at;
    }

    expectSameSchedule(walk.result,
                       sched.schedule(ops, max_live_target),
                       what + " width 1");
    ModuloScheduler::setIiSearch(&pool, 4);
    BlockSchedule wide = sched.schedule(ops, max_live_target);
    ModuloScheduler::setIiSearch(nullptr, 1);
    expectSameSchedule(walk.result, wide, what + " width 4");
    return walk.attempts.size();
}

TEST(ModuloKernelOracle, UtilizationBodiesOnEveryModel)
{
    // Every software-pipelined loop body of the `utilization` cell
    // set: the most-optimized variant of each kernel on each of its
    // seven models, scheduled as the cycle simulator schedules it.
    const ExperimentSpec *spec = findExperimentSpec("utilization");
    ASSERT_NE(spec, nullptr);
    EXPECT_EQ(spec->models.size(), 7u);
    ThreadPool pool(4);
    size_t bodies = 0, attempts = 0;
    for (const std::string &model : spec->models) {
        for (const KernelSpec &k : allKernels()) {
            const VariantSpec &v = k.variants.back();
            DatapathConfig cfg = models::byName(model);
            if (v.needsAbsDiff)
                cfg.cluster.hasAbsDiff = true;
            MachineModel machine(cfg);
            Function fn = lowerVariant(k, v, machine);
            BankOfFn bank_of = [&fn](int b) {
                return fn.buffer(b).bank;
            };
            for (const auto &ops : swpLoopBodies(fn, v.mode)) {
                attempts += checkBody(
                    ops, machine, bank_of,
                    machine.registersPerCluster(), pool,
                    model + " / " + k.name + ", " +
                        std::to_string(ops.size()) + " ops");
                ++bodies;
            }
        }
    }
    EXPECT_GT(bodies, 0u);
    EXPECT_GT(attempts, bodies); // some bodies needed II slack.
}

/** A random loop body over every reservation-key kind. */
std::vector<Operation>
randomBody(Rng &rng, const MachineModel &machine, int num_buffers)
{
    auto pick = [&rng](int k) {
        return static_cast<int>(rng.next() % static_cast<uint64_t>(k));
    };
    const int n = 4 + pick(40);
    const int regs = 3 + pick(10);
    auto reg = [&] {
        return Operand::ofReg(static_cast<Vreg>(1 + pick(regs)));
    };
    std::vector<Operation> ops;
    for (int i = 0; i < n; ++i) {
        Operation op;
        op.dst = static_cast<Vreg>(1 + pick(regs));
        switch (pick(10)) {
          case 0:
          case 1:
            op.op = Opcode::Add;
            op.src = {reg(), reg(), Operand::none()};
            break;
          case 2:
            op.op = pick(2) ? Opcode::Shl : Opcode::Sra;
            op.src = {reg(), Operand::ofImm(3), Operand::none()};
            break;
          case 3:
            op.op = Opcode::Mul8;
            op.src = {reg(), reg(), Operand::none()};
            break;
          case 4:
            op.op = Opcode::Load;
            op.src = {reg(), Operand::none(), Operand::none()};
            op.buffer = pick(num_buffers);
            op.aliasToken = pick(2);
            op.noCarriedAlias = pick(2) == 0;
            break;
          case 5:
            op.op = Opcode::Store;
            op.dst = kNoVreg;
            op.src = {reg(), reg(), Operand::none()};
            op.buffer = pick(num_buffers);
            op.aliasToken = pick(2);
            op.noCarriedAlias = pick(2) == 0;
            break;
          case 6:
          case 7:
            op.op = Opcode::Xfer;
            op.src = {reg(), Operand::none(), Operand::none()};
            break;
          case 8:
            if (pick(3) == 0) {
                op.op = Opcode::BrCond;
                op.dst = kNoVreg;
                op.src = {reg(), Operand::none(), Operand::none()};
            } else {
                op.op = Opcode::Sub;
                op.src = {reg(), reg(), Operand::none()};
            }
            break;
          default:
            op.op = Opcode::Add;
            op.src = {reg(), Operand::ofImm(1), Operand::none()};
            if (pick(3) == 0) // predicated: output-dependence fan-in.
                op.pred = reg();
            break;
        }
        op.cluster = pick(machine.clusters());
        op.dstCluster = pick(machine.clusters());
        op.id = i;
        ops.push_back(op);
    }
    Operation br;
    br.op = Opcode::Br;
    br.id = n;
    ops.push_back(br);
    return ops;
}

TEST(ModuloKernelOracle, RandomBodies)
{
    // 200 seeded bodies mixing ALU, shifter, multiplier, load/store,
    // crossbar and branch ops. I2C16S4 has two banks with one LSU
    // each (bank-specific classes); on the one-bank models every LSU
    // serves any bank, so banks past the machine's (and negative
    // ones) exercise the any-bank class.
    const char *model_names[] = {"I4C8S4", "I4C8S5", "I2C16S4",
                                 "I2C16S5", "I4C8S4C"};
    ThreadPool pool(4);
    Rng rng(20240517);
    size_t attempts = 0;
    for (int body = 0; body < 200; ++body) {
        const char *model = model_names[body % 5];
        MachineModel machine(models::byName(model));
        const int banks = machine.memBanks();
        std::vector<int> bank_of_buffer;
        for (int b = 0; b < 4; ++b) {
            int bank = b % std::max(1, banks);
            if (banks <= 1 && b >= 2)
                bank = b == 2 ? 3 : -1; // out of range: any-bank LSU.
            bank_of_buffer.push_back(bank);
        }
        BankOfFn bank_of = [bank_of_buffer](int b) {
            return bank_of_buffer[static_cast<size_t>(b)];
        };
        std::vector<Operation> ops = randomBody(rng, machine, 4);
        attempts += checkBody(
            ops, machine, bank_of,
            body % 3 == 0 ? 0 : 2 + body % 5, pool,
            std::string(model) + " body " + std::to_string(body));
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(attempts, 200u);
}

TEST(ModuloKernelOracle, NoRecurrenceFailureFromTheIiSearch)
{
    // The search starts at MII >= RecMII, where every self-edge
    // already fits, so the once-per-attempt self-edge check never
    // fires from scheduleBudgeted(). The stats registry must be live
    // before the scheduler is built (it binds its scope then).
    obs::StatsRegistry reg;
    obs::setGlobalStats(&reg);
    Rng rng(7);
    for (int body = 0; body < 60; ++body) {
        MachineModel machine(models::byName(
            body % 2 ? "I2C16S4" : "I4C8S4"));
        BankOfFn bank_of = [&machine](int b) {
            return b % std::max(1, machine.memBanks());
        };
        ModuloScheduler sched(machine, bank_of);
        std::vector<Operation> ops = randomBody(rng, machine, 4);
        ASSERT_TRUE(sched.scheduleBudgeted(ops, 0, -1).has_value());
    }
    const KernelSpec &k = kernelByName("Variable-Bit-Rate Coder");
    MachineModel machine(models::byName("I4C8S4"));
    Function fn = lowerVariant(k, k.variants.back(), machine);
    BankOfFn bank_of = [&fn](int b) { return fn.buffer(b).bank; };
    ModuloScheduler sched(machine, bank_of);
    for (const auto &ops : swpLoopBodies(fn, k.variants.back().mode))
        sched.schedule(ops, machine.registersPerCluster());
    obs::setGlobalStats(nullptr);

    EXPECT_GT(reg.counterValue("sched/swp/attempts_ok"), 0u);
    EXPECT_EQ(reg.counterValue("sched/swp/attempts_fail_recurrence"),
              0u);
    // Every consumed attempt counts its placements.
    EXPECT_GE(reg.counterValue("sched/swp/placements"),
              reg.counterValue("sched/swp/evictions"));
}

} // namespace
} // namespace vvsp
