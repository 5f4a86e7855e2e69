/**
 * @file
 * ListSchedulerOracle: the list scheduler against a plain reference
 * kept here as its specification. The reference walks the ready list
 * in priority order every cycle and probes the table's cycle API
 * (tryReserve on the whole op) for every ready op whose operands are
 * available, with no key caching, no refusal memo and no early stop
 * in width-1 mode. The scheduler must match it op for op: the same
 * cycle, cluster and slot for every op, and the same length,
 * instruction count and MaxLive, in wide and width-1 mode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "arch/model_registry.hh"
#include "arch/models.hh"
#include "core/experiment.hh"
#include "ir/dependence_graph.hh"
#include "kernels/kernel.hh"
#include "sched/list_scheduler.hh"
#include "sched/reg_pressure.hh"
#include "sched/reservation_table.hh"
#include "support/random.hh"
#include "swp_bodies.hh"
#include "xform/passes.hh"

namespace vvsp
{
namespace
{

/** The reference list schedule of one block. */
BlockSchedule
oracleSchedule(const std::vector<Operation> &ops,
               const MachineModel &machine, const BankOfFn &bank_of,
               bool width1)
{
    const int n = static_cast<int>(ops.size());
    BlockSchedule result;
    result.placed.assign(static_cast<size_t>(n), PlacedOp{});
    if (n == 0) {
        result.length = 0;
        return result;
    }
    DependenceGraph ddg(ops, machine.latencyFn(), /*loop_carried=*/false);
    int branch_idx = -1;
    for (int i = 0; i < n; ++i) {
        if (ops[static_cast<size_t>(i)].info().isBranch)
            branch_idx = i;
    }

    ReservationTable table(machine, /*ii=*/0, bank_of, width1);
    std::vector<int> start(static_cast<size_t>(n), -1);
    std::vector<int> unplaced_preds(static_cast<size_t>(n), 0);
    std::vector<int> earliest(static_cast<size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
        for (int e : ddg.predEdges(i)) {
            const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
            if (edge.distance == 0 && edge.from != branch_idx)
                unplaced_preds[static_cast<size_t>(i)]++;
        }
    }
    auto priority_less = [&ddg](int a, int b) {
        int ha = ddg.height(a), hb = ddg.height(b);
        if (ha != hb)
            return ha > hb;
        return a < b;
    };

    // ready stays sorted by priority; ops that become ready in a
    // cycle are merged in after it (they cannot issue before the
    // next one).
    std::vector<int> ready, pending;
    for (int i = 0; i < n; ++i) {
        if (i != branch_idx && unplaced_preds[static_cast<size_t>(i)] == 0)
            ready.push_back(i);
    }
    std::sort(ready.begin(), ready.end(), priority_less);
    int placed_count = branch_idx >= 0 ? 1 : 0;
    for (int cycle = 0; placed_count < n; ++cycle) {
        size_t keep = 0;
        for (size_t rdi = 0; rdi < ready.size(); ++rdi) {
            int i = ready[rdi];
            int slot = -1;
            if (earliest[static_cast<size_t>(i)] > cycle ||
                !table.tryReserve(ops[static_cast<size_t>(i)], cycle,
                                  &slot)) {
                ready[keep++] = i;
                continue;
            }
            start[static_cast<size_t>(i)] = cycle;
            result.placed[static_cast<size_t>(i)] =
                PlacedOp{cycle, ops[static_cast<size_t>(i)].cluster, slot};
            placed_count++;
            for (int e : ddg.succEdges(i)) {
                const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
                if (edge.distance != 0)
                    continue;
                auto t = static_cast<size_t>(edge.to);
                earliest[t] = std::max(earliest[t], cycle + edge.latency);
                if (--unplaced_preds[t] == 0 && edge.to != branch_idx)
                    pending.push_back(edge.to);
            }
        }
        ready.resize(keep);
        for (int i : pending) {
            ready.insert(std::lower_bound(ready.begin(), ready.end(), i,
                                          priority_less),
                         i);
        }
        pending.clear();
    }

    int issue_max = 0;
    int completion_max = 0;
    for (int i = 0; i < n; ++i) {
        if (i == branch_idx)
            continue;
        int t = start[static_cast<size_t>(i)];
        issue_max = std::max(issue_max, t);
        if (ops[static_cast<size_t>(i)].info().hasDst) {
            completion_max = std::max(
                completion_max,
                t + machine.latency(ops[static_cast<size_t>(i)]));
        }
    }
    int delay = machine.branchDelaySlots();
    if (branch_idx >= 0) {
        int cond_ready = 0;
        for (int e : ddg.predEdges(branch_idx)) {
            const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
            if (edge.distance == 0) {
                cond_ready = std::max(
                    cond_ready,
                    start[static_cast<size_t>(edge.from)] + edge.latency);
            }
        }
        int bc = width1 ? std::max(cond_ready, issue_max + 1 - delay)
                        : std::max(cond_ready,
                                   std::max(0, issue_max - delay));
        result.placed[static_cast<size_t>(branch_idx)] =
            PlacedOp{bc, 0, -1};
        result.length = std::max(issue_max + (width1 ? 2 : 1),
                                 bc + 1 + delay);
        result.length = std::max(result.length, completion_max);
    } else {
        result.length = std::max(issue_max + 1, completion_max);
    }
    result.instructions = result.length;
    result.maxLive = maxLivePerCluster(ops, result, machine, 0);
    return result;
}

void
expectSameSchedule(const BlockSchedule &want, const BlockSchedule &got,
                   const std::string &what)
{
    EXPECT_EQ(want.length, got.length) << what;
    EXPECT_EQ(want.instructions, got.instructions) << what;
    EXPECT_EQ(want.maxLive, got.maxLive) << what;
    ASSERT_EQ(want.placed.size(), got.placed.size()) << what;
    for (size_t i = 0; i < want.placed.size(); ++i) {
        ASSERT_EQ(want.placed[i].cycle, got.placed[i].cycle)
            << what << ", op " << i;
        ASSERT_EQ(want.placed[i].cluster, got.placed[i].cluster)
            << what << ", op " << i;
        ASSERT_EQ(want.placed[i].slot, got.placed[i].slot)
            << what << ", op " << i;
    }
}

/** Schedule one block in both modes with a pooled scheduler. */
void
checkBlock(const std::vector<Operation> &ops, const MachineModel &machine,
           const BankOfFn &bank_of, const ListScheduler &sched,
           const std::string &what)
{
    for (bool width1 : {false, true}) {
        std::string at = what + (width1 ? " width-1" : " wide");
        expectSameSchedule(oracleSchedule(ops, machine, bank_of, width1),
                           sched.schedule(ops, width1), at);
    }
}

class ListSchedulerOracleModel
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ListSchedulerOracleModel, EveryKernelBlock)
{
    // Every block of every variant of every kernel, lowered on this
    // model, plus the software-pipelined loop bodies (which end in
    // the loop's branch) of the Swp variants.
    const std::string &model = GetParam();
    size_t blocks = 0, largest = 0;
    for (const KernelSpec &k : allKernels()) {
        for (const VariantSpec &v : k.variants) {
            DatapathConfig cfg = models::byName(model);
            if (v.needsAbsDiff)
                cfg.cluster.hasAbsDiff = true;
            MachineModel machine(cfg);
            Function fn = lowerVariant(k, v, machine);
            BankOfFn bank_of = [&fn](int b) { return fn.buffer(b).bank; };
            ListScheduler sched(machine, bank_of);
            const std::string what = model + " / " + k.name + " / " + v.name;
            std::vector<std::vector<Operation>> bodies =
                swpLoopBodies(fn, v.mode);
            passes::forEachBlock(fn, [&](BlockNode &block) {
                bodies.push_back(block.ops);
            });
            for (const auto &ops : bodies) {
                checkBlock(ops, machine, bank_of, sched,
                           what + ", " + std::to_string(ops.size()) +
                               " ops");
                if (::testing::Test::HasFatalFailure())
                    return;
                largest = std::max(largest, ops.size());
                ++blocks;
            }
        }
    }
    EXPECT_GT(blocks, 100u);
    // DCT-traditional's unrolled block: 11,766 ops where multiplies
    // decompose onto 8-bit multipliers, fewer on the M16 models.
    EXPECT_GT(largest, 10000u);
}

// The suite is named ListSchedulerOracle/...; one test per registered
// model, so ctest runs them in parallel.
INSTANTIATE_TEST_SUITE_P(
    ListSchedulerOracle, ListSchedulerOracleModel,
    ::testing::ValuesIn(ModelRegistry::instance().names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

/**
 * A random block over every reservation-key kind: ALU, shifter,
 * multiplier, loads and stores on every bank (including out-of-range
 * ones), crossbar transfers, predicated ops, and at most one branch.
 */
std::vector<Operation>
randomBlock(Rng &rng, const MachineModel &machine, int num_buffers)
{
    auto pick = [&rng](int k) {
        return static_cast<int>(rng.next() % static_cast<uint64_t>(k));
    };
    const int n = 1 + pick(60);
    const int regs = 3 + pick(12);
    auto reg = [&] {
        return Operand::ofReg(static_cast<Vreg>(1 + pick(regs)));
    };
    std::vector<Operation> ops;
    for (int i = 0; i < n; ++i) {
        Operation op;
        op.dst = static_cast<Vreg>(1 + pick(regs));
        switch (pick(9)) {
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
            break;
          case 5:
            op.op = Opcode::Store;
            op.dst = kNoVreg;
            op.src = {reg(), reg(), Operand::none()};
            op.buffer = pick(num_buffers);
            op.aliasToken = pick(2);
            break;
          case 6:
          case 7:
            op.op = Opcode::Xfer;
            op.src = {reg(), Operand::none(), Operand::none()};
            break;
          default:
            op.op = Opcode::Sub;
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
    // No branch, a trailing one (the composer's shape), or one
    // inside the block.
    int where = pick(3);
    if (where > 0) {
        Operation br;
        br.op = pick(2) ? Opcode::Br : Opcode::BrCond;
        if (br.op == Opcode::BrCond)
            br.src[0] = reg();
        br.id = n;
        size_t at = where == 1 ? ops.size()
                               : static_cast<size_t>(pick(n + 1));
        ops.insert(ops.begin() + static_cast<ptrdiff_t>(at), br);
    }
    return ops;
}

TEST(ListSchedulerOracle, RandomBlocks)
{
    // 200 seeded blocks. I2C16S4 has two banks with one LSU each
    // (bank-specific classes); on the one-bank models every LSU
    // serves any bank, so banks past the machine's (and negative
    // ones) exercise the any-bank class.
    const char *model_names[] = {"I4C8S4", "I4C8S5", "I2C16S4",
                                 "I2C16S5", "I4C8S4C"};
    Rng rng(20261018);
    for (int block = 0; block < 200; ++block) {
        const char *model = model_names[block % 5];
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
        ListScheduler sched(machine, bank_of);
        // Two blocks per scheduler: the pooled state must not leak.
        for (int rep = 0; rep < 2; ++rep) {
            std::vector<Operation> ops = randomBlock(rng, machine, 4);
            checkBlock(ops, machine, bank_of, sched,
                       std::string(model) + " block " +
                           std::to_string(block) + "." +
                           std::to_string(rep));
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

} // namespace
} // namespace vvsp
