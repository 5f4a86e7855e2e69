#include "sched/schedule_memo.hh"

#include <sstream>

#include "arch/config_json.hh"
#include "support/failpoint.hh"
#include "support/fnv.hh"

namespace vvsp
{

namespace
{

/**
 * Fold one 64-bit word into a running hash: xor, multiply by the
 * 64-bit golden ratio, xor-shift the high half down, so every input
 * bit reaches every bit of the next round (a plain xor-multiply
 * would let differences in the top bits cancel between words).
 */
uint64_t
foldWord(uint64_t h, uint64_t w)
{
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 32);
}

/** Low 32 bits of v, as a word lane. */
uint64_t
lane(int64_t v)
{
    return static_cast<uint32_t>(v);
}

/** An operand's value lane: its register or immediate, else 0. */
uint64_t
operandLane(const Operand &o)
{
    return o.isReg() ? lane(o.reg) : o.isImm() ? lane(o.imm) : 0;
}

} // anonymous namespace

std::string
ScheduleMemo::key(const ModuloScheduler &msched,
                  const std::vector<Operation> &ops,
                  int max_live_target, long ii_budget)
{
    const BankOfFn &bank_of = msched.bankOf();
    uint64_t h = Fnv1a64::kOffsetBasis;
    for (const Operation &op : ops) {
        const int bank = op.info().fuClass == FuClass::Mem && bank_of
                             ? bank_of(op.buffer)
                             : 0;
        // Every scheduling field in six packed words: one byte for
        // the opcode, each operand kind and each flag, 32-bit lanes
        // for the rest.
        const uint64_t kinds =
            static_cast<uint64_t>(op.op) |
            static_cast<uint64_t>(op.src[0].kind) << 8 |
            static_cast<uint64_t>(op.src[1].kind) << 16 |
            static_cast<uint64_t>(op.src[2].kind) << 24 |
            static_cast<uint64_t>(op.pred.kind) << 32 |
            static_cast<uint64_t>(op.predSense) << 40 |
            static_cast<uint64_t>(op.noCarriedAlias) << 48;
        h = foldWord(h, kinds);
        h = foldWord(h, lane(op.dst) | operandLane(op.pred) << 32);
        h = foldWord(h, operandLane(op.src[0]) |
                            operandLane(op.src[1]) << 32);
        h = foldWord(h, operandLane(op.src[2]) | lane(op.buffer) << 32);
        h = foldWord(h, lane(bank) | lane(op.aliasToken) << 32);
        h = foldWord(h, lane(op.cluster) | lane(op.dstCluster) << 32);
    }
    std::ostringstream os;
    os << canonicalMachineKey(msched.machine().config()) << '|'
       << max_live_target << '|' << ii_budget << '|' << ops.size()
       << '|' << std::hex << h;
    return os.str();
}

std::optional<BlockSchedule>
ScheduleMemo::schedule(const ModuloScheduler &msched,
                       const std::vector<Operation> &ops,
                       int max_live_target, long ii_budget)
{
    auto run = [&] {
        return msched.scheduleBudgeted(ops, max_live_target,
                                       ii_budget);
    };
    if (failpoint::active())
        return run();
    return flights_.get(
        key(msched, ops, max_live_target, ii_budget), run,
        [](const std::optional<BlockSchedule> &s) {
            return s && !s->degraded;
        });
}

} // namespace vvsp
