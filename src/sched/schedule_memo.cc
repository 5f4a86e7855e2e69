#include "sched/schedule_memo.hh"

#include <sstream>

#include "arch/config_json.hh"
#include "support/failpoint.hh"
#include "support/fnv.hh"

namespace vvsp
{

namespace
{

void
hashOperand(Fnv1a64 &f, const Operand &o)
{
    f.byte(static_cast<uint8_t>(o.kind));
    if (o.isReg())
        f.littleEndian(o.reg, 4);
    else if (o.isImm())
        f.littleEndian(static_cast<uint32_t>(o.imm), 4);
}

} // anonymous namespace

std::string
ScheduleMemo::key(const ModuloScheduler &msched,
                  const std::vector<Operation> &ops,
                  int max_live_target, long ii_budget)
{
    const BankOfFn &bank_of = msched.bankOf();
    Fnv1a64 f;
    for (const Operation &op : ops) {
        f.byte(static_cast<uint8_t>(op.op));
        f.littleEndian(op.dst, 4);
        for (const Operand &src : op.src)
            hashOperand(f, src);
        hashOperand(f, op.pred);
        f.byte(op.predSense ? 1 : 0);
        f.littleEndian(static_cast<uint32_t>(op.buffer), 4);
        const int bank = op.info().fuClass == FuClass::Mem && bank_of
                             ? bank_of(op.buffer)
                             : 0;
        f.littleEndian(static_cast<uint32_t>(bank), 4);
        f.littleEndian(static_cast<uint32_t>(op.aliasToken), 4);
        f.byte(op.noCarriedAlias ? 1 : 0);
        f.littleEndian(static_cast<uint32_t>(op.cluster), 4);
        f.littleEndian(static_cast<uint32_t>(op.dstCluster), 4);
    }
    std::ostringstream os;
    os << canonicalMachineKey(msched.machine().config()) << '|'
       << max_live_target << '|' << ii_budget << '|' << ops.size()
       << '|' << std::hex << f.value();
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
