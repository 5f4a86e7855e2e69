/**
 * @file
 * Cross-cell memo of software-pipelined loop schedules.
 *
 * The study schedules the same loop body on the same datapath from
 * many cells: Table 2, the ablation and the conclusions reuse Table 1
 * variants, and cells whose lowerings differ elsewhere often share
 * identical loop bodies. The memo keys one modulo-scheduling problem
 * by exactly what ModuloScheduler::scheduleBudgeted() reads, so any
 * repeat in a sweep is answered without scheduling:
 *
 *  - the canonical machine key (arch/config_json.hh; the display
 *    name is not part of it);
 *  - the register-pressure target and the candidate-II budget;
 *  - the body's op count;
 *  - a 64-bit hash over every op's scheduling fields, packed six
 *    words per op and folded with a multiply-xorshift: opcode,
 *    destination, the three sources, the guard predicate and its
 *    sense, buffer and (for memory ops) its bank, alias token,
 *    streaming flag, cluster and destination cluster. Op ids are left
 *    out: no scheduler reads them.
 *
 * The key holds no copy of the ops. Trusting a 64-bit content hash
 * is the same model as the unit-profile memo's functionFingerprint.
 *
 * Only normal answers are stored. A degraded schedule, or no
 * schedule at all, depends on where the budget cut the search and is
 * recomputed by each cell that meets it (the result cache's rule for
 * budget-dependent results). While any failpoint is armed the memo is
 * bypassed entirely, so a forced-infeasible II cannot leak into
 * other cells. Lookups are single-flight (support/single_flight.hh);
 * a computation runs scheduleBudgeted(), whose speculative II
 * attempts never touch the memo, so a waiting cell always sees its
 * key land.
 */

#ifndef VVSP_SCHED_SCHEDULE_MEMO_HH
#define VVSP_SCHED_SCHEDULE_MEMO_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sched/modulo_scheduler.hh"
#include "support/single_flight.hh"

namespace vvsp
{

/** Thread-safe memo of modulo schedules, shared across cells. */
class ScheduleMemo
{
  public:
    /**
     * msched.scheduleBudgeted(ops, max_live_target, ii_budget),
     * answered from the memo when an equal problem was solved before.
     */
    std::optional<BlockSchedule>
    schedule(const ModuloScheduler &msched,
             const std::vector<Operation> &ops, int max_live_target,
             long ii_budget);

    /** Content key of one scheduling problem (see the file comment). */
    static std::string key(const ModuloScheduler &msched,
                           const std::vector<Operation> &ops,
                           int max_live_target, long ii_budget);

    /** Lookups answered from the memo. */
    uint64_t hits() const { return flights_.hits(); }
    /** Lookups that ran the scheduler. */
    uint64_t misses() const { return flights_.misses(); }

    /** Drop every schedule and zero the counts. */
    void clear() { flights_.clear(); }

  private:
    SingleFlight<std::optional<BlockSchedule>> flights_;
};

} // namespace vvsp

#endif // VVSP_SCHED_SCHEDULE_MEMO_HH
