/**
 * @file
 * Iterative modulo scheduler (software pipelining).
 *
 * Implements Rau's iterative modulo scheduling: the initiation
 * interval starts at MII = max(ResMII, RecMII) and grows until a
 * feasible schedule is found. Operation placement uses height
 * priority with a backtracking budget; forced placements evict
 * conflicting operations and dependence-violating successors.
 *
 * This is the "software pipelining" the paper applies to every
 * data-parallel kernel (Sec. 3.3); the full-motion-search inner loop
 * reaches II = 1 on an unconstrained cluster and II = 2 when the
 * single load/store unit of the I4C8* clusters is the bottleneck
 * (Sec. 3.4.1).
 */

#ifndef VVSP_SCHED_MODULO_SCHEDULER_HH
#define VVSP_SCHED_MODULO_SCHEDULER_HH

#include <optional>
#include <utility>
#include <vector>

#include "arch/machine_model.hh"
#include "ir/dependence_graph.hh"
#include "obs/stats_registry.hh"
#include "sched/reservation_table.hh"
#include "sched/schedule.hh"

namespace vvsp
{

class ThreadPool;

/** Modulo scheduler for an innermost-loop body. */
class ModuloScheduler
{
  public:
    ModuloScheduler(const MachineModel &machine, BankOfFn bank_of);

    /**
     * Configure process-wide speculative II search: candidate IIs of
     * one schedule() call are attempted concurrently on `pool` in
     * waves of `width`, and the results are consumed in ascending II
     * order with exactly the sequential search's control flow - each
     * attempt is a pure function of (ops, ddg, ii), so the outcome is
     * bit-identical to the sequential search at any thread count.
     * width <= 1 or a null pool keeps the sequential path (the
     * default). The pool must outlive scheduling; callers clear the
     * configuration (nullptr, 1) when their pool goes away.
     */
    static void setIiSearch(ThreadPool *pool, int width);

    /**
     * Software-pipeline the loop-body ops (cluster fields assigned;
     * loop-control ops included). Panics if no schedule is found up
     * to a generous II bound, which would be a scheduler bug since
     * II = length(list schedule) is always feasible.
     *
     * When max_live_target > 0 and the minimum-II schedule needs
     * more simultaneously-live values than the target, the II is
     * increased a few steps looking for a schedule that fits the
     * register file (Rau's register-pressure-driven II growth); the
     * lowest-pressure schedule found is returned either way.
     */
    BlockSchedule schedule(const std::vector<Operation> &ops,
                           int max_live_target = 0) const;

    /**
     * schedule() under a candidate-II budget: at most `ii_budget`
     * candidate IIs are examined (each counts once, feasible or
     * not; negative means unlimited). If the search decides within
     * budget, the result is identical to schedule(). On exhaustion,
     * the best feasible schedule found so far is returned with its
     * `degraded` flag set; if no candidate was feasible, nullopt —
     * the caller falls back to an acyclic list schedule. The budget
     * is consumed in ascending II order in both the sequential and
     * the speculative search, so results stay bit-identical at any
     * thread count.
     *
     * The "sched/ii_attempt" failpoint, evaluated once per candidate
     * II in ascending order, forces that candidate infeasible —
     * tests use it to exhaust the budget deterministically.
     */
    std::optional<BlockSchedule>
    scheduleBudgeted(const std::vector<Operation> &ops,
                     int max_live_target, long ii_budget) const;

    /** Resource-constrained lower bound on the II. */
    int resourceMii(const std::vector<Operation> &ops) const;

    /** How one II attempt ended, and what it cost. */
    struct AttemptOutcome
    {
        enum class Kind : uint8_t
        {
            Ok,             ///< every op placed.
            FailBudget,     ///< placement budget exhausted.
            FailRecurrence, ///< a self-recurrence cannot fit the II.
        };
        Kind kind = Kind::Ok;
        uint64_t evictions = 0;  ///< placed ops unscheduled again.
        uint64_t placements = 0; ///< ops placed, forced or not.
        uint64_t us = 0;         ///< wall time; 0 with stats off.

        bool ok() const { return kind == Kind::Ok; }
    };

    /**
     * One II attempt exactly as scheduleBudgeted() makes it, on its
     * own (tests compare it against a reference kernel). Sets
     * (*start)[i] to op i's start cycle, or -1 when the attempt ended
     * with op i unplaced. Records no statistics.
     */
    AttemptOutcome attemptAt(const std::vector<Operation> &ops, int ii,
                             std::vector<int> *start) const;

  private:
    /**
     * The read-only input every II attempt of one block shares,
     * built once per scheduleBudgeted() call (speculative attempts
     * read it concurrently). Ops are renumbered by scheduling
     * priority - height descending, ties in program order - so the
     * attempt kernel works on ranks: the next op to place is the
     * lowest unplaced rank, and ops placed close together in time
     * sit close together in memory.
     */
    struct AttemptInput
    {
        /** One dependence edge seen from one end. */
        struct Arc
        {
            int32_t rank; ///< the other end.
            int32_t latency;
            int32_t distance;
        };

        std::vector<int32_t> opOf; ///< op index of each rank.
        std::vector<ReservationTable::OpKey> keys; ///< by rank.
        /**
         * Packed adjacency: rank r's predecessor arcs are
         * preds[predOff[r] .. predOff[r+1]), in the dependence
         * graph's edge order; likewise succs. Self-edges are kept
         * apart in selfEdges.
         */
        std::vector<int32_t> predOff, succOff;
        std::vector<Arc> preds, succs;
        /** (latency, distance) of every self-edge. */
        std::vector<std::pair<int32_t, int32_t>> selfEdges;
    };

    /** Build ddg_ and input_ for a block. */
    void prepare(const std::vector<Operation> &ops) const;

    /**
     * One II try. The caller supplies the reservation table (the
     * pooled member for the sequential search, a private table per
     * speculative task); all other scratch comes from the worker's
     * SchedArena.
     */
    AttemptOutcome attempt(const AttemptInput &in, int ii,
                           ReservationTable &table,
                           std::vector<int> *start) const;

    /** attempt(), timed only when stats are enabled. */
    AttemptOutcome timedAttempt(const AttemptInput &in, int ii,
                                ReservationTable &table,
                                std::vector<int> *start) const;

    /**
     * Record a consumed attempt under "sched/swp/": outcome counters
     * (attempts_ok, attempts_fail_budget, attempts_fail_recurrence),
     * evictions, placements, and the attempt_us distribution. Called
     * only for results consumed in ascending II order, so the counts
     * are the same at any thread count.
     */
    void recordAttempt(const AttemptOutcome &outcome) const;

    const MachineModel &machine_;
    BankOfFn bank_of_;
    /** Pooled across attempts; reset() per II tried. */
    mutable ReservationTable table_;
    /** Pooled across schedule() calls; rebuilt in place per block. */
    mutable DependenceGraph ddg_;
    mutable AttemptInput input_;
    obs::StatsScope stats_;
};

} // namespace vvsp

#endif // VVSP_SCHED_MODULO_SCHEDULER_HH
