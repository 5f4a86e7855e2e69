#include "sched/modulo_scheduler.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <map>
#include <numeric>

#include "sched/reg_pressure.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"
#include "support/sched_arena.hh"
#include "support/thread_pool.hh"

namespace vvsp
{

namespace
{

/** Process-wide speculative II-search configuration. */
std::atomic<ThreadPool *> g_iiPool{nullptr};
std::atomic<int> g_iiWidth{1};

} // anonymous namespace

void
ModuloScheduler::setIiSearch(ThreadPool *pool, int width)
{
    g_iiPool.store(pool, std::memory_order_release);
    g_iiWidth.store(width, std::memory_order_release);
}

ModuloScheduler::ModuloScheduler(const MachineModel &machine,
                                 BankOfFn bank_of)
    : machine_(machine), bank_of_(std::move(bank_of)),
      table_(machine_, /*ii=*/1, bank_of_),
      stats_(obs::globalScope("sched"))
{
}

int
ModuloScheduler::resourceMii(const std::vector<Operation> &ops) const
{
    const int clusters = machine_.clusters();
    const int banks = std::max(1, machine_.memBanks());
    // Per-cluster class counts, flat: [0,C) total, [C,2C) mult,
    // [2C,3C) shift, [3C,4C) sends, [4C,5C) receives.
    ArenaVec<int32_t> counts;
    counts->assign(static_cast<size_t>(5 * clusters), 0);
    int32_t *total = counts->data();
    int32_t *mult = total + clusters;
    int32_t *shift = mult + clusters;
    int32_t *sends = shift + clusters;
    int32_t *receives = sends + clusters;
    ArenaVec<int32_t> mem_cnt; // (cluster, bank), banks in range.
    mem_cnt->assign(static_cast<size_t>(clusters) *
                        static_cast<size_t>(banks),
                    0);
    std::map<std::pair<int, int>, int> mem_odd; // out-of-range banks.
    int branches = 0;
    for (const auto &op : ops) {
        switch (op.info().fuClass) {
          case FuClass::Branch:
            branches++;
            continue;
          case FuClass::None:
            continue;
          default:
            break;
        }
        total[op.cluster]++;
        switch (op.info().fuClass) {
          case FuClass::Mult:
            mult[op.cluster]++;
            break;
          case FuClass::Shift:
            shift[op.cluster]++;
            break;
          case FuClass::Mem: {
            int bank = bank_of_ ? bank_of_(op.buffer) : 0;
            if (bank >= 0 && bank < banks) {
                (*mem_cnt)[static_cast<size_t>(op.cluster) *
                               static_cast<size_t>(banks) +
                           static_cast<size_t>(bank)]++;
            } else {
                mem_odd[{op.cluster, bank}]++;
            }
            break;
          }
          case FuClass::Xbar:
            sends[op.cluster]++;
            receives[op.dstCluster]++;
            break;
          default:
            break;
        }
        // Abs-diff issues from any ALU slot: no dedicated bound.
    }

    auto ceil_div = [](int a, int b) { return (a + b - 1) / b; };
    auto servers_of = [this](int bank) {
        int servers = 0;
        for (const auto &caps : machine_.slotCaps()) {
            if (caps.memBank == -2 || caps.memBank == bank)
                servers++;
        }
        return servers;
    };
    const ClusterConfig &cl = machine_.config().cluster;
    int mii = std::max(1, branches);
    int ports = machine_.crossbarPortsPerCluster();
    for (int c = 0; c < clusters; ++c) {
        mii = std::max(mii, ceil_div(total[c], cl.issueSlots));
        if (mult[c] > 0)
            mii = std::max(mii, ceil_div(mult[c], cl.numMultipliers));
        if (shift[c] > 0)
            mii = std::max(mii, ceil_div(shift[c], cl.numShifters));
        if (sends[c] > 0)
            mii = std::max(mii, ceil_div(sends[c], ports));
        if (receives[c] > 0)
            mii = std::max(mii, ceil_div(receives[c], ports));
        for (int b = 0; b < banks; ++b) {
            int k = (*mem_cnt)[static_cast<size_t>(c) *
                                   static_cast<size_t>(banks) +
                               static_cast<size_t>(b)];
            if (k == 0)
                continue;
            int servers = servers_of(b);
            vvsp_assert(servers > 0,
                        "no load/store unit serves bank %d", b);
            mii = std::max(mii, ceil_div(k, servers));
        }
    }
    for (const auto &[cb, k] : mem_odd) {
        int servers = servers_of(cb.second);
        vvsp_assert(servers > 0, "no load/store unit serves bank %d",
                    cb.second);
        mii = std::max(mii, ceil_div(k, servers));
    }
    return mii;
}

ModuloScheduler::AttemptOutcome
ModuloScheduler::attempt(const std::vector<Operation> &ops,
                         const DependenceGraph &ddg, int ii,
                         const std::vector<int> &by_priority,
                         ReservationTable &table,
                         std::vector<int> *start) const
{
    using Kind = AttemptOutcome::Kind;
    AttemptOutcome outcome;
    const int n = static_cast<int>(ops.size());
    start->assign(static_cast<size_t>(n), -1);
    // All scratch from the worker's arena: zero heap churn at steady
    // state, and safe under speculative parallel attempts (each
    // worker thread has its own arena).
    ArenaVec<int32_t> prev_a, slot_a, rank_a, head_a, nxt_a, prv_a;
    std::vector<int32_t> &prev = *prev_a;
    std::vector<int32_t> &slot_of = *slot_a;
    std::vector<int32_t> &rank_of = *rank_a;
    prev.assign(static_cast<size_t>(n), -1);
    slot_of.assign(static_cast<size_t>(n), -1);
    rank_of.resize(static_cast<size_t>(n));
    table.reset(ii);

    // Ops placed in each modulo row as intrusive doubly-linked lists:
    // forced placement evicts a row's occupants by walking its list
    // instead of scanning all n ops.
    std::vector<int32_t> &row_head = *head_a;
    std::vector<int32_t> &nxt = *nxt_a;
    std::vector<int32_t> &prv = *prv_a;
    row_head.assign(static_cast<size_t>(ii), -1);
    nxt.assign(static_cast<size_t>(n), -1);
    prv.assign(static_cast<size_t>(n), -1);
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

    // Unscheduled ops as a bitset over priority ranks: the first set
    // bit is the next op to place, so selection is a word scan
    // instead of an O(n) height sweep per placement.
    for (int r = 0; r < n; ++r)
        rank_of[static_cast<size_t>(by_priority[static_cast<size_t>(
            r)])] = r;
    ArenaVec<uint64_t> unplaced_a;
    std::vector<uint64_t> &unplaced = *unplaced_a;
    unplaced.assign((static_cast<size_t>(n) + 63) / 64, ~uint64_t{0});
    if (n % 64)
        unplaced.back() = (uint64_t{1} << (n % 64)) - 1;

    auto unschedule = [&](int i) {
        if ((*start)[static_cast<size_t>(i)] < 0)
            return;
        table.release(ops[static_cast<size_t>(i)],
                      (*start)[static_cast<size_t>(i)],
                      slot_of[static_cast<size_t>(i)]);
        (*start)[static_cast<size_t>(i)] = -1;
        row_unlink(i);
        outcome.evictions++;
        int r = rank_of[static_cast<size_t>(i)];
        unplaced[static_cast<size_t>(r) / 64] |= uint64_t{1}
                                                 << (r % 64);
    };

    long budget = 32L * n + 256;
    while (true) {
        // Highest-priority unscheduled op: height descending, ties
        // in program order - i.e. the lowest set rank.
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
            int from = (*start)[static_cast<size_t>(edge.from)];
            if (from < 0)
                continue;
            estart = std::max(estart,
                              from + edge.latency - ii * edge.distance);
        }

        const Operation &op = ops[static_cast<size_t>(op_idx)];
        int slot = -1;
        int placed_at = table.findFirstFit(op, estart, &slot);
        if (placed_at < 0) {
            // Forced placement: free the modulo row and take it.
            // Eviction releases independent reservations, so the
            // walk order over the row's occupants does not matter.
            int t = std::max(estart,
                             prev[static_cast<size_t>(op_idx)] + 1);
            for (int i = row_head[static_cast<size_t>(t % ii)];
                 i >= 0;) {
                int next = nxt[static_cast<size_t>(i)];
                unschedule(i);
                i = next;
            }
            bool ok = table.tryReserve(op, t, &slot);
            vvsp_assert(ok, "forced placement failed at t=%d ii=%d", t,
                        ii);
            placed_at = t;
        }
        (*start)[static_cast<size_t>(op_idx)] = placed_at;
        slot_of[static_cast<size_t>(op_idx)] = slot;
        prev[static_cast<size_t>(op_idx)] = placed_at;
        row_link(op_idx, placed_at);
        {
            int r = rank_of[static_cast<size_t>(op_idx)];
            unplaced[static_cast<size_t>(r) / 64] &=
                ~(uint64_t{1} << (r % 64));
        }

        // Evict successors whose dependence the new placement breaks.
        for (int e : ddg.succEdges(op_idx)) {
            const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
            int to = (*start)[static_cast<size_t>(edge.to)];
            if (edge.to == op_idx || to < 0)
                continue;
            if (to < placed_at + edge.latency - ii * edge.distance)
                unschedule(edge.to);
        }
        // Self-edges (loop-carried) must hold: lat <= ii * dist.
        for (int e : ddg.succEdges(op_idx)) {
            const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
            if (edge.to == op_idx &&
                edge.latency > ii * edge.distance) {
                // The recurrence cannot fit this II.
                outcome.kind = Kind::FailRecurrence;
                return outcome;
            }
        }
    }
}

ModuloScheduler::AttemptOutcome
ModuloScheduler::timedAttempt(const std::vector<Operation> &ops,
                              const DependenceGraph &ddg, int ii,
                              const std::vector<int> &by_priority,
                              ReservationTable &table,
                              std::vector<int> *start) const
{
    if (!stats_.enabled())
        return attempt(ops, ddg, ii, by_priority, table, start);
    auto t0 = std::chrono::steady_clock::now();
    AttemptOutcome outcome =
        attempt(ops, ddg, ii, by_priority, table, start);
    outcome.us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    return outcome;
}

void
ModuloScheduler::recordAttempt(const AttemptOutcome &outcome) const
{
    if (!stats_.enabled())
        return;
    using Kind = AttemptOutcome::Kind;
    obs::StatsScope swp = stats_.scope("swp");
    swp.bump(outcome.kind == Kind::Ok ? "attempts_ok"
             : outcome.kind == Kind::FailBudget
                 ? "attempts_fail_budget"
                 : "attempts_fail_recurrence");
    swp.bump("evictions", outcome.evictions);
    swp.sample("attempt_us", outcome.us);
}

BlockSchedule
ModuloScheduler::schedule(const std::vector<Operation> &ops,
                          int max_live_target) const
{
    auto result = scheduleBudgeted(ops, max_live_target,
                                   /*ii_budget=*/-1);
    if (!result) {
        vvsp_panic("modulo scheduler found no II for %d ops on %s",
                   static_cast<int>(ops.size()),
                   machine_.name().c_str());
    }
    return std::move(*result);
}

std::optional<BlockSchedule>
ModuloScheduler::scheduleBudgeted(const std::vector<Operation> &ops,
                                  int max_live_target,
                                  long ii_budget) const
{
    const int n = static_cast<int>(ops.size());
    vvsp_assert(n > 0, "modulo scheduling an empty block");
    for (const auto &op : ops) {
        vvsp_assert(machine_.canExecute(op),
                    "%s cannot execute '%s' (recipe must lower it)",
                    machine_.name().c_str(), op.str().c_str());
    }

    stats_.bump("modulo_runs");
    ddg_.build(ops, machine_.latencyFn(), /*loop_carried=*/true);
    const DependenceGraph &ddg = ddg_;
    int mii = std::max(resourceMii(ops), ddg.recurrenceMii());

    // Static scheduling priority, shared by every II attempt.
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
        // Kernel-only code: the machine's predicated execution fills
        // and drains the pipeline from the same II instruction words
        // (prologue/epilogue cost cycles but no icache space).
        result.instructions = ii;
        result.maxLive = maxLivePerCluster(ops, result, machine_, ii);
        return result;
    };

    // Feasible IIs are consumed in ascending order with the same
    // control flow whether attempts ran sequentially or
    // speculatively, so both paths return bit-identical schedules.
    BlockSchedule best;
    bool have_best = false;
    int pressure_retries = 0;
    BlockSchedule decided;
    auto consume = [&](BlockSchedule cand) -> bool {
        if (max_live_target <= 0 || cand.maxLive <= max_live_target) {
            decided = std::move(cand);
            return true;
        }
        if (!have_best || cand.maxLive < best.maxLive) {
            best = std::move(cand);
            have_best = true;
        }
        // A few slack steps often untangle the bin-packing enough
        // for value lifetimes to shorten; give up after that.
        if (++pressure_retries >= 6) {
            decided = best;
            return true;
        }
        return false;
    };

    // Candidate-II budget, consumed in ascending II order at the
    // point each candidate's result is (or would be) inspected — the
    // same accounting in both search paths, so budgeted runs stay
    // bit-identical at any thread count. The "sched/ii_attempt"
    // failpoint is likewise evaluated once per candidate, in order.
    long budget = ii_budget < 0 ? std::numeric_limits<long>::max()
                                : ii_budget;
    bool exhausted = false;

    const int max_ii = mii + 2 * n + 16;
    ThreadPool *pool = g_iiPool.load(std::memory_order_acquire);
    int width = g_iiWidth.load(std::memory_order_acquire);
    if (pool != nullptr && width > 1) {
        // Speculative search: attempt a wave of candidate IIs
        // concurrently, then replay the sequential decision over the
        // wave's results in ascending II order. attempt() is a pure
        // function of (ops, ddg, ii) with its own table and arena
        // scratch, so extra speculative results are simply discarded.
        for (int base = mii; base <= max_ii && !exhausted;) {
            int wave = std::min(width, max_ii - base + 1);
            std::vector<AttemptOutcome> outcomes(
                static_cast<size_t>(wave));
            std::vector<BlockSchedule> cands(
                static_cast<size_t>(wave));
            TaskGroup group(pool);
            for (int k = 0; k < wave; ++k) {
                group.submit([&, k, base] {
                    int ii = base + k;
                    ReservationTable tab(machine_, ii, bank_of_);
                    std::vector<int> start;
                    AttemptOutcome &outcome =
                        outcomes[static_cast<size_t>(k)];
                    outcome = timedAttempt(ops, ddg, ii, by_priority,
                                           tab, &start);
                    if (outcome.ok()) {
                        cands[static_cast<size_t>(k)] =
                            build(ii, start);
                    }
                });
            }
            group.wait();
            for (int k = 0; k < wave; ++k) {
                if (budget-- <= 0) {
                    exhausted = true;
                    break;
                }
                if (failpoint::evaluate("sched/ii_attempt"))
                    continue; // forced infeasible.
                const AttemptOutcome &outcome =
                    outcomes[static_cast<size_t>(k)];
                recordAttempt(outcome);
                if (!outcome.ok())
                    continue;
                if (consume(std::move(cands[static_cast<size_t>(k)])))
                    return decided;
            }
            base += wave;
        }
    } else {
        std::vector<int> start;
        for (int ii = mii; ii <= max_ii; ++ii) {
            if (budget-- <= 0) {
                exhausted = true;
                break;
            }
            if (failpoint::evaluate("sched/ii_attempt"))
                continue; // forced infeasible.
            AttemptOutcome outcome =
                timedAttempt(ops, ddg, ii, by_priority, table_, &start);
            recordAttempt(outcome);
            if (!outcome.ok())
                continue;
            if (consume(build(ii, start)))
                return decided;
        }
    }
    if (exhausted)
        stats_.bump("budget_exhausted");
    if (have_best) {
        best.degraded = exhausted;
        return best;
    }
    return std::nullopt;
}

} // namespace vvsp
