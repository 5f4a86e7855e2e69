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

/**
 * x mod d for 0 <= x < 2^32 by two multiplications instead of a
 * division (Lemire, Kaser and Kurz, "Faster remainder by direct
 * computation", 2019): exact for every 32-bit x and d >= 1.
 */
class FastMod
{
  public:
    explicit FastMod(uint32_t d) : m_(~uint64_t{0} / d + 1), d_(d) {}

    int
    operator()(int x) const
    {
        uint64_t low = m_ * static_cast<uint32_t>(x);
        return static_cast<int>(
            (static_cast<unsigned __int128>(low) * d_) >> 64);
    }

  private:
    uint64_t m_;
    uint64_t d_;
};

/**
 * Start cycle of an unplaced op inside attempt(): negative enough
 * that start + latency - ii * distance stays below 0 for any edge,
 * so the estart maximum needs no "is it placed" test.
 */
constexpr int32_t kUnplaced = std::numeric_limits<int32_t>::min() / 2;

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

void
ModuloScheduler::prepare(const std::vector<Operation> &ops) const
{
    const int n = static_cast<int>(ops.size());
    vvsp_assert(n > 0, "modulo scheduling an empty block");
    for (const auto &op : ops) {
        vvsp_assert(machine_.canExecute(op),
                    "%s cannot execute '%s' (recipe must lower it)",
                    machine_.name().c_str(), op.str().c_str());
    }
    ddg_.build(ops, machine_.latencyFn(), /*loop_carried=*/true);
    const DependenceGraph &ddg = ddg_;

    AttemptInput &in = input_;
    in.opOf.resize(static_cast<size_t>(n));
    std::iota(in.opOf.begin(), in.opOf.end(), 0);
    std::stable_sort(in.opOf.begin(), in.opOf.end(),
                     [&ddg](int a, int b) {
                         return ddg.height(a) > ddg.height(b);
                     });
    ArenaVec<int32_t> rank_a;
    std::vector<int32_t> &rank_of = *rank_a;
    rank_of.resize(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r)
        rank_of[static_cast<size_t>(in.opOf[static_cast<size_t>(r)])] =
            r;

    // A self-edge never bounds its own op's estart (the op is
    // unplaced while it is being placed) and never evicts it, so the
    // arcs leave self-edges out; attempt() checks them once.
    in.keys.resize(static_cast<size_t>(n));
    in.preds.clear();
    in.succs.clear();
    in.selfEdges.clear();
    in.predOff.assign(1, 0);
    in.succOff.assign(1, 0);
    for (int r = 0; r < n; ++r) {
        const int i = in.opOf[static_cast<size_t>(r)];
        in.keys[static_cast<size_t>(r)] =
            table_.keyOf(ops[static_cast<size_t>(i)]);
        for (int e : ddg.predEdges(i)) {
            const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
            if (edge.from == i) {
                in.selfEdges.emplace_back(edge.latency, edge.distance);
                continue;
            }
            in.preds.push_back(
                {rank_of[static_cast<size_t>(edge.from)], edge.latency,
                 edge.distance});
        }
        for (int e : ddg.succEdges(i)) {
            const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
            if (edge.to != i) {
                in.succs.push_back(
                    {rank_of[static_cast<size_t>(edge.to)],
                     edge.latency, edge.distance});
            }
        }
        in.predOff.push_back(static_cast<int32_t>(in.preds.size()));
        in.succOff.push_back(static_cast<int32_t>(in.succs.size()));
    }
}

ModuloScheduler::AttemptOutcome
ModuloScheduler::attemptAt(const std::vector<Operation> &ops, int ii,
                           std::vector<int> *start) const
{
    prepare(ops);
    return attempt(input_, ii, table_, start);
}

ModuloScheduler::AttemptOutcome
ModuloScheduler::attempt(const AttemptInput &in, int ii,
                         ReservationTable &table,
                         std::vector<int> *start) const
{
    using Kind = AttemptOutcome::Kind;
    using Arc = AttemptInput::Arc;
    AttemptOutcome outcome;
    const int n = static_cast<int>(in.opOf.size());
    start->assign(static_cast<size_t>(n), -1);

    // Self-edges (loop-carried) must hold: lat <= ii * dist. No
    // placement can change that, so it is checked once, up front;
    // any II at or above RecMII passes, so the II search never fails
    // here.
    for (const auto &[latency, distance] : in.selfEdges) {
        if (latency > ii * distance) {
            outcome.kind = Kind::FailRecurrence;
            return outcome;
        }
    }

    table.reset(ii);
    const FastMod mod(static_cast<uint32_t>(ii));

    // All scratch from the worker's arena: zero heap churn at steady
    // state, and safe under speculative parallel attempts (each
    // worker thread has its own arena). Per-rank state: place holds
    // (start cycle, modulo row) pairs, so the row sits beside the
    // cycle and eviction and the row lists never divide; prev is the
    // last cycle a rank was placed at.
    ArenaVec<int32_t> place_a, slot_a, prev_a, head_a, nxt_a, prv_a;
    std::vector<int32_t> &place = *place_a;
    std::vector<int32_t> &slot_of = *slot_a;
    std::vector<int32_t> &prev = *prev_a;
    place.assign(2 * static_cast<size_t>(n), kUnplaced);
    slot_of.assign(static_cast<size_t>(n), -1);
    prev.assign(static_cast<size_t>(n), -1);

    // Ranks placed in each modulo row as intrusive doubly-linked
    // lists: forced placement evicts a row's occupants by walking
    // its list instead of scanning all n ops.
    std::vector<int32_t> &row_head = *head_a;
    std::vector<int32_t> &nxt = *nxt_a;
    std::vector<int32_t> &prv = *prv_a;
    row_head.assign(static_cast<size_t>(ii), -1);
    nxt.assign(static_cast<size_t>(n), -1);
    prv.assign(static_cast<size_t>(n), -1);
    auto row_link = [&](int i, int r) {
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

    // Unplaced ranks as a two-level bitset: the lowest set rank is
    // the next op to place. A summary bit per nonzero rank word
    // bounds the search to O(n/4096) words.
    ArenaVec<uint64_t> ranks_a, summary_a;
    std::vector<uint64_t> &ranks = *ranks_a;
    std::vector<uint64_t> &summary = *summary_a;
    const size_t rank_words = (static_cast<size_t>(n) + 63) / 64;
    ranks.assign(rank_words, ~uint64_t{0});
    if (n % 64)
        ranks.back() = (uint64_t{1} << (n % 64)) - 1;
    summary.assign((rank_words + 63) / 64, ~uint64_t{0});
    if (rank_words % 64)
        summary.back() = (uint64_t{1} << (rank_words % 64)) - 1;
    auto mark_unplaced = [&](int r) {
        size_t w = static_cast<size_t>(r) / 64;
        ranks[w] |= uint64_t{1} << (r % 64);
        summary[w / 64] |= uint64_t{1} << (w % 64);
    };
    auto mark_placed = [&](int r) {
        size_t w = static_cast<size_t>(r) / 64;
        ranks[w] &= ~(uint64_t{1} << (r % 64));
        if (ranks[w] == 0)
            summary[w / 64] &= ~(uint64_t{1} << (w % 64));
    };
    auto first_unplaced = [&]() -> int {
        for (size_t s = 0; s < summary.size(); ++s) {
            if (summary[s]) {
                size_t w = s * 64 + static_cast<size_t>(
                                        std::countr_zero(summary[s]));
                return static_cast<int>(
                    w * 64 +
                    static_cast<size_t>(std::countr_zero(ranks[w])));
            }
        }
        return -1;
    };

    auto unschedule = [&](int i) {
        int32_t *p = &place[2 * static_cast<size_t>(i)];
        if (p[0] < 0)
            return;
        table.releaseRow(in.keys[static_cast<size_t>(i)], p[1],
                         slot_of[static_cast<size_t>(i)]);
        p[0] = kUnplaced;
        row_unlink(i);
        outcome.evictions++;
        mark_unplaced(i);
    };

    const uint64_t budget = 32 * static_cast<uint64_t>(n) + 256;
    while (true) {
        const int rank = first_unplaced();
        if (rank < 0)
            break; // all placed.
        if (outcome.placements == budget) {
            outcome.kind = Kind::FailBudget;
            break;
        }
        outcome.placements++;
        const size_t r = static_cast<size_t>(rank);

        // Unplaced predecessors sit at kUnplaced and never win.
        int estart = 0;
        const Arc *pred_end = in.preds.data() + in.predOff[r + 1];
        for (const Arc *a = in.preds.data() + in.predOff[r];
             a != pred_end; ++a) {
            estart = std::max(estart,
                              place[2 * static_cast<size_t>(a->rank)] +
                                  a->latency - ii * a->distance);
        }

        const ReservationTable::OpKey &key = in.keys[r];
        int slot = -1;
        const int r0 = mod(estart);
        int row = table.firstFitRow(key, r0, &slot);
        int placed_at;
        if (row >= 0) {
            placed_at = estart + (row >= r0 ? row - r0 : row - r0 + ii);
        } else {
            // Forced placement: free the modulo row and take it.
            // Eviction releases independent reservations, so the
            // walk order over the row's occupants does not matter.
            placed_at = std::max(estart, prev[r] + 1);
            row = mod(placed_at);
            for (int i = row_head[static_cast<size_t>(row)]; i >= 0;) {
                int next = nxt[static_cast<size_t>(i)];
                unschedule(i);
                i = next;
            }
            bool ok = table.reserveRow(key, row, &slot);
            vvsp_assert(ok, "forced placement failed at t=%d ii=%d",
                        placed_at, ii);
        }
        place[2 * r] = placed_at;
        place[2 * r + 1] = row;
        slot_of[r] = slot;
        prev[r] = placed_at;
        row_link(rank, row);
        mark_placed(rank);

        // Evict successors whose dependence the new placement breaks.
        const Arc *succ_end = in.succs.data() + in.succOff[r + 1];
        for (const Arc *a = in.succs.data() + in.succOff[r];
             a != succ_end; ++a) {
            int to = place[2 * static_cast<size_t>(a->rank)];
            if (to >= 0 &&
                to < placed_at + a->latency - ii * a->distance)
                unschedule(a->rank);
        }
    }
    for (int i = 0; i < n; ++i) {
        int t = place[2 * static_cast<size_t>(i)];
        if (t >= 0)
            (*start)[static_cast<size_t>(in.opOf[static_cast<size_t>(
                i)])] = t;
    }
    return outcome;
}

ModuloScheduler::AttemptOutcome
ModuloScheduler::timedAttempt(const AttemptInput &in, int ii,
                              ReservationTable &table,
                              std::vector<int> *start) const
{
    if (!stats_.enabled())
        return attempt(in, ii, table, start);
    auto t0 = std::chrono::steady_clock::now();
    AttemptOutcome outcome = attempt(in, ii, table, start);
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
    swp.bump("placements", outcome.placements);
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
    stats_.bump("modulo_runs");
    prepare(ops);
    const AttemptInput &in = input_;
    const int n = static_cast<int>(ops.size());
    int mii = std::max(resourceMii(ops), ddg_.recurrenceMii());

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
                    outcome = timedAttempt(in, ii, tab, &start);
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
                timedAttempt(in, ii, table_, &start);
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
