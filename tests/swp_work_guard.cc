/**
 * @file
 * Modulo-scheduling work guard (ctest -L perf-smoke): lowers the
 * DCT-traditional "+unroll 2 levels & widen" variant on I4C8S4C and
 * software-pipelines its largest loop body (6082 ops) as the cycle
 * simulator does. It asserts the II search's work: 14 II attempts,
 * the first 13 failing by exhausting the 32n+256 = 194,880-placement
 * budget (each one checked on its own), and the total number of
 * evictions. Any change to a placement decision moves these counts,
 * and the counts are work, not time, so the check cannot flake on a
 * loaded host.
 */

#include <cstdio>
#include <vector>

#include "arch/models.hh"
#include "core/experiment.hh"
#include "kernels/kernel.hh"
#include "obs/stats_registry.hh"
#include "sched/modulo_scheduler.hh"
#include "swp_bodies.hh"

using namespace vvsp;

int
main()
{
    constexpr size_t kOps = 6082;
    constexpr uint64_t kAttempts = 14;
    constexpr uint64_t kFailBudget = 13;
    constexpr uint64_t kBudget = 32 * kOps + 256;
    constexpr uint64_t kEvictions = 2458061;
    constexpr int kIi = 402;

    const KernelSpec &k = kernelByName("DCT - traditional");
    const VariantSpec *variant = nullptr;
    for (const VariantSpec &v : k.variants) {
        if (v.name == "+unroll 2 levels & widen")
            variant = &v;
    }
    if (variant == nullptr) {
        std::fprintf(stderr, "FAIL: variant not found\n");
        return 1;
    }
    MachineModel machine(models::byName("I4C8S4C"));
    Function fn = lowerVariant(k, *variant, machine);
    std::vector<Operation> largest;
    for (auto &ops : swpLoopBodies(fn, variant->mode)) {
        if (ops.size() > largest.size())
            largest = std::move(ops);
    }
    BankOfFn bank_of = [&fn](int b) { return fn.buffer(b).bank; };

    // The registry must be live before the scheduler binds its scope.
    obs::StatsRegistry reg;
    obs::setGlobalStats(&reg);
    ModuloScheduler sched(machine, bank_of);
    BlockSchedule s = sched.schedule(largest, machine.registersPerCluster());
    obs::setGlobalStats(nullptr);

    uint64_t ok = reg.counterValue("sched/swp/attempts_ok");
    uint64_t fail_budget =
        reg.counterValue("sched/swp/attempts_fail_budget");
    uint64_t fail_rec =
        reg.counterValue("sched/swp/attempts_fail_recurrence");
    uint64_t evictions = reg.counterValue("sched/swp/evictions");
    uint64_t placements = reg.counterValue("sched/swp/placements");
    std::printf("ops=%zu ii=%d attempts=%llu fail_budget=%llu "
                "evictions=%llu placements=%llu\n",
                largest.size(), s.ii,
                static_cast<unsigned long long>(ok + fail_budget +
                                                fail_rec),
                static_cast<unsigned long long>(fail_budget),
                static_cast<unsigned long long>(evictions),
                static_cast<unsigned long long>(placements));

    int failures = 0;
    auto expect = [&failures](bool cond, const char *what,
                              unsigned long long got,
                              unsigned long long want) {
        if (!cond) {
            std::fprintf(stderr, "FAIL: %s %llu, want %llu\n", what, got,
                         want);
            ++failures;
        }
    };
    expect(largest.size() == kOps, "ops", largest.size(), kOps);
    expect(s.ii == kIi, "ii", static_cast<unsigned long long>(s.ii),
           kIi);
    expect(ok + fail_budget + fail_rec == kAttempts, "attempts",
           ok + fail_budget + fail_rec, kAttempts);
    expect(fail_budget == kFailBudget, "attempts_fail_budget",
           fail_budget, kFailBudget);
    expect(evictions == kEvictions, "evictions", evictions, kEvictions);

    // Each failing II on its own: exactly the budget, then stop.
    std::vector<int> start;
    uint64_t failed_placements = 0;
    for (int ii = kIi - static_cast<int>(kFailBudget); ii < kIi; ++ii) {
        auto outcome = sched.attemptAt(largest, ii, &start);
        if (outcome.kind !=
            ModuloScheduler::AttemptOutcome::Kind::FailBudget) {
            std::fprintf(stderr, "FAIL: ii %d did not exhaust the "
                                 "placement budget\n", ii);
            ++failures;
        }
        expect(outcome.placements == kBudget, "placements",
               outcome.placements, kBudget);
        failed_placements += outcome.placements;
    }
    // The feasible attempt's placements are what the counter adds.
    expect(placements > failed_placements, "total placements",
           placements, failed_placements);
    return failures == 0 ? 0 : 1;
}
