/**
 * @file
 * List-scheduling work guard (ctest -L perf-smoke): lowers the
 * DCT-traditional "+arithmetic optimization" variant on I4C8S4 (a
 * register-resident 8x8 block, one straight-line block of 11,766
 * ops) and list-schedules that block as the composer does. It
 * asserts the schedule length and bounds the reservation probes the
 * scheduler makes (sched/list/probes) by a small multiple of the op
 * count. Probing every ready op every cycle made 5,835,615 probes on
 * this block (496 per op); with each refused key remembered for the
 * rest of its cycle it takes 18,739 (1.6 per op). The count is work,
 * not time, so the check cannot flake on a loaded host.
 */

#include <cstdio>
#include <vector>

#include "arch/models.hh"
#include "core/experiment.hh"
#include "kernels/kernel.hh"
#include "obs/stats_registry.hh"
#include "sched/list_scheduler.hh"
#include "xform/passes.hh"

using namespace vvsp;

int
main()
{
    constexpr size_t kOps = 11766;
    constexpr int kLength = 3507;
    constexpr uint64_t kMaxProbesPerOp = 2;

    const KernelSpec &k = kernelByName("DCT - traditional");
    const VariantSpec *variant = nullptr;
    for (const VariantSpec &v : k.variants) {
        if (v.name == "+arithmetic optimization")
            variant = &v;
    }
    if (variant == nullptr) {
        std::fprintf(stderr, "FAIL: variant not found\n");
        return 1;
    }
    MachineModel machine(models::byName("I4C8S4"));
    Function fn = lowerVariant(k, *variant, machine);
    std::vector<Operation> largest;
    passes::forEachBlock(fn, [&largest](BlockNode &block) {
        if (block.ops.size() > largest.size())
            largest = block.ops;
    });
    BankOfFn bank_of = [&fn](int b) { return fn.buffer(b).bank; };

    // The registry must be live before the scheduler binds its scope.
    obs::StatsRegistry reg;
    obs::setGlobalStats(&reg);
    ListScheduler sched(machine, bank_of);
    BlockSchedule s = sched.schedule(largest, /*width1=*/false);
    obs::setGlobalStats(nullptr);

    uint64_t probes = reg.counterValue("sched/list/probes");
    std::printf("ops=%zu length=%d probes=%llu\n", largest.size(),
                s.length, static_cast<unsigned long long>(probes));

    int failures = 0;
    if (largest.size() != kOps) {
        std::fprintf(stderr, "FAIL: ops %zu, want %zu\n", largest.size(),
                     kOps);
        ++failures;
    }
    if (s.length != kLength) {
        std::fprintf(stderr, "FAIL: length %d, want %d\n", s.length,
                     kLength);
        ++failures;
    }
    // Every op is placed by one successful probe.
    if (probes < largest.size() ||
        probes > kMaxProbesPerOp * largest.size()) {
        std::fprintf(stderr, "FAIL: probes %llu, want [%zu, %llu]\n",
                     static_cast<unsigned long long>(probes),
                     largest.size(),
                     static_cast<unsigned long long>(kMaxProbesPerOp *
                                                     largest.size()));
        ++failures;
    }
    return failures == 0 ? 0 : 1;
}
