/**
 * @file
 * RecMII work guard (ctest -L perf-smoke): lowers the DCT-traditional
 * "+unroll 2 levels & widen" variant on I4C8S4C, builds the
 * loop-carried dependence graph of its largest software-pipelined
 * body (6082 ops) and asserts both the RecMII and the number of
 * relaxation sweeps recurrenceMii() needs. Plain Bellman-Ford made
 * 30,442 sweeps on this graph; the Gauss-Seidel probe with its
 * parent-cycle check makes a few dozen. The bound counts work, not
 * time, so the check cannot flake on a loaded host.
 */

#include <cstdio>
#include <vector>

#include "arch/models.hh"
#include "core/experiment.hh"
#include "ir/dependence_graph.hh"
#include "kernels/kernel.hh"
#include "swp_bodies.hh"

using namespace vvsp;

int
main()
{
    constexpr size_t kOps = 6082;
    constexpr int kRecMii = 85;
    constexpr long kMaxSweeps = 64;

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
    DependenceGraph ddg(largest, machine.latencyFn(),
                        /*loop_carried=*/true);
    int rec_mii = ddg.recurrenceMii();
    long sweeps = ddg.recurrenceSweeps();
    std::printf("ops=%zu edges=%zu rec_mii=%d sweeps=%ld\n",
                ddg.numOps(), ddg.edges().size(), rec_mii, sweeps);

    int failures = 0;
    if (ddg.numOps() != kOps) {
        std::fprintf(stderr, "FAIL: body has %zu ops, want %zu\n",
                     ddg.numOps(), kOps);
        ++failures;
    }
    if (rec_mii != kRecMii) {
        std::fprintf(stderr, "FAIL: rec_mii %d, want %d\n", rec_mii,
                     kRecMii);
        ++failures;
    }
    if (sweeps > kMaxSweeps) {
        std::fprintf(stderr, "FAIL: %ld sweeps, bound %ld\n", sweeps,
                     kMaxSweeps);
        ++failures;
    }
    return failures == 0 ? 0 : 1;
}
