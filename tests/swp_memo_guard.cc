/**
 * @file
 * Loop-schedule memo guard (ctest -L perf-smoke): runs the Table 1
 * Three-step Search section (35 cells, the smallest spec section
 * whose loop bodies repeat) through a fresh ExperimentCache at 1 and
 * at 4 threads, and asserts the memo's work: 250 modulo-scheduler
 * runs and 375 bodies answered from the memo, the same at both thread
 * counts because lookups are single-flight. The counts are work, not
 * time, so the check cannot flake on a loaded host; a memo key that
 * starts missing repeats (or sharing bodies it must not) moves them.
 */

#include <cstdio>
#include <vector>

#include "core/experiment_cache.hh"
#include "core/experiment_spec.hh"
#include "core/sweep.hh"
#include "obs/stats_registry.hh"

using namespace vvsp;

int
main()
{
    constexpr uint64_t kMisses = 250;
    constexpr uint64_t kHits = 375;

    const ExperimentSpec *spec = findExperimentSpec("table1");
    const SpecSection *section = spec ? spec->section("threestep") : nullptr;
    if (section == nullptr) {
        std::fprintf(stderr, "FAIL: table1 threestep section not found\n");
        return 1;
    }
    std::vector<ExperimentRequest> cells =
        lowerSection(*spec, *section).requests;
    for (ExperimentRequest &req : cells) {
        // Scheduling is geometry-independent; interpretation is not.
        req.geometry = FrameGeometry{48, 32};
        req.profileUnits = 1;
    }

    int failures = 0;
    for (int threads : {1, 4}) {
        ExperimentCache cache;
        obs::StatsRegistry reg;
        SweepOptions opts;
        opts.threads = threads;
        opts.cache = &cache;
        opts.stats = &reg;
        SweepRunner(opts).run(cells);
        const ExperimentCacheStats s = cache.stats();
        const uint64_t runs = reg.counterValue("sched/modulo_runs");
        std::printf("threads=%d cells=%zu memo_misses=%llu "
                    "memo_hits=%llu modulo_runs=%llu\n",
                    threads, cells.size(),
                    static_cast<unsigned long long>(s.moduleMisses),
                    static_cast<unsigned long long>(s.moduleHits),
                    static_cast<unsigned long long>(runs));
        if (s.moduleMisses != kMisses || s.moduleHits != kHits ||
            runs != kMisses) {
            std::fprintf(stderr,
                         "FAIL: at %d threads want %llu misses (= "
                         "modulo runs) and %llu hits\n",
                         threads,
                         static_cast<unsigned long long>(kMisses),
                         static_cast<unsigned long long>(kHits));
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}
