/**
 * @file
 * Result-parking guard (ctest -L perf-smoke): runs the Table 1 and
 * Table 2 DCT sections as one batch - their cells share result keys
 * in pairs - through a fresh ExperimentCache at 1 and at 4 threads,
 * and requires every level's hit and miss counts (result, lowered,
 * unit-profile, loop-schedule) to be the same at both. A duplicate
 * cell parks on the owner of its result key instead of computing it
 * again, and the other levels are single-flight, so any difference
 * is work done twice. The counts are work, not time, so the check
 * cannot flake on a loaded host.
 */

#include <cstdio>
#include <vector>

#include "core/experiment_cache.hh"
#include "core/experiment_spec.hh"
#include "core/sweep.hh"

using namespace vvsp;

int
main()
{
    std::vector<ExperimentRequest> cells;
    for (const char *table : {"table1", "table2"}) {
        const ExperimentSpec *spec = findExperimentSpec(table);
        for (const char *name : {"dct-trad", "dct-rowcol"}) {
            const SpecSection *section =
                spec ? spec->section(name) : nullptr;
            if (section == nullptr) {
                std::fprintf(stderr, "FAIL: %s %s section not found\n",
                             table, name);
                return 1;
            }
            for (ExperimentRequest req :
                 lowerSection(*spec, *section).requests) {
                // Scheduling is geometry-independent; interpretation
                // is not, and one small unit keeps the guard quick.
                req.geometry = FrameGeometry{48, 32};
                req.profileUnits = 1;
                cells.push_back(req);
            }
        }
    }

    ExperimentCacheStats at[2];
    const int threads[2] = {1, 4};
    for (int t = 0; t < 2; ++t) {
        ExperimentCache cache;
        SweepOptions opts;
        opts.threads = threads[t];
        opts.cache = &cache;
        SweepRunner(opts).run(cells);
        at[t] = cache.stats();
        const ExperimentCacheStats &s = at[t];
        std::printf("threads=%d cells=%zu result=%llu/%llu "
                    "lowered=%llu/%llu profile=%llu/%llu "
                    "module=%llu/%llu (hits/misses)\n",
                    threads[t], cells.size(),
                    static_cast<unsigned long long>(s.resultHits),
                    static_cast<unsigned long long>(s.resultMisses),
                    static_cast<unsigned long long>(s.loweredHits),
                    static_cast<unsigned long long>(s.loweredMisses),
                    static_cast<unsigned long long>(s.profileHits),
                    static_cast<unsigned long long>(s.profileMisses),
                    static_cast<unsigned long long>(s.moduleHits),
                    static_cast<unsigned long long>(s.moduleMisses));
    }
    const ExperimentCacheStats &a = at[0], &b = at[1];
    if (a.resultHits == 0) {
        std::fprintf(stderr, "FAIL: no two cells share a result key\n");
        return 1;
    }
    if (a.resultHits != b.resultHits ||
        a.resultMisses != b.resultMisses ||
        a.loweredHits != b.loweredHits ||
        a.loweredMisses != b.loweredMisses ||
        a.profileHits != b.profileHits ||
        a.profileMisses != b.profileMisses ||
        a.moduleHits != b.moduleHits ||
        a.moduleMisses != b.moduleMisses) {
        std::fprintf(stderr, "FAIL: the 4-thread counts differ from "
                             "the 1-thread counts\n");
        return 1;
    }
    return 0;
}
