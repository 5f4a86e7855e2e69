/**
 * @file
 * Perf regression gate (ctest -L perf-smoke): times a 6-cell cold
 * mini-sweep (no caches, so every cell runs the full lowering /
 * interpret / schedule pipeline) and fails when throughput drops more
 * than 30% below the committed floor in tests/perf_floor.json. The
 * floor is deliberately conservative - it catches the scheduler
 * falling off its fast path (accidental per-attempt allocation,
 * bitmap scans reverting to row probing), not machine noise.
 *
 * The sweep is timed over several trials and every bound is checked
 * against the median trial, so one descheduled sample on a busy host
 * cannot fail the gate. Each trial records a StatsRegistry; when a
 * ledger path is given, the median-wall trial's manifest is
 * ledgered, carrying the medians as metrics, and the gate replays
 * `vvsp diff --floor` over it, which additionally enforces the
 * ceilings in the floor file (e.g. phase/interp_sim/cpu_us/
 * sum_ceiling - the bytecode engine's phase budget, checked against
 * the median of the trials' summed phase CPU times). The budget is
 * thread-CPU time, not wall time: a summed wall time across 4
 * threads counts every preemption on a loaded host, while the
 * regression it guards against - interpretation falling back to
 * tree-walker speed - costs the CPU time too.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "arch/config_json.hh"
#include "arch/models.hh"
#include "core/sweep.hh"
#include "obs/run_ledger.hh"
#include "obs/stats_registry.hh"

using namespace vvsp;

namespace
{

/** 6 cells: three Three-step Search variants on two models. */
std::vector<ExperimentRequest>
miniGrid()
{
    const KernelSpec &k = kernelByName("Three-step Search");
    std::vector<ExperimentRequest> reqs;
    for (const VariantSpec &v : k.variants) {
        if (reqs.size() >= 6)
            break;
        for (const char *name : {"I4C8S4", "I2C16S4"}) {
            ExperimentRequest req;
            req.kernel = &k;
            req.variant = &v;
            req.model = models::byName(name);
            req.profileUnits = 1;
            reqs.push_back(req);
        }
    }
    return reqs;
}

/** Pull "cells_per_s_floor": N.N out of the tiny floor file. */
double
readFloor(const char *path)
{
    std::FILE *f = std::fopen(path, "r");
    if (!f) {
        std::fprintf(stderr, "cannot read floor file %s\n", path);
        return -1.0;
    }
    char buf[4096];
    size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    const char *key = std::strstr(buf, "\"cells_per_s_floor\"");
    double floor = -1.0;
    if (!key || std::sscanf(key, "\"cells_per_s_floor\": %lf",
                            &floor) != 1) {
        std::fprintf(stderr, "no cells_per_s_floor in %s\n", path);
        return -1.0;
    }
    return floor;
}

/** Median of a small sample (upper median for even counts). */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Timed trials per run; bounds are checked against their median. */
constexpr int kTrials = 5;

/** One timed trial of the mini-sweep. */
struct Trial
{
    double secs = 0;
    std::unique_ptr<obs::StatsRegistry> stats;
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argc > 3) {
        std::fprintf(stderr,
                     "usage: perf_regression FLOOR.json "
                     "[LEDGER.jsonl]\n");
        return 2;
    }
    double floor = readFloor(argv[1]);
    if (floor <= 0.0)
        return 2;

    std::vector<ExperimentRequest> grid = miniGrid();
    SweepOptions opts;
    opts.useCache = false; // cold: measure the pipeline, not memo hits.
    SweepRunner runner(opts);

    // One untimed warm-up run hides one-time costs (kernel spec
    // construction, thread spin-up) that are not the regression
    // target; the timed runs are still fully cold w.r.t. caches. A
    // registry is installed only around each timed run, so warm-up
    // samples never pollute the ledgered distributions.
    runner.run(grid);

    std::vector<Trial> trials(kTrials);
    std::vector<double> secs_of, interp_us_of;
    for (Trial &t : trials) {
        t.stats = std::make_unique<obs::StatsRegistry>();
        obs::setGlobalStats(t.stats.get());
        auto t0 = std::chrono::steady_clock::now();
        std::vector<ExperimentResult> results = runner.run(grid);
        t.secs = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
        obs::setGlobalStats(nullptr);
        for (const ExperimentResult &r : results) {
            if (r.checked && !r.passed) {
                std::fprintf(stderr, "cell failed its golden check\n");
                return 1;
            }
        }
        secs_of.push_back(t.secs);
        interp_us_of.push_back(static_cast<double>(
            t.stats->distributionValue("phase/interp_sim/cpu_us")
                .sum()));
        std::printf(
            "trial %zu: %.3fs, interp_sim %.0f us cpu (%llu us wall)\n",
            secs_of.size(), t.secs, interp_us_of.back(),
            static_cast<unsigned long long>(
                t.stats->distributionValue("phase/interp_sim/wall_us")
                    .sum()));
    }
    const double secs = median(secs_of);
    const double interp_us = median(interp_us_of);
    const Trial &mid = *std::find_if(
        trials.begin(), trials.end(),
        [secs](const Trial &t) { return t.secs == secs; });

    double cells_per_s = static_cast<double>(grid.size()) / secs;
    double cutoff = 0.7 * floor; // fail >30% below the floor.
    std::printf("perf regression: %zu cells in %.3fs = %.2f cells/s "
                "(median of %d trials; floor %.2f, cutoff %.2f)\n",
                grid.size(), secs, cells_per_s, kTrials, floor,
                cutoff);

    // Optional: record the measurement in the run ledger, so the
    // perf gate's history is diffable with `vvsp report`/`vvsp diff`.
    if (argc == 3) {
        obs::RunManifest m;
        m.unixTime = static_cast<int64_t>(std::time(nullptr));
        m.subcommand = "tests/perf_regression";
        for (const char *name : {"I4C8S4", "I2C16S4"}) {
            DatapathConfig cfg = models::byName(name);
            m.machines.emplace_back(cfg.name,
                                    canonicalMachineKey(cfg));
        }
        m.threads = runner.threadCount();
        m.memoCache = false;
        m.diskCache = false;
        m.wallUs = static_cast<uint64_t>(secs * 1e6);
        m.metrics.emplace_back("cells",
                               static_cast<double>(grid.size()));
        m.metrics.emplace_back("wall_s", secs);
        m.metrics.emplace_back("cells_per_s", cells_per_s);
        m.metrics.emplace_back("trials", kTrials);
        // A named metric shadows the distribution summary of the same
        // path in `vvsp diff --floor`, so the ceiling sees the median.
        m.metrics.emplace_back("phase/interp_sim/cpu_us/sum",
                               interp_us);
        obs::snapshotStats(*mid.stats, m);
        if (obs::appendToLedger(argv[2], m))
            std::printf("appended manifest to %s\n", argv[2]);
        else
            std::fprintf(stderr, "cannot append to %s\n", argv[2]);
#ifdef VVSP_CLI_PATH
        // Replay the sentinel over the fresh entry: this enforces the
        // floor file's distribution ceilings (phase wall-time budgets)
        // that the plain cells/s check above cannot see.
        std::string diff = std::string("\"") + VVSP_CLI_PATH +
                           "\" diff --ledger=\"" + argv[2] +
                           "\" --floor=\"" + argv[1] + "\" --b=-1";
        std::fflush(stdout);
        int rc = std::system(diff.c_str());
        if (rc != 0) {
            std::fprintf(stderr,
                         "FAIL: vvsp diff flagged a regression "
                         "against %s\n",
                         argv[1]);
            return 1;
        }
#endif
    }
    if (cells_per_s < cutoff) {
        std::fprintf(stderr,
                     "FAIL: cold mini-sweep throughput %.2f cells/s "
                     "is >30%% below the committed floor %.2f\n",
                     cells_per_s, floor);
        return 1;
    }
    return 0;
}
