/**
 * @file
 * `vvsp report` and `vvsp diff`: the ledger-facing subcommands.
 *
 * `report` groups the run ledger by (subcommand, machine set) and
 * prints the last N entries of each group with trend arrows on the
 * primary metric, so a glance shows whether a workflow is getting
 * faster or slower across invocations. `diff` is the regression
 * sentinel: it compares two ledger entries (or the newest entry
 * against the committed perf floor) through obs::diffManifests and
 * exits nonzero when any metric crossed its threshold — the same
 * contract as tests/perf_regression, but driven by real run history
 * instead of a rerun.
 */

#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "driver.hh"
#include "obs/run_ledger.hh"
#include "support/json.hh"

namespace vvsp
{
namespace cli
{

namespace
{

std::string
ledgerPathOrDefault(const DriverOptions &opts)
{
    return opts.ledgerPath.empty() ? obs::defaultLedgerPath()
                                   : opts.ledgerPath;
}

/** Machine display names joined for the group header ("" = none). */
std::string
machineNames(const obs::RunManifest &m)
{
    std::string names;
    for (const auto &[name, key] : m.machines) {
        if (!names.empty())
            names += ",";
        names += name;
    }
    return names;
}

std::string
timeStamp(int64_t unix_time)
{
    std::time_t t = static_cast<std::time_t>(unix_time);
    std::tm tm{};
    if (!localtime_r(&t, &tm))
        return "-";
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%d %H:%M:%S", &tm);
    return buf;
}

/**
 * Trend arrow for `cur` vs `prev` on a metric where `higher_better`
 * says which direction is good: improvement `+`, regression `-`,
 * flat (within 5%) `=`.
 */
char
trendArrow(double prev, double cur, bool higher_better)
{
    if (prev <= 0)
        return '=';
    double ratio = cur / prev;
    if (!higher_better && ratio != 0)
        ratio = 1.0 / ratio;
    if (ratio > 1.05)
        return '+';
    if (ratio < 1.0 / 1.05)
        return '-';
    return '=';
}

bool
loadLedger(const DriverOptions &opts,
           std::vector<obs::RunManifest> &entries, std::string &path,
           size_t *malformed_out = nullptr)
{
    path = ledgerPathOrDefault(opts);
    size_t malformed = 0;
    if (!obs::readLedger(path, entries, &malformed)) {
        std::fprintf(stderr, "vvsp: cannot read ledger '%s'\n",
                     path.c_str());
        return false;
    }
    if (malformed > 0) {
        std::fprintf(stderr,
                     "vvsp: skipped %zu malformed ledger line%s\n",
                     malformed, malformed == 1 ? "" : "s");
    }
    if (malformed_out)
        *malformed_out = malformed;
    return true;
}

/** Resolve a --a/--b index (negative = from the end) or -1 on range. */
int
resolveIndex(int idx, size_t n)
{
    long long v = idx;
    if (v < 0)
        v += static_cast<long long>(n);
    if (v < 0 || v >= static_cast<long long>(n))
        return -1;
    return static_cast<int>(v);
}

} // anonymous namespace

int
cmdReport(const DriverOptions &opts)
{
    std::vector<obs::RunManifest> entries;
    std::string path;
    size_t malformed = 0;
    if (!loadLedger(opts, entries, path, &malformed))
        return kExitRuntime;
    if (entries.empty()) {
        std::printf("ledger %s: no entries\n", path.c_str());
        return kExitOk;
    }

    // Group by (subcommand, machine set), keeping first-seen order
    // and each entry's global ledger index for `vvsp diff --a=IDX`.
    std::vector<std::string> order;
    std::map<std::string, std::vector<size_t>> groups;
    for (size_t i = 0; i < entries.size(); ++i) {
        std::string key =
            entries[i].subcommand + "|" + machineNames(entries[i]);
        auto [it, inserted] = groups.try_emplace(key);
        if (inserted)
            order.push_back(key);
        it->second.push_back(i);
    }

    std::printf("ledger %s: %zu entries, %zu groups (last %d each)\n",
                path.c_str(), entries.size(), groups.size(),
                opts.lastN);
    if (malformed > 0) {
        std::printf("warning: %zu malformed line%s skipped — run "
                    "`vvsp fsck` to repair the ledger\n",
                    malformed, malformed == 1 ? "" : "s");
    }
    for (const std::string &key : order) {
        const std::vector<size_t> &idxs = groups[key];
        const obs::RunManifest &head = entries[idxs.front()];
        std::string names = machineNames(head);
        std::printf("\n%s%s%s (%zu runs)\n", head.subcommand.c_str(),
                    names.empty() ? "" : " ",
                    names.empty() ? "" : ("[" + names + "]").c_str(),
                    idxs.size());
        std::printf("  %5s  %-19s  %3s  %10s  %12s\n", "idx", "time",
                    "thr", "wall_s", "cells_per_s");

        size_t first =
            idxs.size() > static_cast<size_t>(opts.lastN)
                ? idxs.size() - static_cast<size_t>(opts.lastN)
                : 0;
        for (size_t k = first; k < idxs.size(); ++k) {
            const obs::RunManifest &m = entries[idxs[k]];
            double wall = obs::manifestMetric(m, "wall_s");
            double rate = obs::manifestMetric(m, "cells_per_s");
            // Trend on throughput when the run measured one, else on
            // wall time; always against the previous run in-group.
            char arrow = ' ';
            if (k > first) {
                const obs::RunManifest &p = entries[idxs[k - 1]];
                double prate =
                    obs::manifestMetric(p, "cells_per_s");
                arrow = rate > 0 && prate > 0
                            ? trendArrow(prate, rate, true)
                            : trendArrow(
                                  obs::manifestMetric(p, "wall_s"),
                                  wall, false);
            }
            char rate_buf[32];
            if (rate > 0)
                std::snprintf(rate_buf, sizeof(rate_buf), "%.1f",
                              rate);
            else
                std::snprintf(rate_buf, sizeof(rate_buf), "-");
            std::printf("  %5zu  %-19s  %3d  %10.3f  %10s %c\n",
                        idxs[k], timeStamp(m.unixTime).c_str(),
                        m.threads, wall, rate_buf, arrow);
        }
    }
    return 0;
}

namespace
{

/**
 * Value of `metric` in a manifest: a named metric first, else a
 * distribution-summary path "<dist path>/<field>" where field is one
 * of count/sum/min/max/p50/p90/p99 (e.g.
 * "phase/interp_sim/cpu_us/sum"). Returns -1 when the run measured
 * neither.
 */
double
manifestValueByPath(const obs::RunManifest &run,
                    const std::string &metric)
{
    double v = obs::manifestMetric(run, metric, -1.0);
    if (v >= 0)
        return v;
    size_t slash = metric.rfind('/');
    if (slash == std::string::npos)
        return -1.0;
    std::string dist = metric.substr(0, slash);
    std::string field = metric.substr(slash + 1);
    for (const obs::DistSummary &d : run.distributions) {
        if (d.path != dist)
            continue;
        if (field == "count")
            return static_cast<double>(d.count);
        if (field == "sum")
            return static_cast<double>(d.sum);
        if (field == "min")
            return static_cast<double>(d.min);
        if (field == "max")
            return static_cast<double>(d.max);
        if (field == "p50")
            return d.p50;
        if (field == "p90")
            return d.p90;
        if (field == "p99")
            return d.p99;
        return -1.0;
    }
    return -1.0;
}

/**
 * Floor mode: check the candidate's metrics against a perf-floor
 * JSON file (tests/perf_floor.json layout). "<metric>_floor" keys
 * are minimum acceptable values for higher-is-better metrics;
 * "<metric>_ceiling" keys are maximum acceptable values for
 * lower-is-better ones. The metric half of either key may also name
 * a distribution-summary field recorded in the manifest, e.g.
 * "phase/interp_sim/cpu_us/sum_ceiling" bounds a phase's total CPU
 * time. Returns the regressions; `error` is set when the file cannot
 * be used.
 */
bool
diffAgainstFloor(const obs::RunManifest &run,
                 const std::string &floor_path,
                 std::vector<obs::Regression> &out, std::string &error)
{
    std::ifstream is(floor_path);
    if (!is) {
        error = "cannot open floor file '" + floor_path + "'";
        return false;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    json::Value root;
    if (!json::parse(ss.str(), root, error))
        return false;
    if (!root.isObject()) {
        error = "floor file is not a JSON object";
        return false;
    }
    const std::string floor_sfx = "_floor";
    const std::string ceil_sfx = "_ceiling";
    auto strip = [](const std::string &key,
                    const std::string &sfx) -> std::string {
        if (key.size() <= sfx.size() ||
            key.compare(key.size() - sfx.size(), sfx.size(), sfx) !=
                0) {
            return "";
        }
        return key.substr(0, key.size() - sfx.size());
    };
    for (const auto &[key, val] : root.members()) {
        if (!val.isNumber())
            continue;
        double bound = val.asNumber();
        std::string metric = strip(key, floor_sfx);
        if (!metric.empty()) {
            double got = manifestValueByPath(run, metric);
            if (got >= 0 && got < bound)
                out.push_back({metric, bound, got});
            continue;
        }
        metric = strip(key, ceil_sfx);
        if (!metric.empty()) {
            double got = manifestValueByPath(run, metric);
            if (got >= 0 && got > bound)
                out.push_back({metric, bound, got});
        }
    }
    return true;
}

} // anonymous namespace

int
cmdDiff(const DriverOptions &opts)
{
    std::vector<obs::RunManifest> entries;
    std::string path;
    if (!loadLedger(opts, entries, path))
        return kExitRuntime;

    std::vector<obs::Regression> regressions;
    std::string label_a, label_b;
    if (!opts.floorPath.empty()) {
        int b = resolveIndex(opts.diffB, entries.size());
        if (b < 0) {
            std::fprintf(stderr,
                         "vvsp: ledger '%s' has %zu entries; --b=%d "
                         "is out of range\n",
                         path.c_str(), entries.size(), opts.diffB);
            return kExitUsage;
        }
        std::string error;
        if (!diffAgainstFloor(entries[static_cast<size_t>(b)],
                              opts.floorPath, regressions, error)) {
            std::fprintf(stderr, "vvsp: %s\n", error.c_str());
            return kExitRuntime;
        }
        label_a = "floor " + opts.floorPath;
        label_b = "entry " + std::to_string(b);
    } else {
        if (entries.size() < 2) {
            std::fprintf(stderr,
                         "vvsp: ledger '%s' has %zu entries; diff "
                         "needs two (or --floor=FILE)\n",
                         path.c_str(), entries.size());
            return kExitRuntime;
        }
        int a = resolveIndex(opts.diffA, entries.size());
        int b = resolveIndex(opts.diffB, entries.size());
        if (a < 0 || b < 0) {
            std::fprintf(stderr,
                         "vvsp: ledger '%s' has %zu entries; --a=%d "
                         "--b=%d out of range\n",
                         path.c_str(), entries.size(), opts.diffA,
                         opts.diffB);
            return kExitUsage;
        }
        obs::DiffOptions dopts;
        dopts.ratio = opts.threshold;
        regressions =
            obs::diffManifests(entries[static_cast<size_t>(a)],
                               entries[static_cast<size_t>(b)], dopts);
        label_a = "entry " + std::to_string(a) + " (" +
                  entries[static_cast<size_t>(a)].subcommand + ", " +
                  timeStamp(entries[static_cast<size_t>(a)].unixTime) +
                  ")";
        label_b = "entry " + std::to_string(b) + " (" +
                  entries[static_cast<size_t>(b)].subcommand + ", " +
                  timeStamp(entries[static_cast<size_t>(b)].unixTime) +
                  ")";
    }

    std::printf("diff baseline: %s\n", label_a.c_str());
    std::printf("diff candidate: %s\n", label_b.c_str());
    if (regressions.empty()) {
        std::printf("no regressions (threshold %.2fx)\n",
                    opts.threshold);
        return kExitOk;
    }
    std::printf("%zu regression%s (threshold %.2fx):\n",
                regressions.size(),
                regressions.size() == 1 ? "" : "s", opts.threshold);
    for (const obs::Regression &r : regressions) {
        std::printf("  %-40s  %14.3f -> %14.3f\n", r.metric.c_str(),
                    r.before, r.after);
    }
    return kExitRuntime;
}

} // namespace cli
} // namespace vvsp
