/**
 * @file
 * vvsp_perfbench: the repository benchmark.
 *
 * Three closed-batch workloads drive the library through its public
 * API (see perfbench/README.md for why each was chosen):
 *
 *  - repro_cold: every cell of the table1, table2, ablation and
 *    conclusions specs through one SweepRunner, with a fresh
 *    ExperimentCache attached to an empty DiskCache directory;
 *  - repro_warm: the same cells against a disk directory filled
 *    during set-up, a fresh ExperimentCache and SweepRunner per pass;
 *  - cyclesim: the utilization cell set (most-optimized variant of
 *    each kernel on the seven models at 48x32), lowerVariant then
 *    CycleSim::run per cell, serially.
 *
 * Usage:
 *   vvsp_perfbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--work-dir DIR] [--commit REV]
 *                  [--source-digest HEX]
 *
 * --trace 0 repeats timed passes for --seconds and reports the
 * end-to-end metrics (medians over passes). --trace 1 runs the
 * traced pass at one thread, records spans around every call into
 * the library, reads the program's own counters through an installed
 * obs::StatsRegistry, and reports the per-layer metrics; the spans
 * are written to <work-dir>/trace_<workload>.json.
 *
 * Every run checks its outputs; a failing cell is named on stderr.
 * The last stdout line is one JSON object {"correct", "attempted",
 * "failed", "metrics"}; the line before it is the full report (host
 * and build stamp, seed, cache accounting, every metric with its
 * unit), also written to <work-dir>/report_<workload>_trace<t>.json.
 * Exit status: 0 when every check passed, 1 when a check failed,
 * 2 on a usage error.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/machine_model.hh"
#include "arch/models.hh"
#include "core/disk_cache.hh"
#include "core/experiment.hh"
#include "core/experiment_cache.hh"
#include "core/experiment_spec.hh"
#include "core/sweep.hh"
#include "kernels/kernel.hh"
#include "obs/histogram.hh"
#include "obs/sim_telemetry.hh"
#include "obs/stats_registry.hh"
#include "sim/cycle_sim.hh"
#include "sim/memory_image.hh"

#ifndef VVSP_BENCH_BUILD_TYPE
#define VVSP_BENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;

namespace vvsp
{
namespace bench
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Specs whose cells make up the repro workloads, in CLI order. */
const char *const kReproSpecs[] = {"table1", "table2", "ablation",
                                   "conclusions"};

/**
 * Set-up repetitions whose median is setup_s. An untimed repetition
 * runs first: it pays the process's lazy registry construction and
 * first-touch allocations, which a median would drop anyway.
 */
constexpr int kSetupRepsCold = 21;
constexpr int kSetupRepsWarm = 3;
constexpr int kSetupRepsSim = 21;
/** Fewest timed passes per run. */
constexpr int kMinSamples = 3;
/** Cycle-sim geometry, as `vvsp utilization` runs it. */
const FrameGeometry kSimGeometry{48, 32};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process user+sys CPU time, all threads. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/**
 * Sampling budget of one run: take another sample while it still
 * ends before the deadline, assuming it lasts as long as the last
 * one did, and take at least `min_samples`.
 */
class Budget
{
  public:
    Budget(double seconds, size_t min_samples)
        : end_(Clock::now() +
               std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds))),
          last_(Clock::now()), min_(min_samples)
    {
    }

    /** Call before each sample; false once the budget is spent. */
    bool
    next()
    {
        auto now = Clock::now();
        auto step = now - last_;
        last_ = now;
        return taken_++ < min_ || now + step <= end_;
    }

  private:
    Clock::time_point end_;
    Clock::time_point last_;
    size_t min_;
    size_t taken_ = 0;
};

/** Peak resident set of this process, in MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

/** Linear-interpolated q-quantile; 0 for an empty sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Named metrics in insertion order, each with its unit. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        for (Item &it : items_) {
            if (it.name == name) {
                it.value = value;
                it.unit = unit;
                return;
            }
        }
        items_.push_back({name, value, unit});
    }

    /** Per-metric median over several runs (names of the first). */
    static Metrics
    medianOf(const std::vector<Metrics> &runs)
    {
        Metrics out;
        if (runs.empty())
            return out;
        for (const Item &it : runs.front().items_) {
            std::vector<double> v;
            for (const Metrics &m : runs)
                v.push_back(m.get(it.name));
            out.set(it.name, median(v), it.unit);
        }
        return out;
    }

    double
    get(const std::string &name) const
    {
        for (const Item &it : items_) {
            if (it.name == name)
                return it.value;
        }
        return 0;
    }

    void
    merge(const Metrics &o)
    {
        for (const Item &it : o.items_)
            set(it.name, it.value, it.unit);
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (size_t i = 0; i < items_.size(); ++i) {
            out += (i ? ", \"" : "\"") + items_[i].name +
                   "\": {\"value\": " + num(items_[i].value) +
                   ", \"unit\": \"" + items_[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

/** Counts checked outputs; names every failure on stderr. */
class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        ++attempted_;
        if (ok)
            return;
        ++failed_;
        // Cap the noise: a systematic failure repeats every pass.
        if (failed_ <= 20)
            std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir = ".bench_work";
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

/** Host and build stamp carried by every report. */
std::string
stampJson(const Options &opt, int threads)
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(colon + 2);
            break;
        }
    }
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::ostringstream os;
    os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"cpu_model\": \"" << jsonEscape(cpu)
       << "\", \"compiler\": \"" << jsonEscape(compiler)
       << "\", \"build_type\": \"" << VVSP_BENCH_BUILD_TYPE
       << "\", \"threads\": " << threads << ", \"commit\": \""
       << jsonEscape(opt.commit) << "\", \"source_digest\": \""
       << jsonEscape(opt.sourceDigest) << "\", \"seed\": " << opt.seed
       << "}";
    return os.str();
}

/** Bytes of the regular files under `dir`. */
double
dirBytes(const std::string &dir)
{
    std::error_code ec;
    uint64_t total = 0;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec))
            total += it->file_size(ec);
    }
    return static_cast<double>(total);
}

/** Remove and recreate an empty directory. */
void
freshDir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

// ---------------------------------------------------------------
// Registry readers (counters and distributions the program keeps).
// ---------------------------------------------------------------

double
counter(const obs::StatsRegistry &reg, const std::string &path)
{
    return static_cast<double>(reg.counterValue(path));
}

double
histQuantile(const obs::StatsRegistry &reg, const std::string &path,
             double q)
{
    for (const auto &[name, hist] : reg.histograms()) {
        if (name == path)
            return hist.quantile(q);
    }
    return 0;
}

/** Sum over every distribution "<prefix>/<x>/<leaf>". */
double
sumOverChildren(const obs::StatsRegistry &reg,
                const std::string &prefix, const std::string &leaf)
{
    double total = 0;
    for (const auto &[name, stat] : reg.distributions()) {
        if (name.rfind(prefix + "/", 0) == 0 &&
            name.size() > leaf.size() + 1 &&
            name.compare(name.size() - leaf.size() - 1,
                         std::string::npos, "/" + leaf) == 0)
            total += static_cast<double>(stat.sum());
    }
    return total;
}

// ---------------------------------------------------------------
// Spans: kept in memory, written once as Chrome trace events.
// ---------------------------------------------------------------

class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    /** Reserve an id for a span whose end is not known yet. */
    int64_t reserve() { return nextId_++; }

    /** Record a finished span under a new id; returns the id. */
    int64_t
    add(const std::string &name, int64_t parent, int64_t cell,
        Clock::time_point start, double dur_us)
    {
        int64_t id = reserve();
        addReserved(id, name, parent, cell, start, dur_us);
        return id;
    }

    /** Record a finished span under a reserved id. */
    void
    addReserved(int64_t id, const std::string &name, int64_t parent,
                int64_t cell, Clock::time_point start, double dur_us)
    {
        double ts = std::chrono::duration<double, std::micro>(
                        start - origin_)
                        .count();
        spans_.push_back({name, id, parent, cell, ts, dur_us});
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\": [\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "{\"name\": \"" << jsonEscape(s.name)
                << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
                << num(s.ts) << ", \"dur\": " << num(s.dur)
                << ", \"args\": {\"id\": " << s.id
                << ", \"parent\": " << s.parent
                << ", \"cell\": " << s.cell << "}}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

    size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        std::string name;
        int64_t id;
        int64_t parent;
        int64_t cell;
        double ts;
        double dur;
    };
    Clock::time_point origin_;
    std::vector<Span> spans_;
    int64_t nextId_ = 1;
};

// ---------------------------------------------------------------
// repro_cold / repro_warm
// ---------------------------------------------------------------

/** The 251 requests of the four reproduction specs. */
struct ReproSet
{
    std::vector<ExperimentRequest> requests;
    std::vector<std::string> labels;
    /** Published cycles per frame (0: the paper prints none). */
    std::vector<double> paperCycles;
};

ReproSet
buildReproSet(uint64_t seed)
{
    ReproSet set;
    for (const char *name : kReproSpecs) {
        const ExperimentSpec *spec = findExperimentSpec(name);
        if (!spec) {
            std::fprintf(stderr, "perfbench: unknown spec '%s'\n",
                         name);
            std::exit(1);
        }
        for (const SpecSection &section : spec->sections) {
            SectionGrid grid = lowerSection(*spec, section);
            for (size_t i = 0; i < grid.requests.size(); ++i) {
                ExperimentRequest req = grid.requests[i];
                req.seed = seed;
                set.labels.push_back(
                    std::string(name) + "/" + section.alias + ": " +
                    req.variant->name + " @ " + req.model.name);
                set.requests.push_back(std::move(req));
                set.paperCycles.push_back(grid.paperCycles[i]);
            }
        }
    }
    return set;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Bit-for-bit equality of the reported outcome of a cell. */
bool
sameResult(const ExperimentResult &a, const ExperimentResult &b)
{
    return a.kernel == b.kernel && a.variant == b.variant &&
           a.model == b.model &&
           sameBits(a.cyclesPerFrame, b.cyclesPerFrame) &&
           sameBits(a.cyclesPerUnit, b.cyclesPerUnit) &&
           a.comp.codeWords == b.comp.codeWords &&
           a.comp.codeBytes == b.comp.codeBytes &&
           a.comp.nopSlots == b.comp.nopSlots &&
           a.checked == b.checked && a.passed == b.passed &&
           a.comp.icacheOk == b.comp.icacheOk &&
           a.comp.registersOk == b.comp.registersOk &&
           a.comp.degradedRegions == b.comp.degradedRegions;
}

/** A cell passes when it was golden-checked, passed, not degraded. */
void
checkCell(Checks &checks, const std::string &label,
          const ExperimentResult &r, const ExperimentResult *reference)
{
    std::string why;
    if (!r.checked)
        why = "not golden-checked";
    else if (!r.passed)
        why = "golden mismatch (" + r.note + ")";
    else if (r.comp.degradedRegions > 0)
        why = "degraded scheduling regions";
    else if (!(r.cyclesPerFrame > 0) || !std::isfinite(r.cyclesPerFrame))
        why = "non-positive cycles per frame";
    else if (reference && !sameResult(r, *reference))
        why = "differs from the cold reference result";
    checks.expect(why.empty(), label + ": " + why);
}

/** Deterministic quality of one pass's results. */
struct ReproQuality
{
    double cyclesGeomean = 0;
    double codeWords = 0;
    double paperErrGeomean = 0;
    double paperErrMax = 0;
    double paperCells = 0;
};

ReproQuality
reproQuality(const ReproSet &set,
             const std::vector<ExperimentResult> &results)
{
    ReproQuality q;
    std::vector<double> cycles, errs;
    for (size_t i = 0; i < results.size(); ++i) {
        cycles.push_back(results[i].cyclesPerFrame);
        q.codeWords += static_cast<double>(results[i].comp.codeWords);
        if (set.paperCycles[i] > 0) {
            double r = results[i].cyclesPerFrame / set.paperCycles[i];
            errs.push_back(std::max(r, 1 / r));
        }
    }
    q.cyclesGeomean = geomean(cycles);
    q.paperErrGeomean = geomean(errs);
    q.paperErrMax =
        errs.empty() ? 0 : *std::max_element(errs.begin(), errs.end());
    q.paperCells = static_cast<double>(errs.size());
    return q;
}

/** One SweepRunner pass with a fresh cache (disk-backed if `dir`). */
std::vector<ExperimentResult>
sweepPass(const ReproSet &set, int threads, const std::string &dir,
          ExperimentCacheStats *stats)
{
    ExperimentCache cache;
    DiskCache disk(dir);
    cache.setDiskCache(&disk);
    SweepOptions sopts;
    sopts.threads = threads;
    sopts.cache = &cache;
    SweepRunner runner(sopts);
    std::vector<ExperimentResult> results = runner.run(set.requests);
    if (stats)
        *stats = cache.stats();
    return results;
}

/** Hits and misses of all six ExperimentCache levels. */
Metrics
cacheMetrics(const ExperimentCacheStats &s)
{
    auto d = [](uint64_t v) { return static_cast<double>(v); };
    Metrics m;
    m.set("cache.result_hits", d(s.resultHits), "count");
    m.set("cache.result_misses", d(s.resultMisses), "count");
    m.set("cache.lowered_hits", d(s.loweredHits), "count");
    m.set("cache.lowered_misses", d(s.loweredMisses), "count");
    m.set("cache.profile_hits", d(s.profileHits), "count");
    m.set("cache.profile_misses", d(s.profileMisses), "count");
    m.set("cache.program_hits", d(s.programHits), "count");
    m.set("cache.program_misses", d(s.programMisses), "count");
    m.set("cache.module_hits", d(s.moduleHits), "count");
    m.set("cache.module_misses", d(s.moduleMisses), "count");
    m.set("cache.disk_hits", d(s.diskHits), "count");
    m.set("cache.disk_misses", d(s.diskMisses), "count");
    m.set("cache.disk_stores", d(s.diskStores), "count");
    return m;
}

/** What a workload run hands back to main(). */
struct RunOutput
{
    Metrics metrics;
    /** Extra report fields (already-rendered JSON members). */
    std::vector<std::pair<std::string, std::string>> report;
    int threads = 1;
};

/**
 * Write the traced run's spans to <work-dir>/trace_<workload>.json
 * and note the file, span count and traced pass count in the report.
 */
void
reportSpans(RunOutput &out, const Options &opt, const SpanLog &spans,
            size_t traced_passes)
{
    const std::string file =
        opt.workDir + "/trace_" + opt.workload + ".json";
    if (!spans.write(file))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     file.c_str());
    out.report.push_back(
        {"traced_passes", std::to_string(traced_passes)});
    out.report.push_back(
        {"spans", "{\"file\": \"" + jsonEscape(file) +
                      "\", \"count\": " + std::to_string(spans.size()) +
                      "}"});
}

/** Timed samples of one untraced run. */
struct Samples
{
    std::vector<double> setup;
    std::vector<double> wall; ///< per pass, seconds.
    std::vector<double> cpu;  ///< per pass, seconds.
};

void
setTimingMetrics(Metrics &m, const Samples &s, double cells)
{
    double wall = median(s.wall);
    m.set("setup_s", median(s.setup), "s");
    m.set("wall_s", wall, "s");
    m.set("cells_per_s", cells / wall, "1/s");
    m.set("cpu_s", median(s.cpu), "s");
    m.set("rss_peak_mb", peakRssMb(), "MB");
}

std::string
jsonArray(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + num(v[i]);
    return out + "]";
}

/** The set-up samples, and the pass count with its p10/p90 times. */
std::string
samplesJson(const Samples &s)
{
    return "{\"setup_s\": " + jsonArray(s.setup) +
           ", \"passes\": " + std::to_string(s.wall.size()) +
           ", \"wall_s_p10\": " + num(quantile(s.wall, 0.1)) +
           ", \"wall_s_p90\": " + num(quantile(s.wall, 0.9)) +
           ", \"cpu_s_p10\": " + num(quantile(s.cpu, 0.1)) +
           ", \"cpu_s_p90\": " + num(quantile(s.cpu, 0.9)) + "}";
}

void
addQualityReport(RunOutput &out, const ReproQuality &q)
{
    Metrics extra;
    extra.set("code_words", q.codeWords, "words");
    extra.set("paper_err_geomean", q.paperErrGeomean, "ratio");
    extra.set("paper_err_max", q.paperErrMax, "ratio");
    extra.set("paper_cells", q.paperCells, "count");
    out.report.push_back({"quality", extra.json()});
}

RunOutput
runReproCold(const Options &opt, int threads, Checks &checks)
{
    RunOutput out;
    out.threads = threads;
    Samples s;
    const std::string base = opt.workDir + "/repro_cold";
    const std::string dir = base + "/disk";

    // A set-up builds the grid and attaches a cache to the empty
    // directory. The directory itself is made untimed: on the
    // measuring host mkdir took 10 or 260 us depending on the minute,
    // which would have made setup_s a filesystem latency.
    freshDir(dir);
    ReproSet set;
    for (int i = 0; i <= kSetupRepsCold; ++i) {
        auto t0 = Clock::now();
        set = buildReproSet(opt.seed);
        ExperimentCache cache;
        DiskCache disk(dir);
        cache.setDiskCache(&disk);
        if (i > 0)
            s.setup.push_back(secondsSince(t0));
    }

    std::vector<ExperimentResult> reference;
    ExperimentCacheStats first_stats;
    double disk_bytes = 0;
    Budget budget(opt.seconds, kMinSamples);
    while (budget.next()) {
        freshDir(dir);
        ExperimentCacheStats stats;
        double c0 = cpuSeconds();
        auto t0 = Clock::now();
        std::vector<ExperimentResult> results =
            sweepPass(set, threads, dir, &stats);
        s.wall.push_back(secondsSince(t0));
        s.cpu.push_back(cpuSeconds() - c0);
        for (size_t i = 0; i < results.size(); ++i) {
            checkCell(checks, set.labels[i], results[i],
                      reference.empty() ? nullptr : &reference[i]);
        }
        if (reference.empty()) {
            reference = std::move(results);
            first_stats = stats;
            disk_bytes = dirBytes(dir);
        }
    }
    fs::remove_all(base);

    ReproQuality q = reproQuality(set, reference);
    setTimingMetrics(out.metrics, s,
                     static_cast<double>(set.requests.size()));
    out.metrics.set("sim_cycles_geomean", q.cyclesGeomean, "cycles");
    addQualityReport(out, q);
    out.report.push_back({"samples", samplesJson(s)});
    out.report.push_back(
        {"cache_first_pass", cacheMetrics(first_stats).json()});
    out.report.push_back({"disk_bytes", num(disk_bytes)});
    return out;
}

RunOutput
runReproWarm(const Options &opt, int threads, Checks &checks)
{
    RunOutput out;
    out.threads = threads;
    Samples s;
    const std::string base = opt.workDir + "/repro_warm";

    // Set-up includes the cold pass that fills the disk; repeat it
    // into separate directories and keep the last.
    fs::remove_all(base);
    ReproSet set;
    std::vector<ExperimentResult> cold;
    std::string dir;
    for (int i = 0; i < kSetupRepsWarm; ++i) {
        if (!dir.empty())
            fs::remove_all(dir);
        dir = base + "/disk" + std::to_string(i);
        auto t0 = Clock::now();
        set = buildReproSet(opt.seed);
        fs::create_directories(dir);
        cold = sweepPass(set, threads, dir, nullptr);
        s.setup.push_back(secondsSince(t0));
    }
    for (size_t i = 0; i < cold.size(); ++i)
        checkCell(checks, set.labels[i] + " (cold fill)", cold[i],
                  nullptr);

    // A warm pass lasts a few milliseconds, so a run holds thousands;
    // their median ignores passes a host stall stretched.
    ExperimentCacheStats stats;
    Budget budget(opt.seconds, kMinSamples);
    while (budget.next()) {
        double c0 = cpuSeconds();
        auto t0 = Clock::now();
        std::vector<ExperimentResult> results =
            sweepPass(set, threads, dir, &stats);
        s.wall.push_back(secondsSince(t0));
        s.cpu.push_back(cpuSeconds() - c0);
        for (size_t i = 0; i < results.size(); ++i)
            checkCell(checks, set.labels[i], results[i], &cold[i]);
    }
    double disk_bytes = dirBytes(dir);
    fs::remove_all(base);

    ReproQuality q = reproQuality(set, cold);
    setTimingMetrics(out.metrics, s,
                     static_cast<double>(set.requests.size()));
    out.metrics.set("sim_cycles_geomean", q.cyclesGeomean, "cycles");
    addQualityReport(out, q);
    out.report.push_back({"samples", samplesJson(s)});
    out.report.push_back({"cache_last_pass", cacheMetrics(stats).json()});
    out.report.push_back({"disk_bytes", num(disk_bytes)});
    return out;
}

/** Phase wall-time sums (us) the program records per cell. */
struct PhaseSums
{
    double lowering = 0;
    double interp = 0;
    double compose = 0;
    double list = 0;   ///< inside compose.
    double modulo = 0; ///< inside compose.
};

PhaseSums
phaseSums(const obs::StatsRegistry &reg)
{
    auto us = [&](const char *p) {
        return static_cast<double>(reg.distributionValue(p).sum());
    };
    return {us("phase/lowering/wall_us"), us("phase/interp_sim/wall_us"),
            us("phase/compose/wall_us"), us("phase/list_sched/wall_us"),
            us("phase/modulo_sched/wall_us")};
}

/** Per-layer numbers of one traced repro pass. */
Metrics
tracedReproPass(const ReproSet &set, const std::string &dir,
                const std::vector<ExperimentResult> *reference,
                Checks &checks, SpanLog *spans,
                ExperimentCacheStats *stats)
{
    obs::StatsRegistry reg;
    obs::setGlobalStats(&reg);
    ExperimentCache cache;
    DiskCache disk(dir);
    cache.setDiskCache(&disk);

    std::vector<double> cell_ms;
    std::vector<ExperimentResult> results;
    results.reserve(set.requests.size());
    int64_t workload_id = spans ? spans->reserve() : 0;
    auto pass_t0 = Clock::now();
    for (size_t i = 0; i < set.requests.size(); ++i) {
        PhaseSums before = phaseSums(reg);
        auto t0 = Clock::now();
        results.push_back(runExperiment(set.requests[i], &cache));
        auto t1 = Clock::now();
        PhaseSums after = phaseSums(reg);
        double us =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        cell_ms.push_back(us / 1e3);
        if (spans) {
            // Durations are the program's own phase timers. The three
            // phases run back to back inside the call, so they are
            // laid out in order from the cell start; the scheduler
            // calls interleave inside compose, so their summed spans
            // are laid out from the compose start.
            int64_t cell = static_cast<int64_t>(i);
            int64_t id = spans->add("cell " + set.labels[i],
                                    workload_id, cell, t0, us);
            auto at = t0;
            auto lay = [&](const char *name, int64_t parent,
                           double dur) {
                if (dur <= 0)
                    return int64_t{0};
                int64_t sid = spans->add(name, parent, cell, at, dur);
                at += std::chrono::microseconds(
                    static_cast<int64_t>(dur));
                return sid;
            };
            lay("lowering", id, after.lowering - before.lowering);
            lay("interp_sim", id, after.interp - before.interp);
            auto compose_start = at;
            int64_t compose_id =
                lay("compose", id, after.compose - before.compose);
            at = compose_start;
            lay("list_sched", compose_id, after.list - before.list);
            lay("modulo_sched", compose_id,
                after.modulo - before.modulo);
        }
    }
    double pass_us = std::chrono::duration<double, std::micro>(
                         Clock::now() - pass_t0)
                         .count();
    if (spans) {
        spans->addReserved(workload_id, "workload", 0, -1, pass_t0,
                           pass_us);
    }
    obs::setGlobalStats(nullptr);
    if (stats)
        *stats = cache.stats();
    for (size_t i = 0; i < results.size(); ++i) {
        checkCell(checks, set.labels[i] + " (traced)", results[i],
                  reference ? &(*reference)[i] : nullptr);
    }

    Metrics m;
    double cell_sum = 0;
    for (double ms : cell_ms)
        cell_sum += ms;
    PhaseSums ph = phaseSums(reg);
    double lower_ms = ph.lowering / 1e3, interp_ms = ph.interp / 1e3,
           compose_ms = ph.compose / 1e3, list_ms = ph.list / 1e3,
           modulo_ms = ph.modulo / 1e3;
    IntStat slack = reg.distributionValue("sched/swp/ii_slack");

    m.set("core.cell_p50_ms", quantile(cell_ms, 0.5), "ms");
    m.set("core.cell_p90_ms", quantile(cell_ms, 0.9), "ms");
    m.set("core.cell_max_ms", quantile(cell_ms, 1.0), "ms");
    m.set("core.cell_sum_ms", cell_sum, "ms");
    m.set("core.other_ms", cell_sum - lower_ms - interp_ms - compose_ms,
          "ms");
    m.set("lower.ms", lower_ms, "ms");
    m.set("xform.ms", sumOverChildren(reg, "xform", "wall_us") / 1e3,
          "ms");
    m.set("xform.ops_out", sumOverChildren(reg, "xform", "ops_out"),
          "ops");
    m.set("interp.ms", interp_ms, "ms");
    m.set("interp.cells",
          static_cast<double>(
              reg.distributionValue("interp/exec_us").count()),
          "count");
    m.set("sched.list_ms", list_ms, "ms");
    m.set("sched.modulo_ms", modulo_ms, "ms");
    IntStat modulo = reg.distributionValue("phase/modulo_sched/wall_us");
    m.set("sched.modulo_max_ms",
          modulo.count() ? static_cast<double>(modulo.max()) / 1e3 : 0,
          "ms");
    m.set("sched.ii_attempts",
          static_cast<double>(slack.sum() + slack.count()), "count");
    m.set("sched.ii_sum",
          static_cast<double>(reg.distributionValue("sched/swp/ii").sum()),
          "cycles");
    m.set("sched.list_runs", counter(reg, "sched/list_runs"), "count");
    m.set("sched.modulo_runs", counter(reg, "sched/modulo_runs"),
          "count");
    m.set("compose.ms", compose_ms, "ms");
    m.set("compose.other_ms", compose_ms - list_ms - modulo_ms, "ms");
    m.set("isa.words", counter(reg, "isa/words"), "words");
    m.set("isa.nop_slots", counter(reg, "isa/nop_slots"), "count");
    m.set("disk.hits", counter(reg, "disk_cache/hit"), "count");
    m.set("disk.stores", counter(reg, "disk_cache/store"), "count");
    m.set("disk.hit_p50_us", histQuantile(reg, "disk_cache/hit_us", 0.5),
          "us");
    m.set("disk.hit_p90_us", histQuantile(reg, "disk_cache/hit_us", 0.9),
          "us");
    m.set("disk.store_p90_us",
          histQuantile(reg, "disk_cache/store_us", 0.9), "us");
    m.set("disk.bytes", dirBytes(dir), "bytes");
    return m;
}

RunOutput
runReproTraced(const Options &opt, int threads, Checks &checks,
               bool warm)
{
    RunOutput out;
    out.threads = 1;
    const std::string base = opt.workDir + "/" + opt.workload;
    ReproSet set = buildReproSet(opt.seed);

    // Untraced pass at the workload's thread count, for the cache
    // accounting (duplicate work only shows with several threads).
    // repro_warm first fills its disk directory with a cold pass.
    const std::string pass_dir = base + "/disk";
    freshDir(pass_dir);
    std::vector<ExperimentResult> reference;
    if (warm) {
        reference = sweepPass(set, threads, pass_dir, nullptr);
        for (size_t i = 0; i < reference.size(); ++i)
            checkCell(checks, set.labels[i] + " (cold fill)",
                      reference[i], nullptr);
    }
    ExperimentCacheStats at_threads;
    std::vector<ExperimentResult> results =
        sweepPass(set, threads, pass_dir, &at_threads);
    for (size_t i = 0; i < results.size(); ++i) {
        checkCell(checks, set.labels[i], results[i],
                  reference.empty() ? nullptr : &reference[i]);
    }
    if (reference.empty())
        reference = std::move(results);

    // Traced passes at one thread: cold passes each get an empty
    // directory, warm passes read the filled one.
    const std::string traced_dir = warm ? pass_dir : base + "/traced";
    SpanLog spans(Clock::now());
    std::vector<Metrics> traced;
    ExperimentCacheStats at_one;
    Budget budget(opt.seconds, 1);
    while (budget.next()) {
        if (!warm)
            freshDir(traced_dir);
        traced.push_back(tracedReproPass(set, traced_dir, &reference,
                                         checks,
                                         traced.empty() ? &spans
                                                        : nullptr,
                                         &at_one));
    }
    fs::remove_all(base);

    out.metrics = Metrics::medianOf(traced);
    out.metrics.merge(cacheMetrics(at_threads));
    out.metrics.set("cache.interp_dup",
                    static_cast<double>(at_threads.profileMisses) -
                        static_cast<double>(at_one.profileMisses),
                    "count");
    out.report.push_back(
        {"cache_at_threads", cacheMetrics(at_threads).json()});
    out.report.push_back(
        {"cache_at_1_thread", cacheMetrics(at_one).json()});
    reportSpans(out, opt, spans, traced.size());
    return out;
}

// ---------------------------------------------------------------
// cyclesim
// ---------------------------------------------------------------

/** One utilization cell: a kernel's last variant on one model. */
struct SimCell
{
    const KernelSpec *kernel = nullptr;
    const VariantSpec *variant = nullptr;
    DatapathConfig cfg;
    std::string label;
};

std::vector<SimCell>
buildSimCells()
{
    const ExperimentSpec *spec = findExperimentSpec("utilization");
    if (!spec) {
        std::fprintf(stderr, "perfbench: no utilization spec\n");
        std::exit(1);
    }
    std::vector<SimCell> cells;
    for (const std::string &model : spec->models) {
        for (const KernelSpec &k : allKernels()) {
            // Variants run least to most optimized; take the last,
            // as `vvsp utilization` does.
            SimCell c;
            c.kernel = &k;
            c.variant = &k.variants.back();
            c.cfg = models::byName(model);
            if (c.variant->needsAbsDiff)
                c.cfg.cluster.hasAbsDiff = true;
            c.label = "utilization: " + k.name + " / " +
                      c.variant->name + " @ " + model;
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/** Outcome of one serial pass over the cycle-sim cells. */
struct SimPass
{
    double wallSeconds = 0; ///< timed work only (checks excluded).
    double cpuSeconds = 0;
    double lowerUs = 0;
    double runUs = 0;
    double ops = 0;
    std::vector<double> cycles;
    obs::GroupTelemetry telemetry;
};

/**
 * Lower, prepare and cycle-simulate every cell; then check each
 * cell's output buffers against the kernel golden (untimed).
 */
SimPass
simPass(const std::vector<SimCell> &cells, int unit, Checks &checks,
        SpanLog *spans)
{
    SimPass p;
    int64_t workload_id = spans ? spans->reserve() : 0;
    auto pass_t0 = Clock::now();
    for (size_t i = 0; i < cells.size(); ++i) {
        const SimCell &c = cells[i];
        double c0 = cpuSeconds();
        auto t0 = Clock::now();
        MachineModel machine(c.cfg);
        Function fn = lowerVariant(*c.kernel, *c.variant, machine);
        auto t1 = Clock::now();
        MemoryImage mem(fn);
        c.kernel->prepare(fn, mem, kSimGeometry, unit);
        CycleSim sim(machine, c.variant->mode);
        obs::GroupTelemetry t;
        auto t2 = Clock::now();
        CycleSimReport rep = sim.run(fn, mem, &t);
        auto t3 = Clock::now();
        p.cpuSeconds += cpuSeconds() - c0;
        using us = std::chrono::duration<double, std::micro>;
        double cell_us = us(t3 - t0).count();
        p.wallSeconds += cell_us / 1e6;
        p.lowerUs += us(t1 - t0).count();
        p.runUs += us(t3 - t2).count();
        if (spans) {
            int64_t cell = static_cast<int64_t>(i);
            int64_t id = spans->add("cell " + c.label, workload_id,
                                    cell, t0, cell_us);
            spans->add("lowerVariant", id, cell, t0,
                       us(t1 - t0).count());
            spans->add("prepare", id, cell, t1, us(t2 - t1).count());
            spans->add("CycleSim::run", id, cell, t2,
                       us(t3 - t2).count());
        }

        p.ops += static_cast<double>(rep.operations);
        p.cycles.push_back(static_cast<double>(rep.cycles));
        p.telemetry.addScaled(t, 1);

        MemoryImage expected(fn);
        c.kernel->prepare(fn, expected, kSimGeometry, unit);
        const GoldenFn &golden = c.variant->goldenOverride
                                     ? c.variant->goldenOverride
                                     : c.kernel->golden;
        golden(fn, expected);
        std::string bad;
        for (const std::string &bname : c.kernel->outputBuffers) {
            int id = bufferIdByName(fn, bname);
            if (mem.bufferWords(id) != expected.bufferWords(id))
                bad += (bad.empty() ? "" : ", ") + bname;
        }
        checks.expect(rep.cycles > 0 && bad.empty(),
                      c.label + ": " +
                          (bad.empty() ? "zero cycles"
                                       : "output buffers mismatch "
                                         "golden: " + bad));
    }
    if (spans) {
        spans->addReserved(
            workload_id, "workload", 0, -1, pass_t0,
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      pass_t0)
                .count());
    }
    return p;
}

/**
 * Pins the calling thread to each CPU of the process's start-up mask
 * in turn. cyclesim runs one busy thread, which the scheduler keeps on
 * one CPU; on a shared host that CPU's contention from other tenants
 * then set the time of every pass of a run (per-CPU pass times
 * differed by up to 30%, and the slow CPU changed from minute to
 * minute). Rotating passes over the CPUs lets the median see them all.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t mask;
        CPU_ZERO(&mask);
        if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &mask))
                    cpus_.push_back(c);
            }
        }
    }

    /** Move to the next CPU; stays put if pinning is not allowed. */
    void
    next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    std::vector<int> cpus_;
    size_t next_ = 0;
};

/** The prepare() unit a seed selects (prepare wraps it per kernel). */
int
unitForSeed(uint64_t seed)
{
    return static_cast<int>(seed % 4096);
}

RunOutput
runCycleSim(const Options &opt, Checks &checks)
{
    RunOutput out;
    out.threads = 1;
    Samples s;
    std::vector<SimCell> cells;
    for (int i = 0; i <= kSetupRepsSim; ++i) {
        auto t0 = Clock::now();
        cells = buildSimCells();
        if (i > 0)
            s.setup.push_back(secondsSince(t0));
    }
    const int unit = unitForSeed(opt.seed);

    SimPass first;
    std::vector<double> ops_rate;
    Budget budget(opt.seconds, kMinSamples);
    CpuRotation rotation;
    while (budget.next()) {
        rotation.next();
        SimPass p = simPass(cells, unit, checks, nullptr);
        s.wall.push_back(p.wallSeconds);
        s.cpu.push_back(p.cpuSeconds);
        ops_rate.push_back(p.ops / p.wallSeconds);
        if (first.cycles.empty()) {
            first = p;
        } else {
            checks.expect(first.cycles == p.cycles && first.ops == p.ops,
                          "utilization: cycle counts differ between "
                          "passes");
        }
    }

    setTimingMetrics(out.metrics, s, static_cast<double>(cells.size()));
    out.metrics.set("sim_cycles_geomean", geomean(first.cycles),
                    "cycles");
    Metrics extra;
    extra.set("sim_ops_per_s", median(ops_rate), "ops/s");
    extra.set("sim_ops", first.ops, "ops");
    double total_cycles = 0;
    for (double c : first.cycles)
        total_cycles += c;
    extra.set("sim_cycles_total", total_cycles, "cycles");
    out.report.push_back({"quality", extra.json()});
    out.report.push_back({"samples", samplesJson(s)});
    out.report.push_back({"unit", std::to_string(unit)});
    return out;
}

RunOutput
runCycleSimTraced(const Options &opt, Checks &checks)
{
    RunOutput out;
    out.threads = 1;
    std::vector<SimCell> cells = buildSimCells();
    const int unit = unitForSeed(opt.seed);

    // Alternate untraced and traced passes so both see the same host
    // conditions; the ratio of their medians is the overhead.
    SpanLog spans(Clock::now());
    std::vector<double> plain_wall, traced_wall;
    std::vector<Metrics> traced;
    Budget budget(opt.seconds, 1);
    CpuRotation rotation;
    while (budget.next()) {
        // Both passes of a pair run on the same CPU.
        rotation.next();
        plain_wall.push_back(
            simPass(cells, unit, checks, nullptr).wallSeconds);

        obs::StatsRegistry reg;
        obs::setGlobalStats(&reg);
        SimPass p = simPass(cells, unit, checks,
                            traced.empty() ? &spans : nullptr);
        obs::setGlobalStats(nullptr);
        traced_wall.push_back(p.wallSeconds);

        Metrics m;
        m.set("xform.ms", sumOverChildren(reg, "xform", "wall_us") / 1e3,
              "ms");
        m.set("xform.ops_out", sumOverChildren(reg, "xform", "ops_out"),
              "ops");
        m.set("sched.list_runs", counter(reg, "sched/list_runs"),
              "count");
        m.set("sched.modulo_runs", counter(reg, "sched/modulo_runs"),
              "count");
        m.set("cyclesim.ms", p.runUs / 1e3, "ms");
        m.set("cyclesim.lower_ms", p.lowerUs / 1e3, "ms");
        m.set("cyclesim.ops", p.ops, "ops");
        double total_cycles = 0;
        for (double c : p.cycles)
            total_cycles += c;
        m.set("cyclesim.cycles", total_cycles, "cycles");
        m.set("cyclesim.slot_util", p.telemetry.slotUtilization(),
              "ratio");
        m.set("cyclesim.xbar_util", p.telemetry.xbarUtilization(),
              "ratio");
        traced.push_back(std::move(m));
    }

    out.metrics = Metrics::medianOf(traced);
    out.metrics.set("obs.overhead_ratio",
                    median(traced_wall) / median(plain_wall), "ratio");
    reportSpans(out, opt, spans, traced.size());
    return out;
}

// ---------------------------------------------------------------
// Metric sets (must match BENCHMARK.json) and the command line.
// ---------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** BENCHMARK.json "end_to_end": printed by every --trace 0 run. */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"wall_s", "s"},
    {"cells_per_s", "1/s"},  {"cpu_s", "s"},
    {"rss_peak_mb", "MB"},   {"sim_cycles_geomean", "cycles"},
};

/**
 * BENCHMARK.json "per_layer": printed by every --trace 1 run. A
 * layer a workload does not exercise reads 0 there.
 */
const MetricDef kPerLayer[] = {
    {"core.cell_p50_ms", "ms"},    {"core.cell_p90_ms", "ms"},
    {"core.cell_max_ms", "ms"},    {"core.cell_sum_ms", "ms"},
    {"core.other_ms", "ms"},       {"lower.ms", "ms"},
    {"cache.result_hits", "count"}, {"cache.result_misses", "count"},
    {"cache.lowered_hits", "count"}, {"cache.lowered_misses", "count"},
    {"cache.profile_hits", "count"}, {"cache.profile_misses", "count"},
    {"cache.program_hits", "count"}, {"cache.program_misses", "count"},
    {"cache.module_hits", "count"}, {"cache.module_misses", "count"},
    {"cache.interp_dup", "count"}, {"disk.hits", "count"},
    {"disk.stores", "count"},      {"disk.hit_p50_us", "us"},
    {"disk.hit_p90_us", "us"},     {"disk.store_p90_us", "us"},
    {"disk.bytes", "bytes"},       {"xform.ms", "ms"},
    {"xform.ops_out", "ops"},      {"interp.ms", "ms"},
    {"interp.cells", "count"},     {"sched.list_ms", "ms"},
    {"sched.modulo_ms", "ms"},     {"sched.modulo_max_ms", "ms"},
    {"sched.ii_attempts", "count"}, {"sched.ii_sum", "cycles"},
    {"sched.list_runs", "count"},  {"sched.modulo_runs", "count"},
    {"compose.ms", "ms"},          {"compose.other_ms", "ms"},
    {"isa.words", "words"},        {"isa.nop_slots", "count"},
    {"cyclesim.ms", "ms"},         {"cyclesim.lower_ms", "ms"},
    {"cyclesim.ops", "ops"},       {"cyclesim.cycles", "cycles"},
    {"cyclesim.slot_util", "ratio"}, {"cyclesim.xbar_util", "ratio"},
    {"obs.overhead_ratio", "ratio"},
};

/** Exactly the named set, in its order (absent ones read 0). */
template <size_t N>
Metrics
select(const Metrics &m, const MetricDef (&defs)[N])
{
    Metrics out;
    for (const MetricDef &d : defs)
        out.set(d.name, m.get(d.name), d.unit);
    return out;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: vvsp_perfbench --workload "
                 "repro_cold|repro_warm|cyclesim [--seed N] "
                 "[--seconds S] [--trace 0|1] [--work-dir DIR] "
                 "[--commit REV] [--source-digest HEX]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string val = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = val;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end)
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(opt.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            opt.trace = val == "1";
        } else if (flag == "--work-dir") {
            opt.workDir = val;
        } else if (flag == "--commit") {
            opt.commit = val;
        } else if (flag == "--source-digest") {
            opt.sourceDigest = val;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (opt.workload != "repro_cold" && opt.workload != "repro_warm" &&
        opt.workload != "cyclesim")
        usage("--workload must be repro_cold, repro_warm or cyclesim");
    return opt;
}

} // anonymous namespace

int
benchMain(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    fs::create_directories(opt.workDir);
    // Load comes from one process with at most min(4, nproc) threads.
    int threads = static_cast<int>(
        std::clamp(sysconf(_SC_NPROCESSORS_ONLN), 1L, 4L));

    Checks checks;
    RunOutput run;
    if (opt.workload == "cyclesim") {
        run = opt.trace ? runCycleSimTraced(opt, checks)
                        : runCycleSim(opt, checks);
    } else {
        bool warm = opt.workload == "repro_warm";
        if (opt.trace)
            run = runReproTraced(opt, threads, checks, warm);
        else if (warm)
            run = runReproWarm(opt, threads, checks);
        else
            run = runReproCold(opt, threads, checks);
    }

    Metrics contract = opt.trace ? select(run.metrics, kPerLayer)
                                 : select(run.metrics, kEndToEnd);
    std::string report = "{\"workload\": \"" + opt.workload +
                         "\", \"trace\": " + (opt.trace ? "1" : "0") +
                         ", \"stamp\": " + stampJson(opt, run.threads) +
                         ", \"metrics\": " + contract.json();
    for (const auto &[key, value] : run.report)
        report += ", \"" + key + "\": " + value;
    Metrics failures;
    failures.set("fail_ratio",
                 checks.attempted()
                     ? static_cast<double>(checks.failed()) /
                           static_cast<double>(checks.attempted())
                     : 0,
                 "ratio");
    report += ", \"failures\": " + failures.json();
    report += ", \"attempted\": " + std::to_string(checks.attempted()) +
              ", \"failed\": " + std::to_string(checks.failed()) + "}";
    std::ofstream(opt.workDir + "/report_" + opt.workload + "_trace" +
                  (opt.trace ? "1" : "0") + ".json")
        << report << "\n";

    bool correct = checks.failed() == 0 && checks.attempted() > 0;
    std::printf("%s\n", report.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted()),
                static_cast<unsigned long long>(checks.failed()),
                contract.json().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace bench
} // namespace vvsp

int
main(int argc, char **argv)
{
    return vvsp::bench::benchMain(argc, argv);
}
