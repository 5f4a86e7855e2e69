/**
 * @file
 * Hierarchical, thread-safe statistics registry - the hub of the
 * observability layer (DESIGN.md "Observability").
 *
 * A registry owns named counters (monotonic uint64, lock-free after
 * the first lookup) and distributions (integer running stats),
 * addressed by '/'-separated paths. A StatsScope is a lightweight
 * (registry, prefix) pair that instrumentation sites carry; scopes
 * nest, and a scope over a null registry swallows every record at
 * the cost of one branch - the "null sink" that keeps disabled-stats
 * overhead unmeasurable.
 *
 * Determinism contract: counters and distributions are commutative
 * accumulators over integers, so a sweep recording into one registry
 * produces bit-identical final state at any worker-thread count
 * (asserted by tests/test_obs.cc).
 */

#ifndef VVSP_OBS_STATS_REGISTRY_HH
#define VVSP_OBS_STATS_REGISTRY_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.hh"
#include "support/stats.hh"

namespace vvsp
{
namespace obs
{

/** Monotonic named counter; add() is lock-free. */
class Counter
{
  public:
    void add(uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    uint64_t get() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/**
 * Named distribution over integer samples. Alongside the running
 * count/sum/min/max it keeps a log2 bucket histogram, so consumers
 * (--stats=json, the run ledger) can report p50/p90/p99 latency
 * estimates; both accumulators are commutative, preserving the
 * registry's determinism contract.
 */
class Distribution
{
  public:
    void
    sample(uint64_t v)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stat_.sample(v);
        hist_.sample(v);
    }

    /** Consistent copy of the accumulated statistics. */
    IntStat snapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stat_;
    }

    /** Consistent copy of the bucketed histogram. */
    Log2Histogram histogram() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hist_;
    }

  private:
    mutable std::mutex mutex_;
    IntStat stat_;
    Log2Histogram hist_;
};

class StatsScope;

/** Registry of named counters and distributions. */
class StatsRegistry
{
  public:
    /**
     * The counter at `path`, created on first use. The returned
     * reference stays valid for the registry's lifetime (values are
     * heap-allocated; the map only holds owners).
     */
    Counter &counter(const std::string &path);

    /** The distribution at `path`, created on first use. */
    Distribution &distribution(const std::string &path);

    /** A scope recording under `prefix/` in this registry. */
    StatsScope scope(const std::string &prefix);

    /** Value of a counter; 0 if it was never created. */
    uint64_t counterValue(const std::string &path) const;

    /** Snapshot of a distribution; empty if never created. */
    IntStat distributionValue(const std::string &path) const;

    /** All counter (path, value) pairs in path order. */
    std::vector<std::pair<std::string, uint64_t>> counters() const;

    /** All distribution (path, snapshot) pairs in path order. */
    std::vector<std::pair<std::string, IntStat>> distributions() const;

    /** All distribution (path, histogram) pairs in path order. */
    std::vector<std::pair<std::string, Log2Histogram>>
    histograms() const;

    /** Drop every counter and distribution. */
    void clear();

    /** Render as sorted "path = value" / distribution lines. */
    std::string str() const;

    /** Render as a JSON object {"counters":{...},"distributions":{...}}. */
    std::string json() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Distribution>> dists_;
};

/**
 * A (registry, path-prefix) pair carried by instrumentation sites.
 * Default-constructed scopes record nowhere; every operation on them
 * is a single null check.
 */
class StatsScope
{
  public:
    StatsScope() = default;
    StatsScope(StatsRegistry *registry, std::string prefix)
        : registry_(registry), prefix_(std::move(prefix))
    {
    }

    /** Whether records reach a registry. */
    bool enabled() const { return registry_ != nullptr; }

    /** Nested scope "this-prefix/name". */
    StatsScope
    scope(const std::string &name) const
    {
        if (!registry_)
            return {};
        return {registry_, join(name)};
    }

    /** Bump "prefix/name" by delta. */
    void
    bump(const std::string &name, uint64_t delta = 1) const
    {
        if (registry_ && delta != 0)
            registry_->counter(join(name)).add(delta);
    }

    /** Sample into the distribution "prefix/name". */
    void
    sample(const std::string &name, uint64_t v) const
    {
        if (registry_)
            registry_->distribution(join(name)).sample(v);
    }

    StatsRegistry *registry() const { return registry_; }
    const std::string &prefix() const { return prefix_; }

  private:
    std::string
    join(const std::string &name) const
    {
        return prefix_.empty() ? name : prefix_ + "/" + name;
    }

    StatsRegistry *registry_ = nullptr;
    std::string prefix_;
};

/**
 * The calling thread's own time since construction: wall time and,
 * when asked for, thread-CPU time (CLOCK_THREAD_CPUTIME_ID), both
 * without the time the thread spent running tasks it helped with
 * from a single-flight wait (ThreadPool::helpOne). A timed phase or
 * cell therefore never counts another cell's work.
 */
class OwnTimer
{
  public:
    explicit OwnTimer(bool with_cpu = false);

    /** Own wall time so far, microseconds. */
    uint64_t wallUs() const;
    /** Own thread-CPU time so far, microseconds (0 without cpu). */
    uint64_t cpuUs() const;

  private:
    std::chrono::steady_clock::time_point t0_;
    uint64_t cpu0_ = 0;
    uint64_t helpedWall0_ = 0;
    uint64_t helpedCpu0_ = 0;
    bool withCpu_ = false;
};

/**
 * Run `body`, recording its own time (OwnTimer) under
 * "scope-prefix/<name>" ("runs" count, "wall_us" and "cpu_us"
 * distributions) when the scope is enabled; a disabled scope costs
 * one branch. Returns body's result. This is the pipeline's
 * phase-timing hook: runExperiment and the Composer wrap lowering /
 * interpreter-profiling / scheduling in it, and `vvsp sweep
 * --profile` reports the per-phase breakdown. cpu_us is the thread's
 * CPU time, so a preempted thread's phase reads the same there as on
 * a quiet host. *_us samples are, of course, nondeterministic;
 * determinism-asserting consumers skip *_us paths.
 */
template <typename Body>
auto
timedPhase(const StatsScope &scope, const char *name, Body &&body)
{
    if (!scope.enabled())
        return body();
    OwnTimer timer(/*with_cpu=*/true);
    auto result = body();
    const uint64_t wall_us = timer.wallUs();
    const uint64_t cpu_us = timer.cpuUs();
    StatsScope p = scope.scope(name);
    p.bump("runs");
    p.sample("wall_us", wall_us);
    p.sample("cpu_us", cpu_us);
    return result;
}

/**
 * The process-global registry used by instrumentation sites that have
 * no natural parameter path (xform pass timing, scheduler telemetry).
 * Null - and therefore free - until enabled; reading it is one
 * relaxed atomic load.
 */
StatsRegistry *globalStats();

/**
 * Install (or, with nullptr, remove) the global registry. The caller
 * keeps ownership and must keep the registry alive while installed.
 * Not meant to be raced against recording threads: install before
 * submitting work, remove after wait().
 */
void setGlobalStats(StatsRegistry *registry);

/** Scope over the global registry (disabled scope when unset). */
StatsScope globalScope(const std::string &prefix);

} // namespace obs
} // namespace vvsp

#endif // VVSP_OBS_STATS_REGISTRY_HH
