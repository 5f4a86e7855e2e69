#include "obs/stats_registry.hh"

#include <cstdio>
#include <sstream>

#include "support/thread_pool.hh"

namespace vvsp
{
namespace obs
{

OwnTimer::OwnTimer(bool with_cpu)
    : t0_(std::chrono::steady_clock::now()), withCpu_(with_cpu)
{
    const ThreadPool::ForeignTime &f = ThreadPool::foreignTime();
    helpedWall0_ = f.helpedWallNs;
    helpedCpu0_ = f.helpedCpuNs;
    if (withCpu_)
        cpu0_ = ThreadPool::threadCpuNs();
}

uint64_t
OwnTimer::wallUs() const
{
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
    const uint64_t helped =
        ThreadPool::foreignTime().helpedWallNs - helpedWall0_;
    return (ns > helped ? ns - helped : 0) / 1000;
}

uint64_t
OwnTimer::cpuUs() const
{
    if (!withCpu_)
        return 0;
    const uint64_t ns = ThreadPool::threadCpuNs() - cpu0_;
    const uint64_t helped =
        ThreadPool::foreignTime().helpedCpuNs - helpedCpu0_;
    return (ns > helped ? ns - helped : 0) / 1000;
}

Counter &
StatsRegistry::counter(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(path);
    if (it == counters_.end()) {
        it = counters_.emplace(path, std::make_unique<Counter>())
                 .first;
    }
    return *it->second;
}

Distribution &
StatsRegistry::distribution(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = dists_.find(path);
    if (it == dists_.end()) {
        it = dists_.emplace(path, std::make_unique<Distribution>())
                 .first;
    }
    return *it->second;
}

StatsScope
StatsRegistry::scope(const std::string &prefix)
{
    return StatsScope(this, prefix);
}

uint64_t
StatsRegistry::counterValue(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(path);
    return it == counters_.end() ? 0 : it->second->get();
}

IntStat
StatsRegistry::distributionValue(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = dists_.find(path);
    return it == dists_.end() ? IntStat{} : it->second->snapshot();
}

std::vector<std::pair<std::string, uint64_t>>
StatsRegistry::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto &[path, c] : counters_)
        out.emplace_back(path, c->get());
    return out;
}

std::vector<std::pair<std::string, IntStat>>
StatsRegistry::distributions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, IntStat>> out;
    out.reserve(dists_.size());
    for (const auto &[path, d] : dists_)
        out.emplace_back(path, d->snapshot());
    return out;
}

std::vector<std::pair<std::string, Log2Histogram>>
StatsRegistry::histograms() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, Log2Histogram>> out;
    out.reserve(dists_.size());
    for (const auto &[path, d] : dists_)
        out.emplace_back(path, d->histogram());
    return out;
}

void
StatsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    dists_.clear();
}

namespace
{

std::string
quantileStr(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
}

} // anonymous namespace

std::string
StatsRegistry::str() const
{
    std::ostringstream os;
    for (const auto &[path, value] : counters())
        os << path << " = " << value << "\n";
    for (const auto &[path, hist] : histograms()) {
        os << path << " : count=" << hist.count()
           << " sum=" << hist.sum();
        if (hist.count() > 0) {
            os << " min=" << hist.min() << " max=" << hist.max()
               << " mean=" << hist.mean()
               << " p50=" << quantileStr(hist.p50())
               << " p90=" << quantileStr(hist.p90())
               << " p99=" << quantileStr(hist.p99());
        }
        os << "\n";
    }
    return os.str();
}

namespace
{

void
jsonEscapeInto(std::ostringstream &os, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
}

} // anonymous namespace

std::string
StatsRegistry::json() const
{
    std::ostringstream os;
    os << "{\"counters\": {";
    bool first = true;
    for (const auto &[path, value] : counters()) {
        os << (first ? "" : ", ") << "\"";
        jsonEscapeInto(os, path);
        os << "\": " << value;
        first = false;
    }
    os << "}, \"distributions\": {";
    first = true;
    for (const auto &[path, hist] : histograms()) {
        os << (first ? "" : ", ") << "\"";
        jsonEscapeInto(os, path);
        os << "\": {\"count\": " << hist.count()
           << ", \"sum\": " << hist.sum();
        if (hist.count() > 0) {
            os << ", \"min\": " << hist.min()
               << ", \"max\": " << hist.max()
               << ", \"p50\": " << quantileStr(hist.p50())
               << ", \"p90\": " << quantileStr(hist.p90())
               << ", \"p99\": " << quantileStr(hist.p99());
        }
        os << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

namespace
{

std::atomic<StatsRegistry *> g_stats{nullptr};

} // anonymous namespace

StatsRegistry *
globalStats()
{
    return g_stats.load(std::memory_order_acquire);
}

void
setGlobalStats(StatsRegistry *registry)
{
    g_stats.store(registry, std::memory_order_release);
}

StatsScope
globalScope(const std::string &prefix)
{
    return StatsScope(globalStats(), prefix);
}

} // namespace obs
} // namespace vvsp
