#include "core/experiment_cache.hh"

#include <chrono>
#include <sstream>

#include "arch/config_json.hh"
#include "core/disk_cache.hh"
#include "obs/stats_registry.hh"
#include "sim/bytecode.hh"
#include "support/logging.hh"

namespace vvsp
{

std::string
ExperimentCache::loweringKey(const ExperimentRequest &req,
                             const DatapathConfig &cfg)
{
    vvsp_assert(req.kernel && req.variant, "incomplete request");
    // The machine half of the key is the canonical serialized form
    // (arch/config_json.hh), which excludes the display name: two
    // differently-named models with the same parameters — including
    // machines loaded from JSON files — are the same machine to the
    // pipeline and share cache entries.
    std::ostringstream os;
    os << req.kernel->name << '|' << req.variant->name << '|'
       << canonicalMachineKey(cfg);
    return os.str();
}

std::string
ExperimentCache::resultKey(const ExperimentRequest &req,
                           const DatapathConfig &cfg)
{
    std::ostringstream os;
    os << loweringKey(req, cfg) << '|' << req.geometry.width << 'x'
       << req.geometry.height << '|' << req.profileUnits << '|'
       << req.seed << '|' << req.check;
    return os.str();
}

std::string
ExperimentCache::profileKey(const ExperimentRequest &req,
                            uint64_t fn_fingerprint)
{
    vvsp_assert(req.kernel && req.variant, "incomplete request");
    // No machine component: the fingerprint of the *lowered*
    // function already captures everything the interpreter can
    // observe of the machine, so models whose lowerings coincide
    // (e.g. same cluster internals, different issue width) fold to
    // one entry.
    std::ostringstream os;
    os << req.kernel->name << '|' << req.variant->name << '|'
       << std::hex << fn_fingerprint << std::dec << '|'
       << req.geometry.width << 'x' << req.geometry.height << '|'
       << req.profileUnits << '|' << req.seed << '|' << req.check;
    return os.str();
}

Function
ExperimentCache::lowerCached(const std::string &key,
                             const KernelSpec &kernel,
                             const VariantSpec &variant,
                             const MachineModel &machine)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = lowered_.find(key);
        if (it != lowered_.end()) {
            ++stats_.loweredHits;
            return it->second.clone();
        }
        ++stats_.loweredMisses;
    }
    // Lower outside the lock so concurrent misses on *different*
    // cells proceed in parallel; a duplicate miss on the same cell
    // just does the work twice and the first insert wins.
    Function fn = lowerVariant(kernel, variant, machine);
    std::lock_guard<std::mutex> lock(mutex_);
    lowered_.try_emplace(key, fn.clone());
    return fn;
}

bool
ExperimentCache::findResult(const std::string &key,
                            const std::string &model_name,
                            ExperimentResult &out)
{
    // Lookup-latency telemetry (memo/{hit,miss}_us) when a registry
    // is installed; the scope check keeps the stats-off warm path
    // free of clock reads.
    obs::StatsScope memo = obs::globalScope("memo");
    const auto t0 = memo.enabled()
                        ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
    auto record = [&memo, t0](const char *outcome) {
        if (memo.enabled()) {
            memo.sample(
                std::string(outcome) + "_us",
                static_cast<uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count()));
        }
    };

    DiskCache *disk;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = results_.find(key);
        if (it != results_.end()) {
            ++stats_.resultHits;
            out = it->second;
            out.model = model_name;
            record("hit");
            return true;
        }
        disk = disk_;
        if (!disk) {
            ++stats_.resultMisses;
            record("miss");
            return false;
        }
    }
    // Disk I/O happens outside the lock; concurrent misses on
    // different cells read in parallel, duplicate reads of the same
    // entry are harmless.
    ExperimentResult res;
    if (disk->load(key, res)) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.diskHits;
        results_.try_emplace(key, res);
        out = std::move(res);
        out.model = model_name;
        record("hit");
        return true;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.diskMisses;
    ++stats_.resultMisses;
    record("miss");
    return false;
}

void
ExperimentCache::storeResult(const std::string &key,
                             const ExperimentResult &res)
{
    DiskCache *disk = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (results_.try_emplace(key, res).second)
            disk = disk_;
    }
    // Only the first in-memory writer publishes to disk, and does so
    // outside the lock (the write is atomic-rename safe on its own).
    if (disk && disk->store(key, res)) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.diskStores;
    }
}

UnitProfileEntry
ExperimentCache::profileCached(
    const std::string &key,
    const std::function<UnitProfileEntry()> &interpret)
{
    return profiles_.get(key, interpret);
}

std::shared_ptr<const BytecodeProgram>
ExperimentCache::programCached(uint64_t fingerprint,
                               const Function &fn)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = programs_.find(fingerprint);
        if (it != programs_.end()) {
            ++stats_.programHits;
            return it->second;
        }
        ++stats_.programMisses;
    }
    // Compile outside the lock (same discipline as lowerCached):
    // duplicate misses compile twice, first insert wins and the
    // duplicate is dropped when its local shared_ptr dies.
    auto prog = std::make_shared<const BytecodeProgram>(fn);
    std::lock_guard<std::mutex> lock(mutex_);
    return programs_.try_emplace(fingerprint, std::move(prog))
        .first->second;
}

void
ExperimentCache::setDiskCache(DiskCache *disk)
{
    std::lock_guard<std::mutex> lock(mutex_);
    disk_ = disk;
}

ExperimentCacheStats
ExperimentCache::stats() const
{
    ExperimentCacheStats s;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        s = stats_;
    }
    s.profileHits = profiles_.hits();
    s.profileMisses = profiles_.misses();
    s.moduleHits = swpMemo_.hits();
    s.moduleMisses = swpMemo_.misses();
    return s;
}

void
ExperimentCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lowered_.clear();
    results_.clear();
    programs_.clear();
    stats_ = ExperimentCacheStats{};
    profiles_.clear();
    swpMemo_.clear();
}

ExperimentCache &
ExperimentCache::global()
{
    static ExperimentCache cache;
    return cache;
}

} // namespace vvsp
