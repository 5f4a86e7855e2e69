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
ExperimentCache::lowerCached(const KernelSpec &kernel,
                             const VariantSpec &variant,
                             const MachineModel &machine)
{
    std::shared_ptr<const Function> prefix =
        lowered_.get(kernel.name + '|' + variant.name, [&] {
            return std::make_shared<const Function>(
                lowerMachineFree(kernel, variant));
        });
    Function fn = prefix->clone();
    lowerForMachine(fn, variant, machine);
    return fn;
}

bool
ExperimentCache::findResult(const std::string &key,
                            const std::string &model_name,
                            ExperimentResult &out)
{
    return claimResult(key, model_name, out, nullptr) == Claim::Hit;
}

ExperimentCache::Claim
ExperimentCache::claimResult(const std::string &key,
                             const std::string &model_name,
                             ExperimentResult &out, ParkedResult park)
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

    // Under mutex_: answer from memory, else park on the key's owner,
    // else - on a final miss - claim the key for a receiving caller.
    // Claims are taken only after the disk misses, so a warm pass
    // (every lookup a disk hit) never touches claims_.
    auto fromMemory = [&](Claim *claim) {
        auto it = results_.find(key);
        if (it != results_.end()) {
            ++stats_.resultHits;
            out = it->second;
            out.model = model_name;
            *claim = Claim::Hit;
        } else if (auto owner = park ? claims_.find(key) : claims_.end();
                   owner != claims_.end()) {
            ++stats_.resultHits;
            owner->second.push_back({model_name, std::move(park)});
            *claim = Claim::Parked;
        } else {
            return false;
        }
        record("hit");
        return true;
    };
    auto miss = [&] {
        if (park)
            claims_.try_emplace(key);
        ++stats_.resultMisses;
        record("miss");
        return Claim::Owner;
    };

    Claim claim;
    DiskCache *disk;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (fromMemory(&claim))
            return claim;
        disk = disk_;
        if (!disk)
            return miss();
    }
    // Disk I/O happens outside the lock; concurrent misses on
    // different cells read in parallel, duplicate reads of the same
    // entry are harmless.
    ExperimentResult res;
    if (disk->load(key, res)) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.diskHits;
            results_.try_emplace(key, res);
        }
        out = std::move(res);
        out.model = model_name;
        record("hit");
        return Claim::Hit;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.diskMisses;
    // The key's owner may have stored or claimed it during the read.
    if (fromMemory(&claim))
        return claim;
    return miss();
}

std::vector<ExperimentCache::Parked>
ExperimentCache::endClaim(const std::string &key)
{
    std::vector<Parked> parked;
    auto claim = claims_.find(key);
    if (claim != claims_.end()) {
        parked = std::move(claim->second);
        claims_.erase(claim);
    }
    return parked;
}

void
ExperimentCache::deliver(std::vector<Parked> &parked,
                         const ExperimentResult &res)
{
    for (Parked &p : parked) {
        ExperimentResult copy = res;
        copy.model = std::move(p.model);
        p.deliver(std::move(copy));
    }
}

void
ExperimentCache::storeResult(const std::string &key,
                             const ExperimentResult &res)
{
    DiskCache *disk = nullptr;
    std::vector<Parked> parked;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (res.comp.degradedRegions == 0 &&
            results_.try_emplace(key, res).second)
            disk = disk_;
        parked = endClaim(key);
    }
    deliver(parked, res);
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
    s.loweredHits = lowered_.hits();
    s.loweredMisses = lowered_.misses();
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
    results_.clear();
    claims_.clear();
    programs_.clear();
    stats_ = ExperimentCacheStats{};
    lowered_.clear();
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
