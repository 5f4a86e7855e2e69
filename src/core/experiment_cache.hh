/**
 * @file
 * Content-keyed memoization for the experiment pipeline.
 *
 * Many cells of the 180-cell sweep repeat work: Table 2 re-runs
 * Table 1 variants on shared models, the conclusions bench revisits
 * the best schedules, and the design explorer scores hundreds of
 * configs with one kernel. The cache keys on *content* - kernel,
 * variant, every model-relevant architectural parameter (the model's
 * display name is deliberately excluded), frame geometry, profiled
 * units, seed, and the check flag - so identical work is recognized
 * no matter which named model or harness asked for it.
 *
 * Five levels:
 *  1. lowered-function cache: the machine-dependent lowering of a
 *     (kernel, variant, machine) triple, reused across geometries
 *     and profile depths; hits hand out a deep clone because the
 *     composer appends materialized loop control to the function;
 *  2. bytecode-program cache: the flattened replay program of a
 *     lowered function, keyed by content fingerprint and shared (by
 *     shared_ptr) across cells and threads like DecodedTrace;
 *  3. unit-profile memo: the averaged interpreter profile plus
 *     golden-check verdict of a cell, keyed by function fingerprint
 *     and run parameters but NOT by machine - different machines
 *     whose lowerings coincide replay the stored profile instead of
 *     re-interpreting;
 *  4. result cache: the complete ExperimentResult of a cell
 *     (interpreter profile folded into the composed schedule), with
 *     only the display model name patched per request;
 *  5. optional persistent layer (see disk_cache.hh): result-cache
 *     misses consult the disk before recomputing, and first writers
 *     publish their result for future processes.
 *
 * All methods are thread-safe; the sweep runner's workers share one
 * instance.
 */

#ifndef VVSP_CORE_EXPERIMENT_CACHE_HH
#define VVSP_CORE_EXPERIMENT_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/experiment.hh"

namespace vvsp
{

class BytecodeProgram;
class DiskCache;

/** Hit/miss counters (one snapshot; totals since construction). */
struct ExperimentCacheStats
{
    uint64_t loweredHits = 0;
    uint64_t loweredMisses = 0;
    /** In-memory result hits (disk hits counted separately). */
    uint64_t resultHits = 0;
    /** Misses of both layers (recomputation happened). */
    uint64_t resultMisses = 0;
    uint64_t diskHits = 0;
    /** Disk lookups that found no usable entry. */
    uint64_t diskMisses = 0;
    uint64_t diskStores = 0;
    /** Unit-profile memo (machine-independent interp results). */
    uint64_t profileHits = 0;
    uint64_t profileMisses = 0;
    /** Compiled bytecode-program cache. */
    uint64_t programHits = 0;
    uint64_t programMisses = 0;
    /**
     * Always 0: there is no schedule-module level any more. Kept
     * only because the repository benchmark (perfbench/) still
     * reports them as cache.module_{hits,misses}.
     */
    uint64_t moduleHits = 0;
    uint64_t moduleMisses = 0;
};

/**
 * Memoized outcome of a cell's interp_sim phase: the averaged
 * profile (post profileUnits scaling) and the golden-check verdict.
 */
struct UnitProfileEntry
{
    AvgProfile avg;
    bool checked = false;
    bool passed = false;
    std::string note;
};

/** Thread-safe memo cache for lowered functions and cell results. */
class ExperimentCache
{
  public:
    ExperimentCache() = default;

    ExperimentCache(const ExperimentCache &) = delete;
    ExperimentCache &operator=(const ExperimentCache &) = delete;

    /**
     * Content key of the machine-dependent lowering of a request
     * (kernel, variant, architectural parameters - not the model
     * name). `cfg` must be the effective config the cell runs on
     * (i.e. after any variant-forced upgrades).
     */
    static std::string loweringKey(const ExperimentRequest &req,
                                   const DatapathConfig &cfg);

    /** Content key of a whole cell (lowering key + run parameters). */
    static std::string resultKey(const ExperimentRequest &req,
                                 const DatapathConfig &cfg);

    /**
     * Content key of a cell's interp_sim outcome: the lowered
     * function's fingerprint (sim/bytecode.hh) plus every input the
     * interpreter sees (kernel/variant for prepare+golden hooks,
     * geometry, profiled units, seed, check flag). Deliberately
     * machine-free: models whose lowerings coincide share one entry.
     */
    static std::string profileKey(const ExperimentRequest &req,
                                  uint64_t fn_fingerprint);

    /**
     * Return a deep clone of the cached lowered function, or lower
     * now (via lowerVariant) and cache the prototype.
     */
    Function lowerCached(const std::string &key,
                         const KernelSpec &kernel,
                         const VariantSpec &variant,
                         const MachineModel &machine);

    /**
     * Look up a finished cell; patches res.model to `model_name`.
     * Memory misses consult the disk layer (when attached) and
     * promote disk hits into the memory map.
     */
    bool findResult(const std::string &key,
                    const std::string &model_name,
                    ExperimentResult &out);

    /**
     * Record a finished cell (first writer wins). The first writer
     * also publishes the entry to the disk layer when attached.
     */
    void storeResult(const std::string &key,
                     const ExperimentResult &res);

    /** Look up a memoized interp_sim outcome (in-memory only). */
    bool findProfile(const std::string &key, UnitProfileEntry &out);

    /** Record an interp_sim outcome (first writer wins). */
    void storeProfile(const std::string &key,
                      const UnitProfileEntry &entry);

    /**
     * Compiled bytecode program for `fn`, compiling and caching on
     * first sight of the fingerprint. The returned program is
     * immutable and shareable across threads.
     */
    std::shared_ptr<const BytecodeProgram>
    programCached(uint64_t fingerprint, const Function &fn);

    /**
     * Attach (or, with nullptr, detach) the persistent layer. The
     * caller keeps ownership and must outlive the attachment. Not
     * meant to be raced against lookups: attach before submitting
     * work.
     */
    void setDiskCache(DiskCache *disk);

    ExperimentCacheStats stats() const;

    /** Drop all in-memory entries and zero the counters. */
    void clear();

    /** Process-wide shared instance. */
    static ExperimentCache &global();

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, Function> lowered_;
    std::unordered_map<std::string, ExperimentResult> results_;
    std::unordered_map<std::string, UnitProfileEntry> profiles_;
    std::unordered_map<uint64_t,
                       std::shared_ptr<const BytecodeProgram>>
        programs_;
    ExperimentCacheStats stats_;
    DiskCache *disk_ = nullptr;
};

} // namespace vvsp

#endif // VVSP_CORE_EXPERIMENT_CACHE_HH
