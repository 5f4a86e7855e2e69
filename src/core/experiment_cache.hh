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
 * Six levels:
 *  1. lowered-function cache: the machine-free prefix of the lowering
 *     (lowerMachineFree: build, transform recipe, cleanup, strength
 *     reduction) of a (kernel, variant) pair, shared by every model,
 *     geometry and profile depth; each use gets a deep clone and
 *     finishes the machine part (lowerForMachine) on it;
 *  2. bytecode-program cache: the flattened replay program of a
 *     lowered function, keyed by content fingerprint and shared (by
 *     shared_ptr) across cells and threads like DecodedTrace;
 *  3. unit-profile memo: the averaged interpreter profile plus
 *     golden-check verdict of a cell, keyed by function fingerprint
 *     and run parameters but NOT by machine - different machines
 *     whose lowerings coincide replay the stored profile instead of
 *     re-interpreting;
 *  4. loop-schedule memo (sched/schedule_memo.hh): the modulo
 *     schedule of a software-pipelined loop body, keyed by machine
 *     and body content, so cells that differ elsewhere still share
 *     the II search of an identical loop;
 *  5. result cache: the complete ExperimentResult of a cell
 *     (interpreter profile folded into the composed schedule), with
 *     only the display model name patched per request. A sweep cell
 *     whose result key another cell is computing parks on it
 *     (claimResult) instead of computing it again or waiting;
 *  6. optional persistent layer (see disk_cache.hh): result-cache
 *     misses consult the disk before recomputing, and first writers
 *     publish their result for future processes.
 *
 * Levels 1, 3 and 4 are single-flight: a cell that needs an entry
 * another cell is computing waits for it - running queued cells
 * meanwhile - rather than computing it twice. With result parking
 * that makes the hit and miss counts of levels 1 and 3-5 the same at
 * every thread count.
 *
 * All methods are thread-safe; the sweep runner's workers share one
 * instance.
 */

#ifndef VVSP_CORE_EXPERIMENT_CACHE_HH
#define VVSP_CORE_EXPERIMENT_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/experiment.hh"
#include "sched/schedule_memo.hh"
#include "support/single_flight.hh"

namespace vvsp
{

class BytecodeProgram;
class DiskCache;

/** Hit/miss counters (one snapshot; totals since construction). */
struct ExperimentCacheStats
{
    /** Lowered level: a miss is one machine-free prefix lowering. */
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
    /**
     * Unit-profile memo (machine-independent interp results). A miss
     * is one interpretation.
     */
    uint64_t profileHits = 0;
    uint64_t profileMisses = 0;
    /** Compiled bytecode-program cache. */
    uint64_t programHits = 0;
    uint64_t programMisses = 0;
    /**
     * Loop-schedule memo (swpMemo()): a hit is a software-pipelined
     * loop body whose schedule came back without scheduling, a miss
     * one run of the modulo scheduler. (The names are those the
     * repository benchmark reports, cache.module_{hits,misses}.)
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
     * lowerVariant(kernel, variant, machine), with its machine-free
     * prefix taken from the lowered level (keyed by kernel|variant;
     * single-flight) as a deep clone.
     */
    Function lowerCached(const KernelSpec &kernel,
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

    /** Receives a parked cell's result (see claimResult). */
    using ParkedResult = std::function<void(ExperimentResult)>;

    /** How claimResult() ended. */
    enum class Claim : uint8_t
    {
        Hit,    ///< `out` holds the result.
        Owner,  ///< miss: the caller computes it and calls storeResult.
        Parked, ///< another owner computes it and will call `park`.
    };

    /**
     * findResult() that never computes a key twice at once: on a miss
     * (memory and disk) the caller becomes the key's owner, and while
     * it owns the key, later callers park - `park` is kept, the call
     * returns Parked at once, and the owner's storeResult() calls
     * `park` with its result (model patched to that caller's
     * `model_name`). Nobody waits, so an owner can never block on its
     * own duplicate.
     * Parked lookups count as result hits, which keeps the counts
     * equal to a serial run's. An empty `park` makes it a plain
     * findResult() that claims nothing (a miss returns Owner).
     */
    Claim claimResult(const std::string &key,
                      const std::string &model_name,
                      ExperimentResult &out, ParkedResult park);

    /**
     * Record a finished cell (first writer wins) and hand it to the
     * cells parked on `key`. The first writer also publishes the
     * entry to the disk layer when attached. Degraded results depend
     * on the scheduling budget, which the key does not hold: they go
     * to parked cells (computed under the same budget) but are never
     * stored.
     */
    void storeResult(const std::string &key,
                     const ExperimentResult &res);

    /**
     * The memoized interp_sim outcome under `key`, or the one
     * `interpret()` produces on a miss (single-flight; in-memory
     * only).
     */
    UnitProfileEntry
    profileCached(const std::string &key,
                  const std::function<UnitProfileEntry()> &interpret);

    /** The loop-schedule memo, for Composer::compose. */
    ScheduleMemo &swpMemo() { return swpMemo_; }

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
    /** A parked cell: its display model name and its receiver. */
    struct Parked
    {
        std::string model;
        ParkedResult deliver;
    };

    /** End the claim on `key` (mutex_ held); returns its parked
     *  cells. */
    std::vector<Parked> endClaim(const std::string &key);

    /** Hand `res` to parked cells (outside mutex_). */
    static void deliver(std::vector<Parked> &parked,
                        const ExperimentResult &res);

    mutable std::mutex mutex_;
    std::unordered_map<std::string, ExperimentResult> results_;
    /** Result keys owned by a claimResult() caller, and who parked. */
    std::unordered_map<std::string, std::vector<Parked>> claims_;
    std::unordered_map<uint64_t,
                       std::shared_ptr<const BytecodeProgram>>
        programs_;
    ExperimentCacheStats stats_;
    DiskCache *disk_ = nullptr;
    /** The single-flight levels take their own locks, never mutex_. */
    SingleFlight<std::shared_ptr<const Function>> lowered_;
    SingleFlight<UnitProfileEntry> profiles_;
    ScheduleMemo swpMemo_;
};

} // namespace vvsp

#endif // VVSP_CORE_EXPERIMENT_CACHE_HH
