#include "core/experiment.hh"

#include <map>

#include "arch/models.hh"
#include "core/experiment_cache.hh"
#include "ir/verifier.hh"
#include "obs/stats_registry.hh"
#include "sched/cluster_assign.hh"
#include "sim/bytecode.hh"
#include "support/logging.hh"
#include "xform/passes.hh"

namespace vvsp
{

namespace
{

uint64_t
countOps(Function &fn)
{
    uint64_t n = 0;
    passes::forEachBlock(fn,
                         [&n](BlockNode &b) { n += b.ops.size(); });
    return n;
}

/**
 * Run one lowering pass, recording wall time and IR op counts under
 * "xform/<name>" when the global stats registry is installed. The op
 * counts are deterministic; the "wall_us" samples are, of course,
 * not (stats consumers that assert determinism skip *_us paths).
 */
template <typename Body>
void
timedPass(const obs::StatsScope &xform, const char *name,
          Function &fn, Body &&body)
{
    if (!xform.enabled()) {
        body();
        return;
    }
    uint64_t before = countOps(fn);
    obs::OwnTimer timer;
    body();
    const uint64_t wall_us = timer.wallUs();
    obs::StatsScope p = xform.scope(name);
    p.bump("runs");
    p.sample("wall_us", wall_us);
    p.sample("ops_in", before);
    p.sample("ops_out", countOps(fn));
}

} // anonymous namespace

void
assignBanks(Function &fn, const MachineModel &machine)
{
    int banks = machine.memBanks();
    std::map<int, int> next_bank; // per cluster.
    for (auto &b : fn.buffers)
        b.bank = banks <= 1 ? 0 : next_bank[b.cluster]++ % banks;

    // Capacity: every (cluster, bank) working set must fit in one
    // bank (the paper additionally halves usable capacity for double
    // buffering; conclusions report the working set explicitly).
    for (const auto &b : fn.buffers) {
        int words = fn.bufferWords(b.cluster, b.bank);
        if (words > machine.memWordsPerBank()) {
            vvsp_fatal("%s: %d words in cluster %d bank %d exceed the "
                       "%d-word bank",
                       fn.name.c_str(), words, b.cluster, b.bank,
                       machine.memWordsPerBank());
        }
    }
}

Function
lowerMachineFree(const KernelSpec &kernel, const VariantSpec &variant)
{
    (void)kernel;
    Function fn = variant.build();
    verifyOrDie(fn);
    if (variant.transform) {
        variant.transform(fn);
        verifyOrDie(fn);
    }

    obs::StatsScope xform = obs::globalScope("xform");
    timedPass(xform, "cleanup", fn, [&] { passes::cleanup(fn); });
    timedPass(xform, "strength_reduce", fn,
              [&] { passes::strengthReduce(fn); });
    return fn;
}

void
lowerForMachine(Function &fn, const VariantSpec &variant,
                const MachineModel &machine)
{
    obs::StatsScope xform = obs::globalScope("xform");
    xform.bump("lowerings");
    timedPass(xform, "decompose_multiplies", fn,
              [&] { passes::decomposeMultiplies(fn, machine); });
    timedPass(xform, "lower_addressing", fn,
              [&] { passes::lowerAddressing(fn, machine); });
    timedPass(xform, "cleanup", fn, [&] { passes::cleanup(fn); });
    fn.renumberAll();
    verifyOrDie(fn);

    int gang = variant.gangAllClusters ? machine.clusters()
                                       : variant.gangClusters;
    if (gang > 1) {
        bool hand_assigned = false;
        passes::forEachBlock(fn, [&hand_assigned](BlockNode &block) {
            for (const auto &op : block.ops) {
                if (op.cluster != 0)
                    hand_assigned = true;
            }
        });
        if (!hand_assigned) {
            timedPass(xform, "auto_partition", fn, [&] {
                autoPartition(fn, machine,
                              std::min(gang, machine.clusters()));
            });
        }
        timedPass(xform, "replicate_buffers", fn,
                  [&] { replicateReadOnlyBuffers(fn); });
        timedPass(xform, "insert_transfers", fn,
                  [&] { insertTransfers(fn); });
        fn.renumberAll();
        verifyOrDie(fn);
    }
    validateClusterAssignment(fn, machine);
    assignBanks(fn, machine);
}

Function
lowerVariant(const KernelSpec &kernel, const VariantSpec &variant,
             const MachineModel &machine)
{
    Function fn = lowerMachineFree(kernel, variant);
    lowerForMachine(fn, variant, machine);
    return fn;
}

namespace
{

/**
 * runExperiment() and runOrPark(): with a `park` receiver the result
 * key is claimed (ExperimentCache::claimResult) and a parked cell
 * returns nullopt; with an empty one it is a plain lookup.
 */
std::optional<ExperimentResult>
runCell(const ExperimentRequest &req, ExperimentCache *cache,
        ExperimentCache::ParkedResult park)
{
    vvsp_assert(req.kernel && req.variant, "incomplete request");
    const KernelSpec &kernel = *req.kernel;
    const VariantSpec &variant = *req.variant;

    DatapathConfig cfg = req.model;
    if (variant.needsAbsDiff && !cfg.cluster.hasAbsDiff) {
        cfg.cluster.hasAbsDiff = true; // "> cycle & area" rows.
    }
    MachineModel machine(cfg);

    ExperimentResult res;
    std::string result_key;
    if (cache) {
        result_key = ExperimentCache::resultKey(req, cfg);
        switch (cache->claimResult(result_key, req.model.name, res,
                                   std::move(park))) {
        case ExperimentCache::Claim::Hit:
            return res;
        case ExperimentCache::Claim::Parked:
            return std::nullopt;
        case ExperimentCache::Claim::Owner:
            break;
        }
    }
    res.kernel = kernel.name;
    res.variant = variant.name;
    res.model = req.model.name;

    obs::StatsScope phase = obs::globalScope("phase");
    Function fn = obs::timedPhase(phase, "lowering", [&] {
        return cache ? cache->lowerCached(kernel, variant, machine)
                     : lowerVariant(kernel, variant, machine);
    });

    AvgProfile avg;
    obs::timedPhase(phase, "interp_sim", [&] {
        // The hot functional simulation runs on the bytecode engine
        // (sim/bytecode.hh); the tree-walking Interpreter remains as
        // the differential oracle (tests/test_bytecode.cc). With a
        // cache, the whole phase is memoized by content: the
        // machine-free profile key collapses repeat lowerings across
        // models to one interpreted cell.
        obs::StatsScope interp_stats = obs::globalScope("interp");
        const uint64_t fingerprint =
            cache ? functionFingerprint(fn) : 0;
        bool interpreted = false;
        auto interpret = [&] {
            interpreted = true;
            UnitProfileEntry out;
            out.avg = AvgProfile(fn.numNodeIds());
            const bool timed = interp_stats.enabled();
            obs::OwnTimer compile_timer;
            std::shared_ptr<const BytecodeProgram> prog =
                cache ? cache->programCached(fingerprint, fn)
                      : std::make_shared<const BytecodeProgram>(fn);
            BytecodeEngine engine(std::move(prog));
            if (timed)
                interp_stats.sample("compile_us", compile_timer.wallUs());
            obs::OwnTimer exec_timer;

            if (req.check) {
                const GoldenFn &golden = variant.goldenOverride
                                             ? variant.goldenOverride
                                             : kernel.golden;
                out.checked = true;
                out.passed = true;
                for (int u = 0; u < req.profileUnits; ++u) {
                    MemoryImage mem(fn);
                    kernel.prepare(fn, mem, req.geometry, u);
                    MemoryImage expected(fn);
                    kernel.prepare(fn, expected, req.geometry, u);

                    out.avg.accumulate(engine.run(mem));

                    golden(fn, expected);
                    for (const auto &bname : kernel.outputBuffers) {
                        int id = bufferIdByName(fn, bname);
                        if (mem.bufferWords(id) !=
                            expected.bufferWords(id)) {
                            out.passed = false;
                            out.note = "output buffer '" + bname +
                                       "' mismatches golden on unit " +
                                       std::to_string(u);
                        }
                    }
                }
            } else {
                // Still need a profile: interpret without checking.
                for (int u = 0; u < req.profileUnits; ++u) {
                    MemoryImage mem(fn);
                    kernel.prepare(fn, mem, req.geometry, u);
                    out.avg.accumulate(engine.run(mem));
                }
            }
            out.avg.scale(1.0 / req.profileUnits);
            if (timed)
                interp_stats.sample("exec_us", exec_timer.wallUs());
            return out;
        };
        UnitProfileEntry entry =
            cache ? cache->profileCached(
                        ExperimentCache::profileKey(req, fingerprint),
                        interpret)
                  : interpret();
        if (!interpreted)
            interp_stats.bump("profile_memo_hits");
        avg = std::move(entry.avg);
        res.checked = entry.checked;
        res.passed = entry.passed;
        res.note = std::move(entry.note);
        return true;
    });

    Composer composer(machine, variant.mode);
    res.comp = obs::timedPhase(phase, "compose", [&] {
        return composer.compose(fn, avg, nullptr,
                                cache ? &cache->swpMemo() : nullptr);
    });
    res.cyclesPerUnit = res.comp.cyclesPerUnit;

    int gang = variant.gangAllClusters ? machine.clusters()
                                       : variant.gangClusters;
    res.replication =
        variant.replicate
            ? static_cast<double>(machine.clusters()) / gang
            : 1.0;
    res.unitsPerFrame = kernel.unitsPerFrame(req.geometry);
    res.cyclesPerFrame =
        res.cyclesPerUnit * res.unitsPerFrame / res.replication;

    if (!res.comp.icacheOk)
        res.note += (res.note.empty() ? "" : "; ") +
                    std::string("hot loop exceeds icache");
    if (!res.comp.registersOk)
        res.note += (res.note.empty() ? "" : "; ") +
                    std::string("register pressure exceeds file");
    if (res.comp.degradedRegions > 0) {
        res.note += (res.note.empty() ? "" : "; ") +
                    std::string("degraded: scheduling budget "
                                "exhausted in ") +
                    std::to_string(res.comp.degradedRegions) +
                    " region(s)";
        obs::globalScope("sched").bump("degraded_cells");
    }
    // Also hands the result to cells parked on the key; degraded
    // results (budget-dependent, and the key holds no budget) are
    // handed on but not stored.
    if (cache)
        cache->storeResult(result_key, res);
    return res;
}

} // anonymous namespace

ExperimentResult
runExperiment(const ExperimentRequest &req, ExperimentCache *cache)
{
    return *runCell(req, cache, nullptr);
}

std::optional<ExperimentResult>
runOrPark(const ExperimentRequest &req, ExperimentCache &cache,
          ExperimentCache::ParkedResult park)
{
    return runCell(req, &cache, std::move(park));
}

} // namespace vvsp
