/**
 * @file
 * The single-flight memos of ExperimentCache: the loop-schedule memo
 * (sched/schedule_memo.hh) and the unit-profile memo.
 *
 * Unit tests pin the memo's contract - one computation per key at
 * any thread count, a key made of scheduling content only, degraded
 * schedules never stored, bypass while a failpoint is armed - and an
 * oracle checks that the memo changes no output: every cell of the
 * repository's reproduction specs (table1, table2, ablation,
 * conclusions) gives a byte-equal ExperimentResult and encoded
 * IsaModule with and without it, at 1 and 4 threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <vector>

#include "arch/models.hh"
#include "core/disk_cache.hh"
#include "core/experiment.hh"
#include "core/experiment_cache.hh"
#include "core/experiment_spec.hh"
#include "core/sweep.hh"
#include "obs/stats_registry.hh"
#include "sched/schedule_memo.hh"
#include "sim/bytecode.hh"
#include "support/failpoint.hh"
#include "support/single_flight.hh"
#include "support/thread_pool.hh"

namespace vvsp
{
namespace
{

Operand
R(Vreg v)
{
    return Operand::ofReg(v);
}

Operand
K(int32_t v)
{
    return Operand::ofImm(v);
}

Operation
mk(Opcode op, Vreg dst, Operand a = Operand::none(),
   Operand b = Operand::none())
{
    Operation o;
    o.op = op;
    o.dst = dst;
    o.src = {a, b, Operand::none()};
    return o;
}

/** Three-op carried cycle: II >= 3 despite ample resources. */
std::vector<Operation>
carriedCycle()
{
    return {mk(Opcode::Add, 1, R(3), K(1)), mk(Opcode::Add, 2, R(1), K(1)),
            mk(Opcode::Add, 3, R(2), K(1))};
}

/** A load, an add and a store over buffer 0. */
std::vector<Operation>
memoryBody()
{
    Operation ld = mk(Opcode::Load, 1, K(0), K(0));
    ld.buffer = 0;
    Operation st;
    st.op = Opcode::Store;
    st.src = {R(2), K(1), Operand::none()};
    st.buffer = 0;
    return {ld, mk(Opcode::Add, 2, R(1), K(5)), st};
}

void
expectSameSchedule(const BlockSchedule &a, const BlockSchedule &b)
{
    EXPECT_EQ(a.ii, b.ii);
    EXPECT_EQ(a.length, b.length);
    EXPECT_EQ(a.stages, b.stages);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.maxLive, b.maxLive);
    EXPECT_EQ(a.degraded, b.degraded);
    ASSERT_EQ(a.placed.size(), b.placed.size());
    for (size_t i = 0; i < a.placed.size(); ++i) {
        EXPECT_EQ(a.placed[i].cycle, b.placed[i].cycle) << i;
        EXPECT_EQ(a.placed[i].cluster, b.placed[i].cluster) << i;
        EXPECT_EQ(a.placed[i].slot, b.placed[i].slot) << i;
    }
}

/** Every test starts and ends with an empty failpoint registry. */
class ScheduleMemoTest : public ::testing::Test
{
  protected:
    void SetUp() override { failpoint::clearAll(); }
    void TearDown() override { failpoint::clearAll(); }
};

TEST_F(ScheduleMemoTest, SingleFlightComputesOnceForConcurrentCallers)
{
    SingleFlight<int> memo;
    std::atomic<int> computed{0};
    std::atomic<int> arrived{0};
    std::vector<std::thread> threads;
    std::vector<int> got(8, 0);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            arrived.fetch_add(1);
            got[static_cast<size_t>(t)] = memo.get("k", [&] {
                // Hold the flight until every caller has arrived, so
                // the others really wait on it.
                while (arrived.load() < 8)
                    std::this_thread::yield();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                computed.fetch_add(1);
                return 42;
            });
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(computed.load(), 1);
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.hits(), 7u);
    for (int v : got)
        EXPECT_EQ(v, 42);
}

TEST_F(ScheduleMemoTest, SingleFlightRecomputesRejectedResults)
{
    SingleFlight<int> memo;
    int computed = 0;
    auto keep_even = [](int v) { return v % 2 == 0; };
    EXPECT_EQ(memo.get("k", [&] { return ++computed; }, keep_even), 1);
    EXPECT_EQ(memo.get("k", [&] { return ++computed; }, keep_even), 2);
    EXPECT_EQ(memo.get("k", [&] { return ++computed; }, keep_even), 2);
    EXPECT_EQ(computed, 2);
    EXPECT_EQ(memo.misses(), 2u);
    EXPECT_EQ(memo.hits(), 1u);
}

TEST_F(ScheduleMemoTest, EightThreadsScheduleOneBodyOnce)
{
    MachineModel machine(models::i4c8s4());
    std::vector<Operation> ops = carriedCycle();
    BlockSchedule direct =
        ModuloScheduler(machine, nullptr).schedule(ops);

    // Schedulers bind the registry when constructed.
    obs::StatsRegistry reg;
    obs::setGlobalStats(&reg);
    ScheduleMemo memo;
    std::vector<std::optional<BlockSchedule>> got(8);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < got.size(); ++t) {
        threads.emplace_back([&, t] {
            ModuloScheduler msched(machine, nullptr);
            got[t] = memo.schedule(msched, ops, 0, -1);
        });
    }
    for (std::thread &th : threads)
        th.join();
    obs::setGlobalStats(nullptr);

    EXPECT_EQ(reg.counterValue("sched/modulo_runs"), 1u);
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.hits(), 7u);
    for (const auto &s : got) {
        ASSERT_TRUE(s.has_value());
        expectSameSchedule(*s, direct);
    }
}

TEST_F(ScheduleMemoTest, KeyIsSchedulingContentOnly)
{
    MachineModel machine(models::i4c8s4());
    ModuloScheduler bank0(machine, [](int) { return 0; });
    ModuloScheduler bank1(machine, [](int) { return 1; });
    std::vector<Operation> ops = memoryBody();
    const std::string key = ScheduleMemo::key(bank0, ops, 0, -1);

    // Op ids are not read by any scheduler.
    std::vector<Operation> renumbered = ops;
    for (size_t i = 0; i < renumbered.size(); ++i)
        renumbered[i].id = static_cast<int>(100 + i);
    EXPECT_EQ(ScheduleMemo::key(bank0, renumbered, 0, -1), key);

    // Everything the scheduler reads is.
    EXPECT_NE(ScheduleMemo::key(bank1, ops, 0, -1), key);
    EXPECT_NE(ScheduleMemo::key(bank0, ops, 8, -1), key);
    EXPECT_NE(ScheduleMemo::key(bank0, ops, 0, 5), key);
    MachineModel wide(models::byName("I2C16S4"));
    ModuloScheduler other(wide, [](int) { return 0; });
    EXPECT_NE(ScheduleMemo::key(other, ops, 0, -1), key);
    auto changed = [&](auto &&edit) {
        std::vector<Operation> v = ops;
        edit(v);
        return ScheduleMemo::key(bank0, v, 0, -1) != key;
    };
    EXPECT_TRUE(changed([](auto &v) { v[1].op = Opcode::Sub; }));
    EXPECT_TRUE(changed([](auto &v) { v[1].dst = 9; }));
    EXPECT_TRUE(changed([](auto &v) { v[1].src[1] = K(6); }));
    EXPECT_TRUE(changed([](auto &v) { v[1].pred = R(1); }));
    EXPECT_TRUE(changed([](auto &v) { v[1].predSense = false; }));
    EXPECT_TRUE(changed([](auto &v) { v[0].buffer = 1; }));
    EXPECT_TRUE(changed([](auto &v) { v[0].aliasToken = 2; }));
    EXPECT_TRUE(changed([](auto &v) { v[2].noCarriedAlias = true; }));
    EXPECT_TRUE(changed([](auto &v) { v[1].cluster = 1; }));
    EXPECT_TRUE(changed([](auto &v) { v[1].dstCluster = 1; }));
    EXPECT_TRUE(changed([](auto &v) { v.pop_back(); }));
}

TEST_F(ScheduleMemoTest, DegradedSchedulesAreNeverStored)
{
    MachineModel machine(models::i4c8s4());
    ModuloScheduler msched(machine, nullptr);
    ScheduleMemo memo;
    std::vector<Operation> ops = carriedCycle();

    // An impossible register target keeps the II growing; a
    // 2-candidate budget cuts the search: degraded, twice computed.
    for (int i = 0; i < 2; ++i) {
        auto s = memo.schedule(msched, ops, 1, 2);
        ASSERT_TRUE(s.has_value());
        EXPECT_TRUE(s->degraded);
    }
    EXPECT_EQ(memo.misses(), 2u);
    EXPECT_EQ(memo.hits(), 0u);

    // No feasible II within budget: nothing to store either.
    for (int i = 0; i < 2; ++i)
        EXPECT_FALSE(memo.schedule(msched, ops, 0, 0).has_value());
    EXPECT_EQ(memo.misses(), 4u);

    // A normal answer is stored and handed back.
    auto first = memo.schedule(msched, ops, 1, -1);
    auto second = memo.schedule(msched, ops, 1, -1);
    ASSERT_TRUE(first && second);
    EXPECT_FALSE(first->degraded);
    expectSameSchedule(*first, *second);
    EXPECT_EQ(memo.misses(), 5u);
    EXPECT_EQ(memo.hits(), 1u);
}

TEST_F(ScheduleMemoTest, BypassedWhileAFailpointIsArmed)
{
    MachineModel machine(models::i4c8s4());
    ModuloScheduler msched(machine, nullptr);
    ScheduleMemo memo;
    std::vector<Operation> ops{mk(Opcode::Add, 1, K(1), K(2)),
                               mk(Opcode::Add, 2, R(1), K(3))};

    // The forced-infeasible first II raises the answer to II 2; the
    // memo must neither store nor serve it.
    failpoint::Spec spec;
    std::string error;
    ASSERT_TRUE(failpoint::parseSpec("once", spec, &error));
    failpoint::configure("sched/ii_attempt", spec);
    auto skewed = memo.schedule(msched, ops, 0, -1);
    ASSERT_TRUE(skewed.has_value());
    EXPECT_EQ(skewed->ii, 2);
    EXPECT_EQ(memo.misses(), 0u);
    EXPECT_EQ(memo.hits(), 0u);

    failpoint::clearAll();
    auto normal = memo.schedule(msched, ops, 0, -1);
    ASSERT_TRUE(normal.has_value());
    EXPECT_EQ(normal->ii, 1);
    EXPECT_EQ(memo.misses(), 1u);
}

TEST_F(ScheduleMemoTest, ProfileMemoInterpretsOnceForConcurrentCells)
{
    const KernelSpec &k = kernelByName("RGB:YCrCb converter/subsampler");
    ExperimentRequest req;
    req.kernel = &k;
    req.variant = &k.variant("Sequential");
    req.geometry = FrameGeometry{48, 32};
    req.profileUnits = 1;
    // Eight cells on machines that lower identically share one
    // profile-memo key; each runs on its own thread.
    ExperimentCache cache;
    std::vector<std::thread> threads;
    std::vector<ExperimentResult> got(8);
    for (size_t t = 0; t < got.size(); ++t) {
        threads.emplace_back([&, t] {
            ExperimentRequest r = req;
            r.model = models::byName("I4C8S4");
            r.model.cluster.issueSlots += static_cast<int>(t % 2);
            r.model.cluster.regFilePorts += 3 * static_cast<int>(t % 2);
            r.model.cluster.registers += static_cast<int>(t / 2);
            got[t] = runExperiment(r, &cache);
        });
    }
    for (std::thread &th : threads)
        th.join();
    ExperimentCacheStats s = cache.stats();
    EXPECT_EQ(s.profileMisses, 1u);
    EXPECT_EQ(s.profileHits, 7u);
    for (const ExperimentResult &r : got) {
        EXPECT_TRUE(r.checked);
        EXPECT_TRUE(r.passed) << r.note;
    }
}

// ---- oracle: the memo changes no output ------------------------------

/** Every cell of the reproduction specs, at a small geometry. */
std::vector<ExperimentRequest>
reproCells()
{
    std::vector<ExperimentRequest> cells;
    for (const char *name :
         {"table1", "table2", "ablation", "conclusions"}) {
        const ExperimentSpec *spec = findExperimentSpec(name);
        EXPECT_NE(spec, nullptr) << name;
        if (!spec)
            continue;
        for (const SpecSection &section : spec->sections) {
            SectionGrid grid = lowerSection(*spec, section);
            for (ExperimentRequest req : grid.requests) {
                req.geometry = FrameGeometry{48, 32};
                req.profileUnits = 1;
                cells.push_back(std::move(req));
            }
        }
    }
    return cells;
}

/** Scratch directory, removed on destruction. */
struct ScratchDir
{
    std::filesystem::path path;

    ScratchDir()
        : path(std::filesystem::temp_directory_path() /
               ("vvsp-memo-oracle-" + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
};

/**
 * The disk cache's serialized form of each result: every field, with
 * doubles as their bit patterns, so equal strings mean equal results.
 */
std::vector<std::string>
serialized(const std::vector<ExperimentResult> &results)
{
    ScratchDir dir;
    DiskCache disk(dir.path.string());
    std::vector<std::string> out;
    for (size_t i = 0; i < results.size(); ++i) {
        const std::string key = "cell " + std::to_string(i);
        EXPECT_TRUE(disk.store(key, results[i]));
        std::ifstream is(disk.entryPath(key), std::ios::binary);
        std::stringstream ss;
        ss << is.rdbuf();
        out.push_back(ss.str());
    }
    return out;
}

std::vector<ExperimentResult>
sweep(const std::vector<ExperimentRequest> &cells, int threads,
      ExperimentCache *cache)
{
    SweepOptions opts;
    opts.threads = threads;
    opts.useCache = cache != nullptr;
    opts.cache = cache;
    return SweepRunner(opts).run(cells);
}

/**
 * Encoded modules of every cell, composed through `memo` (or none)
 * on `threads` workers. The profile is irrelevant to the modulo
 * schedules and all-zero here.
 */
std::vector<std::vector<uint8_t>>
modules(const std::vector<ExperimentRequest> &cells, int threads,
        ScheduleMemo *memo)
{
    std::vector<std::vector<uint8_t>> out(cells.size());
    ThreadPool pool(threads);
    for (size_t i = 0; i < cells.size(); ++i) {
        pool.submit([&, i] {
            const ExperimentRequest &req = cells[i];
            DatapathConfig cfg = req.model;
            if (req.variant->needsAbsDiff && !cfg.cluster.hasAbsDiff)
                cfg = models::withAbsDiff(std::move(cfg));
            MachineModel machine(cfg);
            Function fn = lowerVariant(*req.kernel, *req.variant, machine);
            AvgProfile avg(fn.numNodeIds());
            IsaModule module;
            Composer(machine, req.variant->mode)
                .compose(fn, avg, &module, memo);
            out[i] = encodeModule(module);
        });
    }
    pool.wait();
    return out;
}

TEST(ScheduleMemoOracle, ReproCellsMatchWithoutTheMemo)
{
    const std::vector<ExperimentRequest> cells = reproCells();
    ASSERT_GT(cells.size(), 200u);

    // Without a cache there is no memo at all.
    const std::vector<std::string> reference =
        serialized(sweep(cells, 4, nullptr));
    const std::vector<std::vector<uint8_t>> reference_modules =
        modules(cells, 4, nullptr);
    for (int threads : {1, 4}) {
        ExperimentCache cache;
        std::vector<std::string> got =
            serialized(sweep(cells, threads, &cache));
        EXPECT_GT(cache.stats().moduleHits, 0u);
        ASSERT_EQ(got.size(), reference.size());
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i], reference[i])
                << "cell " << i << " at " << threads << " threads";
        }

        ScheduleMemo memo;
        std::vector<std::vector<uint8_t>> mods =
            modules(cells, threads, &memo);
        EXPECT_GT(memo.hits(), 0u);
        for (size_t i = 0; i < mods.size(); ++i) {
            EXPECT_TRUE(mods[i] == reference_modules[i])
                << "module of cell " << i << " at " << threads
                << " threads";
        }
    }
}

TEST(LoweringPrefixOracle, ReproCellsLowerIdenticallyFromTheMemo)
{
    // The lowered level stores the machine-free prefix once per
    // (kernel, variant) and finishes each model's lowering on a
    // clone: every repro cell's lowered function must equal a fresh
    // lowerVariant() in text and in content fingerprint.
    const std::vector<ExperimentRequest> cells = reproCells();
    ExperimentCache cache;
    std::set<std::string> lowerings, variants;
    for (const ExperimentRequest &req : cells) {
        DatapathConfig cfg = req.model;
        if (req.variant->needsAbsDiff)
            cfg.cluster.hasAbsDiff = true;
        const std::string key = ExperimentCache::loweringKey(req, cfg);
        if (!lowerings.insert(key).second)
            continue;
        variants.insert(req.kernel->name + '|' + req.variant->name);
        MachineModel machine(cfg);
        Function want = lowerVariant(*req.kernel, *req.variant, machine);
        Function got = cache.lowerCached(*req.kernel, *req.variant,
                                         machine);
        EXPECT_EQ(want.str(), got.str()) << key;
        EXPECT_EQ(functionFingerprint(want), functionFingerprint(got))
            << key;
    }
    const ExperimentCacheStats s = cache.stats();
    EXPECT_EQ(s.loweredMisses, variants.size());
    EXPECT_EQ(s.loweredHits, lowerings.size() - variants.size());
    EXPECT_GT(s.loweredHits, 0u);
}

} // namespace
} // namespace vvsp
