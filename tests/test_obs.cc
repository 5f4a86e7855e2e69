/**
 * @file
 * Observability-layer tests: stats accumulator arithmetic, scope
 * nesting, registry thread-safety under the worker pool, the
 * sweep-stats determinism contract (identical registries at any
 * thread count), trace_event JSON shape, and the cycle-sim telemetry
 * accounting identity (offered slot-cycles = busy + attributed
 * stalls, window cycles = executed cycles).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "arch/models.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "obs/sim_telemetry.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "sim/cycle_sim.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"

namespace vvsp
{
namespace
{

TEST(IntStat, Accumulates)
{
    IntStat s;
    EXPECT_EQ(s.count(), 0u);
    s.sample(5);
    s.sample(2);
    s.sample(9);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_EQ(s.sum(), 16u);
    EXPECT_EQ(s.min(), 2u);
    EXPECT_EQ(s.max(), 9u);
    EXPECT_DOUBLE_EQ(s.mean(), 16.0 / 3.0);
}

TEST(IntStat, MergeIsOrderIndependent)
{
    IntStat a, b, ab, ba;
    for (uint64_t v : {7u, 1u, 3u})
        a.sample(v);
    for (uint64_t v : {10u, 0u})
        b.sample(v);
    ab = a;
    ab.merge(b);
    ba = b;
    ba.merge(a);
    EXPECT_EQ(ab.count(), ba.count());
    EXPECT_EQ(ab.sum(), ba.sum());
    EXPECT_EQ(ab.min(), ba.min());
    EXPECT_EQ(ab.max(), ba.max());
    EXPECT_EQ(ab.count(), 5u);
    EXPECT_EQ(ab.min(), 0u);
    EXPECT_EQ(ab.max(), 10u);
}

TEST(StatsRegistry, CountersAndDistributions)
{
    obs::StatsRegistry reg;
    reg.counter("a/b").add();
    reg.counter("a/b").add(4);
    reg.counter("a/c").add(2);
    reg.distribution("d").sample(3);
    reg.distribution("d").sample(7);

    EXPECT_EQ(reg.counterValue("a/b"), 5u);
    EXPECT_EQ(reg.counterValue("a/c"), 2u);
    EXPECT_EQ(reg.counterValue("never/created"), 0u);
    IntStat d = reg.distributionValue("d");
    EXPECT_EQ(d.count(), 2u);
    EXPECT_EQ(d.sum(), 10u);
    EXPECT_EQ(reg.distributionValue("nope").count(), 0u);

    // Enumeration is path-sorted.
    auto cs = reg.counters();
    ASSERT_EQ(cs.size(), 2u);
    EXPECT_EQ(cs[0].first, "a/b");
    EXPECT_EQ(cs[1].first, "a/c");

    reg.clear();
    EXPECT_EQ(reg.counterValue("a/b"), 0u);
    EXPECT_TRUE(reg.counters().empty());
}

TEST(StatsScope, NestingAndNullSink)
{
    obs::StatsRegistry reg;
    obs::StatsScope root = reg.scope("sim");
    obs::StatsScope inner = root.scope("cluster0");
    inner.bump("busy", 3);
    inner.sample("width", 2);
    root.bump("cycles");
    EXPECT_EQ(reg.counterValue("sim/cluster0/busy"), 3u);
    EXPECT_EQ(reg.counterValue("sim/cycles"), 1u);
    EXPECT_EQ(reg.distributionValue("sim/cluster0/width").sum(), 2u);

    // Zero bumps never materialize a counter.
    root.bump("untouched", 0);
    EXPECT_EQ(reg.counters().size(), 2u);

    // A default scope is a null sink: everything is a no-op.
    obs::StatsScope off;
    EXPECT_FALSE(off.enabled());
    off.bump("x");
    off.sample("y", 1);
    EXPECT_FALSE(off.scope("deep").enabled());

    // The global scope is disabled until a registry is installed.
    EXPECT_EQ(obs::globalStats(), nullptr);
    EXPECT_FALSE(obs::globalScope("xform").enabled());
    obs::setGlobalStats(&reg);
    obs::globalScope("xform").bump("runs");
    obs::setGlobalStats(nullptr);
    EXPECT_EQ(reg.counterValue("xform/runs"), 1u);
}

TEST(StatsRegistry, ConcurrentRecordingSumsExactly)
{
    obs::StatsRegistry reg;
    const int tasks = 64;
    const int bumps = 250;
    ThreadPool pool(4);
    for (int t = 0; t < tasks; ++t) {
        pool.submit([&reg, t] {
            obs::StatsScope s = reg.scope("par");
            for (int i = 0; i < bumps; ++i) {
                s.bump("hits");
                s.sample("val", static_cast<uint64_t>(t));
            }
        });
    }
    pool.wait();
    EXPECT_EQ(reg.counterValue("par/hits"),
              uint64_t(tasks) * bumps);
    IntStat v = reg.distributionValue("par/val");
    EXPECT_EQ(v.count(), uint64_t(tasks) * bumps);
    EXPECT_EQ(v.min(), 0u);
    EXPECT_EQ(v.max(), uint64_t(tasks - 1));
    EXPECT_EQ(v.sum(), uint64_t(bumps) * tasks * (tasks - 1) / 2);
}

/** Distribution snapshot rows with wall-time samples filtered out. */
std::vector<std::tuple<std::string, uint64_t, uint64_t, uint64_t,
                       uint64_t>>
deterministicDists(const obs::StatsRegistry &reg)
{
    std::vector<std::tuple<std::string, uint64_t, uint64_t, uint64_t,
                           uint64_t>> rows;
    for (const auto &[name, stat] : reg.distributions()) {
        // Wall-clock samples ("*_us") are real time, not machine
        // state; they are the one intentionally nondeterministic
        // part of the registry.
        if (name.size() >= 3 &&
            name.compare(name.size() - 3, 3, "_us") == 0) {
            continue;
        }
        rows.emplace_back(name, stat.count(), stat.sum(),
                          stat.count() ? stat.min() : 0,
                          stat.count() ? stat.max() : 0);
    }
    return rows;
}

/**
 * The determinism contract: a sweep recording into a registry must
 * produce identical counters and (non-wall-time) distributions at
 * any worker count. Caching is disabled because racing cache misses
 * legitimately change how many times the lowering pipeline runs.
 */
TEST(SweepStats, DeterministicAcrossThreadCounts)
{
    std::vector<ExperimentRequest> requests;
    for (const char *model : {"I4C8S4", "I2C16S4"}) {
        for (const char *kernel :
             {"Variable-Bit-Rate Coder", "DCT - row/column"}) {
            const KernelSpec &k = kernelByName(kernel);
            ExperimentRequest req;
            req.kernel = &k;
            req.variant = &k.variants.back();
            req.model = models::byName(model);
            req.profileUnits = 1;
            requests.push_back(req);
        }
    }

    auto runWith = [&requests](int threads,
                               obs::StatsRegistry &reg) {
        SweepOptions sopts;
        sopts.threads = threads;
        sopts.useCache = false;
        sopts.stats = &reg;
        SweepRunner runner(sopts);
        return runner.run(requests);
    };

    obs::StatsRegistry serial;
    auto r1 = runWith(1, serial);
    for (int threads : {2, 4}) {
        // Beyond one thread the modulo scheduler attempts IIs
        // speculatively in waves; only the attempts consumed in
        // ascending II order may be counted.
        obs::StatsRegistry parallel;
        auto rn = runWith(threads, parallel);
        ASSERT_EQ(r1.size(), rn.size());
        for (size_t i = 0; i < r1.size(); ++i)
            EXPECT_EQ(r1[i].cyclesPerFrame, rn[i].cyclesPerFrame);

        EXPECT_EQ(serial.counters(), parallel.counters())
            << threads << " threads";
        EXPECT_EQ(deterministicDists(serial),
                  deterministicDists(parallel))
            << threads << " threads";
    }
    // The registries actually saw the pipeline.
    EXPECT_EQ(serial.counterValue("sweep/cells"), requests.size());
    EXPECT_GT(serial.counterValue("xform/lowerings"), 0u);
    // Every consumed II attempt has exactly one outcome and one
    // attempt_us sample.
    uint64_t ok = serial.counterValue("sched/swp/attempts_ok");
    uint64_t attempts =
        ok + serial.counterValue("sched/swp/attempts_fail_budget") +
        serial.counterValue("sched/swp/attempts_fail_recurrence");
    EXPECT_GT(ok, 0u);
    EXPECT_EQ(
        serial.distributionValue("sched/swp/attempt_us").count(),
        attempts);
}

/** Minimal JSON well-formedness scan: balanced structure outside
 *  strings, valid escapes inside them. */
void
expectBalancedJson(const std::string &s)
{
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (in_string) {
            if (c == '\\') {
                ASSERT_LT(i + 1, s.size());
                char e = s[i + 1];
                EXPECT_TRUE(e == '"' || e == '\\' || e == 'n' ||
                            e == 't' || e == 'u')
                    << "bad escape \\" << e << " at " << i;
                i += e == 'u' ? 5 : 1;
            } else {
                EXPECT_GE(static_cast<unsigned char>(c), 0x20)
                    << "raw control char at " << i;
                if (c == '"')
                    in_string = false;
            }
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            depth++;
        } else if (c == '}' || c == ']') {
            depth--;
            EXPECT_GE(depth, 0);
        }
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
}

TEST(TraceWriter, JsonSchema)
{
    obs::TraceWriter tw;
    tw.processName(1, "sweep");
    tw.threadName(1, 0, "worker 0");
    // Slices appended out of order; export must sort by timestamp.
    tw.slice("late", "cell", 30, 5, 1, 0,
             {{"model", "I4C8S4"}});
    tw.slice("early \"quoted\"\nline", "cell", 10, 20, 1, 0);
    EXPECT_EQ(tw.sliceCount(), 2u);

    std::string j = tw.json();
    expectBalancedJson(j);
    EXPECT_NE(j.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(j.find("\"process_name\""), std::string::npos);
    EXPECT_NE(j.find("\"model\": \"I4C8S4\""), std::string::npos);
    // Escaping: the quote and newline must be JSON escapes.
    EXPECT_NE(j.find("early \\\"quoted\\\"\\nline"),
              std::string::npos);
    // Timestamp order: ts 10 before ts 30.
    EXPECT_LT(j.find("\"ts\": 10"), j.find("\"ts\": 30"));
}

/**
 * Telemetry accounting identity on a real simulated kernel: the
 * offered slot-cycles decompose exactly into busy plus the four
 * stall causes, and the analyzed windows cover exactly the executed
 * cycles.
 */
TEST(SimTelemetry, AccountingIdentity)
{
    for (const char *kernel :
         {"Variable-Bit-Rate Coder",
          "RGB:YCrCb converter/subsampler"}) {
        const KernelSpec &k = kernelByName(kernel);
        const VariantSpec &v = k.variants.back();
        DatapathConfig cfg = models::byName("I4C8S4");
        if (v.needsAbsDiff)
            cfg.cluster.hasAbsDiff = true;
        MachineModel machine(cfg);
        Function fn = lowerVariant(k, v, machine);
        MemoryImage mem(fn);
        k.prepare(fn, mem, FrameGeometry{48, 32}, 0);

        CycleSim sim(machine, v.mode);
        obs::GroupTelemetry t;
        CycleSimReport rep = sim.run(fn, mem, &t);

        EXPECT_EQ(t.cycles, rep.cycles) << kernel;
        EXPECT_EQ(t.slotCyclesTotal,
                  t.slotCyclesBusy + t.stallOperand +
                      t.stallStructural + t.stallTransfer +
                      t.stallNoWork)
            << kernel;
        uint64_t per_cluster = 0;
        for (uint64_t b : t.clusterBusy)
            per_cluster += b;
        EXPECT_EQ(per_cluster, t.slotCyclesBusy) << kernel;
        EXPECT_GT(t.slotCyclesBusy, 0u) << kernel;
        EXPECT_GT(t.rfReads, 0u) << kernel;
        EXPECT_GE(t.slotUtilization(), 0.0);
        EXPECT_LE(t.slotUtilization(), 1.0);
        EXPECT_GE(t.xbarUtilization(), 0.0);
        EXPECT_LE(t.xbarUtilization(), 1.0);

        // recordTo round-trips through a registry.
        obs::StatsRegistry reg;
        t.recordTo(reg.scope("sim"));
        EXPECT_EQ(reg.counterValue("sim/cycles"), t.cycles);
        EXPECT_EQ(reg.counterValue("sim/slots/busy"),
                  t.slotCyclesBusy);
    }
}

} // anonymous namespace
} // namespace vvsp
