#include "sim/cycle_sim.hh"

#include <algorithm>
#include <unordered_map>

#include "ir/dependence_graph.hh"
#include "isa/disassembler.hh"
#include "isa/encoder.hh"
#include "kernels/composer.hh"
#include "obs/sim_telemetry.hh"
#include "obs/stats_registry.hh"
#include "sched/list_scheduler.hh"
#include "sched/modulo_scheduler.hh"
#include "sched/reservation_table.hh"
#include "sim/decoded_trace.hh"
#include "sim/interpreter.hh"
#include "support/logging.hh"

namespace vvsp
{

struct CycleSim::Engine
{
    Function &fn;
    const MachineModel &machine;
    ScheduleMode mode;
    MemoryImage &mem;
    CycleSimReport report;

    ListScheduler lsched;
    ModuloScheduler msched;
    BankOfFn bankOf;

    std::vector<uint16_t> regs;
    std::vector<Operation> pending;

    /** Hash for the acyclic-cache key (first op id, group size). */
    struct GroupKeyHash
    {
        size_t
        operator()(const std::pair<int, size_t> &k) const
        {
            // Op ids and sizes are small; golden-ratio mix is enough.
            return std::hash<size_t>()(
                static_cast<size_t>(k.first) * 0x9e3779b97f4a7c15ull +
                k.second);
        }
    };

    /**
     * One cached group: the schedule plus its decoded, execution-
     * ordered micro-op trace. The trace is built exactly once, when
     * the schedule enters the cache, so repeated executions perform
     * no sorting, hashing of ops, or OpcodeInfo lookups.
     */
    struct CachedGroup
    {
        BlockSchedule sched;
        DecodedTrace trace;
    };

    /** Schedule cache, keyed by the group's first op id and size.
     *  Hit once per executed group - hot enough to want O(1). */
    std::unordered_map<std::pair<int, size_t>, CachedGroup,
                       GroupKeyHash>
        acyclicCache;
    std::unordered_map<int, CachedGroup> moduloCache; // by loop id.
    std::unordered_map<int, std::vector<Operation>> ctrlCache;
    std::unordered_map<int, std::vector<Operation>> swpOpsCache;

    /** Decode/sort counters (null-sink scope when stats are off). */
    obs::StatsScope simStats;
    /**
     * Scheduling time inside a run, as phases nested under
     * cycle_sim ("phase/cycle_sim/list_sched", ".../modulo_sched"),
     * apart from the composer's own list_sched/modulo_sched phases.
     */
    obs::StatsScope phase;

    /** Execute decoded-from-binary code (CycleSim::setIsaRoundTrip). */
    bool isaRoundTrip = false;

    /** Telemetry sink; null when the run is uninstrumented. */
    obs::GroupTelemetry *telem = nullptr;
    /** Schedule-diagram sink; null when tracing is off. */
    obs::TraceWriter *trace = nullptr;
    int *tracePid = nullptr;
    const std::string *traceLabel = nullptr;
    /** Per-group utilization profiles, cached like the schedules. */
    std::unordered_map<std::pair<int, size_t>, obs::GroupTelemetry,
                       GroupKeyHash>
        acyclicTelem;
    std::unordered_map<int, obs::GroupTelemetry> moduloTelem;

    enum class Flow { Normal, Break };

    Engine(Function &f, const MachineModel &m, ScheduleMode md,
           MemoryImage &image, BankOfFn bank_of)
        : fn(f), machine(m), mode(md), mem(image), lsched(m, bank_of),
          msched(m, bank_of), bankOf(bank_of),
          regs(f.numVregs() + 4096, 0),
          simStats(obs::globalScope("sim")),
          phase(obs::globalScope("phase/cycle_sim"))
    {
    }

    uint16_t
    value(const Operand &o) const
    {
        switch (o.kind) {
          case Operand::Kind::Reg:
            vvsp_assert(o.reg < regs.size(), "v%u out of range",
                        o.reg);
            return regs[o.reg];
          case Operand::Kind::Imm:
            return static_cast<uint16_t>(o.imm);
          case Operand::Kind::None:
            return 0;
        }
        return 0;
    }

    void
    growRegs()
    {
        if (fn.numVregs() > regs.size())
            regs.resize(fn.numVregs() + 4096, 0);
    }

    /**
     * Independently re-verify a schedule: resource legality via a
     * fresh reservation table and dependence timing via a rebuilt
     * dependence graph.
     */
    void
    verifySchedule(const std::vector<Operation> &ops,
                   const BlockSchedule &sched, bool width1)
    {
        ReservationTable table(machine, sched.ii, bankOf, width1);
        // Reserve hardest-constrained classes first within each
        // cycle: a set the scheduler accumulated greedily is
        // feasible, and this order always finds the witness
        // assignment (alternate-unit ops are slot-bound, ALUs fill
        // the remaining slots).
        auto hardness = [](const Operation &op) {
            switch (op.info().fuClass) {
              case FuClass::Mem:
              case FuClass::Mult:
              case FuClass::Shift:
                return 0;
              case FuClass::Xbar:
                return 1;
              default:
                return 2;
            }
        };
        std::vector<size_t> order(ops.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        auto row = [&sched](size_t i) {
            int c = sched.placed[i].cycle;
            return sched.ii > 0 ? c % sched.ii : c;
        };
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             if (row(a) != row(b))
                                 return row(a) < row(b);
                             return hardness(ops[a]) <
                                    hardness(ops[b]);
                         });
        for (size_t i : order) {
            // In width-1 mode the trailing branch's instruction slot
            // is charged analytically by the block-length formula
            // (it conceptually shifts the ops in its delay shadow),
            // so its placement may share a cycle number here.
            if (width1 && ops[i].info().isBranch)
                continue;
            int slot = -1;
            bool ok = table.tryReserve(ops[i], sched.placed[i].cycle,
                                       &slot);
            vvsp_assert(ok, "resource violation for '%s' at cycle %d",
                        ops[i].str().c_str(), sched.placed[i].cycle);
        }
        DependenceGraph ddg(ops, machine.latencyFn(), sched.ii > 0);
        int ii = sched.ii > 0 ? sched.ii : 1 << 20;
        for (const auto &e : ddg.edges()) {
            int tf = sched.placed[static_cast<size_t>(e.from)].cycle;
            int tt = sched.placed[static_cast<size_t>(e.to)].cycle;
            vvsp_assert(tt + ii * e.distance >= tf + e.latency,
                        "timing violation %d -> %d (lat %d dist %d, "
                        "t %d -> %d, ii %d)",
                        e.from, e.to, e.latency, e.distance, tf, tt,
                        sched.ii);
        }
    }

    /**
     * Round-trip one scheduled group through the ISA: encode it as a
     * one-section module of binary instruction words, decode the
     * bytes back, and assert the re-encode is byte-identical. The
     * returned section holds the DECODED operations (program order,
     * placements recovered from the words), so traces built from it
     * provably execute the code in the instruction words.
     */
    IsaSection
    roundTripSection(const std::string &label,
                     const std::vector<Operation> &ops,
                     const BlockSchedule &sched, bool width1)
    {
        IsaModule module;
        module.machine = machine.name();
        module.name = fn.name;
        module.fmt = isaFormatFor(machine.config());
        module.sections.push_back(
            buildSection(label, ops, sched, width1, machine, bankOf));
        std::vector<uint8_t> bytes = encodeModule(module);
        IsaModule decoded;
        std::string error;
        vvsp_assert(decodeModule(bytes, decoded, &error),
                    "isa round-trip decode failed for '%s': %s",
                    label.c_str(), error.c_str());
        vvsp_assert(encodeModule(decoded) == bytes,
                    "isa round-trip re-encode of '%s' is not "
                    "byte-identical",
                    label.c_str());
        simStats.bump("isa_roundtrips");
        return std::move(decoded.sections.front());
    }

    /**
     * Acyclic placements recovered from a decoded section, shaped as
     * the BlockSchedule a DecodedTrace needs for issue ordering.
     */
    static BlockSchedule
    scheduleFromSection(const IsaSection &sec)
    {
        BlockSchedule sched;
        sched.length = sec.length;
        sched.ii = sec.modulo ? sec.ii : 0;
        sched.stages = sec.stages;
        sched.maxLive = sec.maxLive;
        sched.instructions = sec.words();
        sched.placed.reserve(sec.placed.size());
        for (const auto &p : sec.placed)
            sched.placed.push_back(
                PlacedOp{p.cycle, p.cluster, p.slot});
        return sched;
    }

    /** Execute an acyclic group: schedule (cached), verify, run. */
    void
    flush()
    {
        if (pending.empty())
            return;
        bool width1 = mode == ScheduleMode::Sequential;
        auto key = std::make_pair(pending.front().id, pending.size());
        auto it = acyclicCache.find(key);
        if (it == acyclicCache.end()) {
            BlockSchedule sched =
                obs::timedPhase(phase, "list_sched", [&] {
                    return lsched.schedule(pending, width1);
                });
            verifySchedule(pending, sched, width1);
            if (trace) {
                obs::scheduleToTrace(
                    *trace, (*tracePid)++,
                    *traceLabel + "/group@op" +
                        std::to_string(key.first),
                    pending, sched, machine);
            }
            // The one and only issue-order sort for this group; every
            // later execution replays the decoded trace.
            simStats.bump("acyclic_group_sorts");
            DecodedTrace decoded;
            if (isaRoundTrip) {
                IsaSection sec = roundTripSection(
                    "group@op" + std::to_string(key.first), pending,
                    sched, width1);
                BlockSchedule rsched = scheduleFromSection(sec);
                decoded = DecodedTrace(sec.ops, &rsched);
            } else {
                decoded = DecodedTrace(pending, &sched);
            }
            it = acyclicCache
                     .emplace(key, CachedGroup{std::move(sched),
                                               std::move(decoded)})
                     .first;
        }
        const BlockSchedule &sched = it->second.sched;

        simStats.bump("acyclic_group_execs");
        it->second.trace.execute(regs, mem, report);

        if (telem) {
            auto tit = acyclicTelem.find(key);
            if (tit == acyclicTelem.end()) {
                tit = acyclicTelem
                          .emplace(key,
                                   obs::analyzeSchedule(
                                       pending, sched, machine,
                                       bankOf))
                          .first;
            }
            telem->addScaled(tit->second, 1);
        }

        report.cycles += static_cast<uint64_t>(sched.length);
        report.instructions +=
            static_cast<uint64_t>(sched.length);
        pending.clear();
    }

    void
    append(const std::vector<Operation> &ops)
    {
        pending.insert(pending.end(), ops.begin(), ops.end());
    }

    void
    appendBranchAndFlush(Operand cond)
    {
        Operation br;
        br.op = cond.isNone() ? Opcode::Br : Opcode::BrCond;
        if (!cond.isNone())
            br.src[0] = cond;
        br.id = fn.newOpId();
        pending.push_back(br);
        flush();
    }

    const std::vector<Operation> &
    controlFor(const LoopNode &loop)
    {
        auto it = ctrlCache.find(loop.id);
        if (it == ctrlCache.end()) {
            it = ctrlCache.emplace(loop.id, loopControlOps(fn, loop))
                     .first;
            growRegs();
        }
        return it->second;
    }

    void
    runSwpLoop(const LoopNode &loop)
    {
        auto oit = swpOpsCache.find(loop.id);
        if (oit == swpOpsCache.end()) {
            std::vector<Operation> ops;
            for (const auto &n : loop.body) {
                const auto &block = static_cast<const BlockNode &>(*n);
                ops.insert(ops.end(), block.ops.begin(),
                           block.ops.end());
            }
            const auto &ctrl = controlFor(loop);
            ops.insert(ops.end(), ctrl.begin(), ctrl.end());
            oit = swpOpsCache.emplace(loop.id, std::move(ops)).first;
        }
        const auto &ops = oit->second;

        auto mit = moduloCache.find(loop.id);
        if (mit == moduloCache.end()) {
            BlockSchedule sched =
                obs::timedPhase(phase, "modulo_sched", [&] {
                    return msched.schedule(
                        ops, machine.registersPerCluster());
                });
            verifySchedule(ops, sched, false);
            if (trace) {
                obs::scheduleToTrace(*trace, (*tracePid)++,
                                     *traceLabel + "/swp:" +
                                         loop.label,
                                     ops, sched, machine);
            }
            simStats.bump("swp_loop_schedules");
            // Trip bodies execute in program order (iteration
            // overlap is accounted analytically), so decode without
            // the schedule's issue order.
            DecodedTrace decoded;
            if (isaRoundTrip) {
                IsaSection sec = roundTripSection(
                    "swp:" + loop.label, ops, sched, false);
                decoded = DecodedTrace(sec.ops, nullptr);
            } else {
                decoded = DecodedTrace(ops, nullptr);
            }
            mit = moduloCache
                      .emplace(loop.id, CachedGroup{std::move(sched),
                                                    std::move(decoded)})
                      .first;
        }
        const BlockSchedule &sched = mit->second.sched;
        const DecodedTrace &decoded = mit->second.trace;

        uint16_t base = value(loop.ivInit);
        if (loop.tripCount > 0 && loop.inductionVar != kNoVreg) {
            vvsp_assert(loop.inductionVar < regs.size(),
                        "v%u out of range", loop.inductionVar);
        }
        for (long k = 0; k < loop.tripCount; ++k) {
            if (loop.inductionVar != kNoVreg) {
                regs[loop.inductionVar] = static_cast<uint16_t>(
                    base + k * loop.step);
            }
            decoded.execute(regs, mem, report);
        }
        if (telem && loop.tripCount > 0) {
            auto tit = moduloTelem.find(loop.id);
            if (tit == moduloTelem.end()) {
                tit = moduloTelem
                          .emplace(loop.id,
                                   obs::analyzeSchedule(
                                       ops, sched, machine, bankOf))
                          .first;
            }
            telem->addScaled(
                tit->second,
                static_cast<uint64_t>(loop.tripCount));
            uint64_t ramp = static_cast<uint64_t>(
                sched.prologueCycles() + sched.epilogueCycles());
            if (ramp > 0)
                telem->addScaled(obs::idleWindow(machine, ramp), 1);
        }
        report.cycles +=
            static_cast<uint64_t>(sched.prologueCycles()) +
            static_cast<uint64_t>(sched.ii) * loop.tripCount +
            static_cast<uint64_t>(sched.epilogueCycles());
        report.instructions += static_cast<uint64_t>(
            sched.ii * loop.tripCount);
    }

    Flow
    runLoop(const LoopNode &loop)
    {
        flush();
        if (swpEligibleLoop(loop, mode)) {
            runSwpLoop(loop);
            return Flow::Normal;
        }
        const auto &ctrl = controlFor(loop);
        uint16_t base = value(loop.ivInit);
        uint64_t iter = 0;
        Flow flow = Flow::Normal;
        while (loop.tripCount < 0 ||
               iter < static_cast<uint64_t>(loop.tripCount)) {
            vvsp_assert(iter < (1ull << 24),
                        "runaway dynamic loop '%s'",
                        loop.label.c_str());
            if (loop.inductionVar != kNoVreg) {
                regs.at(loop.inductionVar) = static_cast<uint16_t>(
                    base + iter * static_cast<uint64_t>(loop.step));
            }
            Flow f = runList(loop.body);
            if (f == Flow::Break) {
                flow = Flow::Normal;
                flush();
                return flow;
            }
            append(ctrl);
            flush();
            ++iter;
        }
        return Flow::Normal;
    }

    Flow
    runList(const NodeList &list)
    {
        for (const auto &n : list) {
            switch (n->kind()) {
              case NodeKind::Block:
                append(static_cast<const BlockNode &>(*n).ops);
                break;
              case NodeKind::Loop: {
                Flow f = runLoop(static_cast<const LoopNode &>(*n));
                if (f == Flow::Break)
                    return f;
                break;
              }
              case NodeKind::If: {
                const auto &iff = static_cast<const IfNode &>(*n);
                // The pending group computes the condition; it must
                // execute before the condition is read.
                appendBranchAndFlush(iff.cond);
                bool taken = (value(iff.cond) != 0) == iff.sense;
                if (taken) {
                    Flow f = runList(iff.thenBody);
                    if (f == Flow::Break)
                        return f;
                    if (!iff.elseBody.empty())
                        appendBranchAndFlush(Operand::none());
                } else {
                    Flow f = runList(iff.elseBody);
                    if (f == Flow::Break)
                        return f;
                }
                flush();
                break;
              }
              case NodeKind::Break: {
                const auto &brk = static_cast<const BreakNode &>(*n);
                appendBranchAndFlush(brk.cond);
                bool fires = brk.cond.isNone() ||
                             (value(brk.cond) != 0) == brk.sense;
                if (fires)
                    return Flow::Break;
                break;
              }
            }
        }
        return Flow::Normal;
    }
};

CycleSim::CycleSim(const MachineModel &machine, ScheduleMode mode)
    : machine_(machine), mode_(mode)
{
}

CycleSimReport
CycleSim::run(Function &fn, MemoryImage &mem,
              obs::GroupTelemetry *telemetry)
{
    BankOfFn bank_of = [&fn](int buffer) {
        return fn.buffer(buffer).bank;
    };
    Engine engine(fn, machine_, mode_, mem, bank_of);
    engine.isaRoundTrip = isaRoundTrip_;
    engine.telem = telemetry;
    if (trace_) {
        engine.trace = trace_;
        engine.tracePid = &nextTracePid_;
        engine.traceLabel = &traceLabel_;
    }
    engine.runList(fn.body);
    engine.flush();
    return engine.report;
}

} // namespace vvsp
