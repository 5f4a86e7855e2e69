#include "sim/bytecode.hh"

#include <algorithm>
#include <unordered_map>

#include "sim/alu16.hh"
#include "support/fnv.hh"
#include "support/logging.hh"

namespace vvsp
{

namespace
{

/** Opcode -> ALU bytecode kind (compile-time table via X-macro). */
bool
aluKind(Opcode op, BcKind &out)
{
    switch (op) {
#define VVSP_BC_MAP(name)                                             \
      case Opcode::name:                                              \
        out = BcKind::k##name;                                        \
        return true;
        VVSP_BC_ALU_OPS(VVSP_BC_MAP)
#undef VVSP_BC_MAP
      default:
        return false;
    }
}

} // anonymous namespace

/** Single-use flattener; owns the in-progress program arrays. */
class BcCompiler
{
  public:
    BcCompiler(const Function &fn, BytecodeProgram &out)
        : fn_(fn), out_(out)
    {
        out_.num_vregs_ = fn.numVregs();
        out_.num_node_ids_ = fn.numNodeIds();
        out_.num_buffers_ = fn.buffers.size();
    }

    void compile()
    {
        compileList(fn_.body);
        int32_t halt_pc = pc();
        emit(BcKind::kHalt);
        // A Break with no enclosing loop ends the function, exactly
        // as the tree walker's Flow::Break propagates out of run().
        for (size_t site : toplevel_breaks_)
            out_.code_[site].arg = halt_pc;
    }

  private:
    int32_t pc() const
    {
        return static_cast<int32_t>(out_.code_.size());
    }

    BcInst &emit(BcKind kind)
    {
        BcInst inst;
        inst.kind = static_cast<uint8_t>(kind);
        out_.code_.push_back(inst);
        return out_.code_.back();
    }

    /** Regfile index of a deduplicated immediate. */
    uint32_t constIndex(uint16_t value)
    {
        auto it = const_index_.find(value);
        if (it != const_index_.end())
            return it->second;
        uint32_t idx = out_.constBase() +
                       static_cast<uint32_t>(out_.pool_.size());
        out_.pool_.push_back(value);
        const_index_.emplace(value, idx);
        return idx;
    }

    /**
     * Regfile index an operand reads from. Absent operands read the
     * dedicated zero slot (the tree walker's value(None) == 0), so
     * the replay loop never tests the operand kind.
     */
    uint32_t operandIndex(const Operand &o)
    {
        switch (o.kind) {
          case Operand::Kind::Reg:
            vvsp_assert(o.reg < out_.num_vregs_,
                        "bytecode: read of v%u out of range", o.reg);
            return o.reg;
          case Operand::Kind::Imm:
            return constIndex(static_cast<uint16_t>(o.imm));
          case Operand::Kind::None:
            return out_.zeroReg();
        }
        return out_.zeroReg();
    }

    uint32_t dstIndex(Vreg dst)
    {
        vvsp_assert(dst < out_.num_vregs_,
                    "bytecode: write of v%u out of range", dst);
        return dst;
    }

    int32_t nodeIndex(int id)
    {
        vvsp_assert(id >= 0 && id < out_.num_node_ids_,
                    "bytecode: node id %d out of range", id);
        return id;
    }

    void compileList(const NodeList &list)
    {
        for (const auto &n : list)
            compileNode(*n);
    }

    void compileNode(const Node &node)
    {
        switch (node.kind()) {
          case NodeKind::Block:
            compileBlock(static_cast<const BlockNode &>(node));
            return;
          case NodeKind::Loop:
            compileLoop(static_cast<const LoopNode &>(node));
            return;
          case NodeKind::If:
            compileIf(static_cast<const IfNode &>(node));
            return;
          case NodeKind::Break:
            compileBreak(static_cast<const BreakNode &>(node));
            return;
        }
    }

    void compileBlock(const BlockNode &block)
    {
        emit(BcKind::kBlockHead).arg = nodeIndex(block.id);
        for (const Operation &op : block.ops) {
            if (op.op == Opcode::Nop)
                continue;
            BcInst inst;
            inst.sense = op.predSense ? 1 : 0;
            inst.pred = op.isPredicated() ? operandIndex(op.pred)
                                          : kNoBcReg;
            BcKind alu;
            if (op.op == Opcode::Load) {
                inst.kind = static_cast<uint8_t>(BcKind::kLoad);
                inst.dst = dstIndex(op.dst);
                inst.a = operandIndex(op.src[0]);
                inst.b = operandIndex(op.src[1]);
                inst.arg = bufferIndex(op.buffer);
            } else if (op.op == Opcode::Store) {
                inst.kind = static_cast<uint8_t>(BcKind::kStore);
                inst.a = operandIndex(op.src[0]);
                inst.b = operandIndex(op.src[1]);
                inst.c = operandIndex(op.src[2]);
                inst.arg = bufferIndex(op.buffer);
            } else if (aluKind(op.op, alu)) {
                inst.kind = static_cast<uint8_t>(alu);
                inst.dst = dstIndex(op.dst);
                inst.a = operandIndex(op.src[0]);
                inst.b = operandIndex(op.src[1]);
                inst.c = operandIndex(op.src[2]);
            } else {
                vvsp_panic("branch op in unlowered IR: %s",
                           op.str().c_str());
            }
            out_.code_.push_back(inst);
        }
    }

    int32_t bufferIndex(int buffer)
    {
        vvsp_assert(buffer >= 0 &&
                        static_cast<size_t>(buffer) <
                            out_.num_buffers_,
                    "bytecode: buffer %d out of range", buffer);
        return buffer;
    }

    void compileLoop(const LoopNode &loop)
    {
        uint16_t slot = static_cast<uint16_t>(out_.loops_.size());
        vvsp_assert(out_.loops_.size() < 0xffff,
                    "bytecode: too many loops");
        BcLoopInfo info;
        info.tripCount = loop.tripCount;
        info.nodeId = nodeIndex(loop.id);
        if (loop.inductionVar != kNoVreg)
            info.ivReg = dstIndex(loop.inductionVar);
        info.ivInitIdx = operandIndex(loop.ivInit);
        info.step = static_cast<uint16_t>(loop.step);
        info.label = loop.label;
        out_.loops_.push_back(std::move(info));

        emit(BcKind::kLoopEnter).slot = slot;
        int32_t head_pc = pc();
        emit(BcKind::kLoopHead).slot = slot;

        break_sites_.emplace_back();
        compileList(loop.body);
        emit(BcKind::kLoopBack).slot = slot;
        int32_t exit_pc = pc();

        out_.loops_[slot].headPc = head_pc;
        out_.loops_[slot].exitPc = exit_pc;
        for (size_t site : break_sites_.back())
            out_.code_[site].arg = exit_pc;
        break_sites_.pop_back();
    }

    void compileIf(const IfNode &iff)
    {
        size_t head = static_cast<size_t>(pc());
        {
            BcInst &inst = emit(BcKind::kIfHead);
            inst.a = operandIndex(iff.cond);
            inst.sense = iff.sense ? 1 : 0;
            inst.dst = static_cast<uint32_t>(nodeIndex(iff.id));
        }
        compileList(iff.thenBody);
        size_t join = static_cast<size_t>(pc());
        emit(BcKind::kJump);
        out_.code_[head].arg = pc(); // else arm starts here.
        compileList(iff.elseBody);
        out_.code_[join].arg = pc(); // both arms rejoin here.
    }

    void compileBreak(const BreakNode &brk)
    {
        size_t site = static_cast<size_t>(pc());
        if (brk.cond.isNone()) {
            emit(BcKind::kJump);
        } else {
            BcInst &inst = emit(BcKind::kBreakIf);
            inst.a = operandIndex(brk.cond);
            inst.sense = brk.sense ? 1 : 0;
        }
        // Target = exit of the innermost enclosing loop: the static
        // equivalent of Flow::Break unwinding through runList.
        if (break_sites_.empty())
            toplevel_breaks_.push_back(site);
        else
            break_sites_.back().push_back(site);
    }

    const Function &fn_;
    BytecodeProgram &out_;
    std::unordered_map<uint16_t, uint32_t> const_index_;
    std::vector<std::vector<size_t>> break_sites_;
    std::vector<size_t> toplevel_breaks_;
};

BytecodeProgram::BytecodeProgram(const Function &fn)
{
    BcCompiler compiler(fn, *this);
    compiler.compile();
}

BytecodeEngine::BytecodeEngine(
    std::shared_ptr<const BytecodeProgram> p)
    : prog_(std::move(p))
{
    vvsp_assert(prog_ != nullptr, "null bytecode program");
}

BytecodeEngine::BytecodeEngine(const Function &fn)
    : BytecodeEngine(std::make_shared<BytecodeProgram>(fn))
{
}

uint16_t
BytecodeEngine::regValue(Vreg r) const
{
    vvsp_assert(r < prog_->numVregs(),
                "regValue of v%u out of range", r);
    return regs_[r];
}

namespace
{

/** Raw view of one MemoryImage buffer for unchecked-index access. */
struct BufSpan
{
    uint16_t *data;
    uint32_t size;
};

} // anonymous namespace

// Threaded dispatch: computed goto keeps one indirect branch per
// handler (better-predicted than a shared switch branch). The switch
// fallback compiles the same handler bodies.
#if defined(__GNUC__) || defined(__clang__)
#define VVSP_BC_THREADED 1
#endif

#if VVSP_BC_THREADED
#define VVSP_BC_CASE(name) lbl_##name
#define VVSP_BC_NEXT() goto *labels[ip->kind]
#else
#define VVSP_BC_CASE(name) case BcKind::k##name
#define VVSP_BC_NEXT() goto dispatch
#endif

/** Shared predicate guard: nullify and fall through to the next op. */
#define VVSP_BC_PRED_GUARD(inst)                                      \
    if ((inst).pred != kNoBcReg &&                                    \
        (regs[(inst).pred] != 0) !=                                   \
            static_cast<bool>((inst).sense)) {                        \
        ++nullified;                                                  \
        ++ip;                                                         \
        VVSP_BC_NEXT();                                               \
    }

Profile
BytecodeEngine::run(MemoryImage &mem)
{
    const BytecodeProgram &p = *prog_;
    Profile profile(p.numNodeIds());

    // Register file: zero the vreg + zero-slot prefix, then preload
    // the constant pool (constants are ordinary read-only slots).
    regs_.assign(p.numRegSlots(), 0);
    std::copy(p.constPool().begin(), p.constPool().end(),
              regs_.begin() + p.constBase());

    const size_t num_loops = p.loops().size();
    loop_iter_.assign(num_loops, 0);
    loop_iv_.assign(num_loops, 0);
    loop_bound_.resize(num_loops);
    loop_panics_.resize(num_loops);
    for (size_t i = 0; i < num_loops; ++i) {
        // Fold the trip-count and max-iteration guards into one
        // bound: a counted loop within the safety limit exits at its
        // trip count; everything else panics at the limit (exactly
        // the tree walker's assert-before-body placement).
        const BcLoopInfo &info = p.loops()[i];
        bool counted_ok =
            info.tripCount >= 0 &&
            static_cast<uint64_t>(info.tripCount) <= max_iters_;
        loop_bound_[i] =
            counted_ok ? static_cast<uint64_t>(info.tripCount)
                       : max_iters_;
        loop_panics_[i] = counted_ok ? 0 : 1;
    }

    vvsp_assert(mem.numBuffers() >= p.numBuffers(),
                "memory image has %zu buffers, program needs %zu",
                mem.numBuffers(), p.numBuffers());
    std::vector<BufSpan> spans(p.numBuffers());
    for (size_t i = 0; i < p.numBuffers(); ++i) {
        auto &words = mem.bufferWords(static_cast<int>(i));
        spans[i] = {words.data(),
                    static_cast<uint32_t>(words.size())};
    }

    uint16_t *const regs = regs_.data();
    const BufSpan *const bufs = spans.data();
    const BcLoopInfo *const loops = p.loops().data();
    uint64_t *const iters = loop_iter_.data();
    uint64_t *const bounds = loop_bound_.data();
    uint16_t *const ivs = loop_iv_.data();
    const uint8_t *const panics = loop_panics_.data();
    uint64_t *const block_exec = profile.blockExec.data();
    uint64_t *const loop_entries = profile.loopEntries.data();
    uint64_t *const loop_iters = profile.loopIters.data();
    uint64_t *const if_then = profile.ifThen.data();
    uint64_t *const if_else = profile.ifElse.data();
    uint64_t dynamic = 0;
    uint64_t nullified = 0;

    const BcInst *const code = p.code().data();
    const BcInst *ip = code;

#if VVSP_BC_THREADED
    static const void *const labels[] = {
#define VVSP_BC_LABEL(name) &&lbl_##name,
        VVSP_BC_ALU_OPS(VVSP_BC_LABEL)
        VVSP_BC_LABEL(Load) VVSP_BC_LABEL(Store)
        VVSP_BC_LABEL(BlockHead) VVSP_BC_LABEL(LoopEnter)
        VVSP_BC_LABEL(LoopHead) VVSP_BC_LABEL(LoopBack)
        VVSP_BC_LABEL(Jump) VVSP_BC_LABEL(IfHead)
        VVSP_BC_LABEL(BreakIf) VVSP_BC_LABEL(Halt)
#undef VVSP_BC_LABEL
    };
    VVSP_BC_NEXT();
#else
dispatch:
    switch (static_cast<BcKind>(ip->kind)) {
#endif

// One handler per ALU opcode: the constant Opcode argument folds the
// alu16::evaluate switch into straight-line code per case.
#define VVSP_BC_ALU_CASE(name)                                        \
    VVSP_BC_CASE(name) : {                                            \
        const BcInst &inst = *ip;                                     \
        VVSP_BC_PRED_GUARD(inst);                                     \
        ++dynamic;                                                    \
        regs[inst.dst] =                                              \
            alu16::evaluate(Opcode::name, regs[inst.a],               \
                            regs[inst.b], regs[inst.c]);              \
        ++ip;                                                         \
        VVSP_BC_NEXT();                                               \
    }
    VVSP_BC_ALU_OPS(VVSP_BC_ALU_CASE)
#undef VVSP_BC_ALU_CASE

    VVSP_BC_CASE(Load) : {
        const BcInst &inst = *ip;
        VVSP_BC_PRED_GUARD(inst);
        ++dynamic;
        const uint32_t addr =
            static_cast<uint16_t>(regs[inst.a] + regs[inst.b]);
        const BufSpan &span = bufs[inst.arg];
        if (addr >= span.size) {
            vvsp_panic("read of word %u beyond buffer %d "
                       "(%u words)",
                       addr, inst.arg, span.size);
        }
        regs[inst.dst] = span.data[addr];
        ++ip;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(Store) : {
        const BcInst &inst = *ip;
        VVSP_BC_PRED_GUARD(inst);
        ++dynamic;
        const uint32_t addr =
            static_cast<uint16_t>(regs[inst.b] + regs[inst.c]);
        const BufSpan &span = bufs[inst.arg];
        if (addr >= span.size) {
            vvsp_panic("write of word %u beyond buffer %d "
                       "(%u words)",
                       addr, inst.arg, span.size);
        }
        span.data[addr] = regs[inst.a];
        ++ip;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(BlockHead) : {
        ++block_exec[ip->arg];
        ++ip;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(LoopEnter) : {
        const uint16_t slot = ip->slot;
        const BcLoopInfo &info = loops[slot];
        ++loop_entries[info.nodeId];
        iters[slot] = 0;
        // Initial induction value is captured once at entry, like
        // the tree walker's iv_base.
        ivs[slot] = regs[info.ivInitIdx];
        ++ip;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(LoopHead) : {
        const uint16_t slot = ip->slot;
        const BcLoopInfo &info = loops[slot];
        if (iters[slot] >= bounds[slot]) {
            if (panics[slot]) {
                vvsp_panic(
                    "dynamic loop '%s' exceeded %llu iterations",
                    info.label.c_str(),
                    static_cast<unsigned long long>(max_iters_));
            }
            ip = code + info.exitPc;
            VVSP_BC_NEXT();
        }
        if (info.ivReg != kNoBcReg)
            regs[info.ivReg] = ivs[slot];
        ++loop_iters[info.nodeId];
        ++ip;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(LoopBack) : {
        const uint16_t slot = ip->slot;
        ++iters[slot];
        ivs[slot] =
            static_cast<uint16_t>(ivs[slot] + loops[slot].step);
        ip = code + loops[slot].headPc;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(Jump) : {
        ip = code + ip->arg;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(IfHead) : {
        const BcInst &inst = *ip;
        if ((regs[inst.a] != 0) == static_cast<bool>(inst.sense)) {
            ++if_then[inst.dst];
            ++ip;
        } else {
            ++if_else[inst.dst];
            ip = code + inst.arg;
        }
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(BreakIf) : {
        const BcInst &inst = *ip;
        if ((regs[inst.a] != 0) == static_cast<bool>(inst.sense))
            ip = code + inst.arg;
        else
            ++ip;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(Halt) : {
        goto done;
    }

#if !VVSP_BC_THREADED
    }
    vvsp_panic("bytecode: bad instruction kind %u", ip->kind);
#endif

done:
    profile.dynamicOps = dynamic;
    profile.nullifiedOps = nullified;
    return profile;
}

#undef VVSP_BC_PRED_GUARD
#undef VVSP_BC_CASE
#undef VVSP_BC_NEXT

namespace
{

/**
 * FNV-1a over the function's semantic content: integers as 8 bytes,
 * little-endian, from the truncated basis (see Fnv1a64).
 */
struct ContentHash
{
    Fnv1a64 f{Fnv1a64::kTruncatedBasis};

    void byte(uint8_t b) { f.byte(b); }
    void u64(uint64_t v) { f.littleEndian(v, 8); }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    void str(const std::string &s)
    {
        u64(s.size());
        f.chars(s);
    }

    void operand(const Operand &o)
    {
        byte(static_cast<uint8_t>(o.kind));
        if (o.isReg())
            u64(o.reg);
        else if (o.isImm())
            i64(o.imm);
    }
};

void
hashList(ContentHash &fnv, const NodeList &list);

void
hashNode(ContentHash &fnv, const Node &node)
{
    fnv.byte(static_cast<uint8_t>(node.kind()));
    fnv.i64(node.id);
    switch (node.kind()) {
      case NodeKind::Block: {
        const auto &block = static_cast<const BlockNode &>(node);
        fnv.u64(block.ops.size());
        for (const Operation &op : block.ops) {
            fnv.byte(static_cast<uint8_t>(op.op));
            fnv.u64(op.dst);
            for (const Operand &src : op.src)
                fnv.operand(src);
            fnv.operand(op.pred);
            fnv.byte(op.predSense ? 1 : 0);
            fnv.i64(op.buffer);
            fnv.i64(op.aliasToken);
            fnv.byte(op.noCarriedAlias ? 1 : 0);
            fnv.i64(op.cluster);
            fnv.i64(op.dstCluster);
        }
        return;
      }
      case NodeKind::Loop: {
        const auto &loop = static_cast<const LoopNode &>(node);
        fnv.i64(loop.tripCount);
        fnv.u64(loop.inductionVar);
        fnv.i64(loop.step);
        fnv.operand(loop.ivInit);
        fnv.u64(loop.boundVreg);
        fnv.byte(loop.isDoAll ? 1 : 0);
        hashList(fnv, loop.body);
        return;
      }
      case NodeKind::If: {
        const auto &iff = static_cast<const IfNode &>(node);
        fnv.operand(iff.cond);
        fnv.byte(iff.sense ? 1 : 0);
        hashList(fnv, iff.thenBody);
        fnv.byte(0xff); // arm separator.
        hashList(fnv, iff.elseBody);
        return;
      }
      case NodeKind::Break: {
        const auto &brk = static_cast<const BreakNode &>(node);
        fnv.operand(brk.cond);
        fnv.byte(brk.sense ? 1 : 0);
        return;
      }
    }
}

void
hashList(ContentHash &fnv, const NodeList &list)
{
    fnv.u64(list.size());
    for (const auto &n : list)
        hashNode(fnv, *n);
}

} // anonymous namespace

uint64_t
functionFingerprint(const Function &fn)
{
    ContentHash fnv;
    fnv.u64(fn.numVregs());
    fnv.i64(fn.numNodeIds());
    fnv.i64(fn.numOpIds());
    fnv.u64(fn.buffers.size());
    for (const MemBuffer &b : fn.buffers) {
        fnv.i64(b.id);
        // Buffer names are semantic: kernel prepare/golden hooks
        // address buffers by name (bufferIdByName).
        fnv.str(b.name);
        fnv.i64(b.sizeWords);
        fnv.i64(b.cluster);
        fnv.i64(b.bank);
        fnv.i64(b.minValue);
        fnv.i64(b.maxValue);
    }
    hashList(fnv, fn.body);
    return fnv.f.value();
}

} // namespace vvsp
