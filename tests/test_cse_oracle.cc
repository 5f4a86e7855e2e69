/**
 * @file
 * CseOracle: local CSE against a reference kept here as its
 * specification, the ordered-map value numbering with per-block
 * tables and per-block generation stamps. The hashed, pooled pass
 * must rewrite every op of seeded random functions exactly as the
 * reference does, and report a change exactly when the reference
 * rewrote something. The functions mix stores and loads over several
 * alias classes, predicated ops, commutative ops with swapped and
 * wrapped-immediate operands, and heavy register redefinition, spread
 * over several blocks (one of them nested in an If) so stale table
 * and generation state from an earlier block would show.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/function.hh"
#include "support/random.hh"
#include "xform/passes.hh"

namespace vvsp
{
namespace
{

bool
commutative(Opcode op)
{
    switch (op) {
      case Opcode::Add:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Min:
      case Opcode::Max:
      case Opcode::CmpEq:
      case Opcode::CmpNe:
      case Opcode::AbsDiff:
      case Opcode::Mul8:
      case Opcode::MulUU8:
      case Opcode::Mul16Lo:
      case Opcode::Mul16Hi:
        return true;
      default:
        return false;
    }
}

uint64_t
packOperand(const Operand &o)
{
    switch (o.kind) {
      case Operand::Kind::None:
        return 0;
      case Operand::Kind::Reg:
        return (uint64_t{1} << 32) | o.reg;
      case Operand::Kind::Imm:
        return (uint64_t{2} << 32) | static_cast<uint16_t>(o.imm);
    }
    return uint64_t{3} << 32;
}

bool
eligible(const Operation &op)
{
    const OpcodeInfo &inf = op.info();
    if (!inf.hasDst || inf.isBranch)
        return false;
    if (op.op == Opcode::Store || op.op == Opcode::Xfer ||
        op.op == Opcode::Nop || op.op == Opcode::Mov) {
        return false;
    }
    return true;
}

int64_t
aliasClass(const Operation &op)
{
    return (static_cast<int64_t>(op.buffer) << 32) |
           static_cast<uint32_t>(op.aliasToken);
}

struct ExprKey
{
    uint32_t op;
    std::array<uint64_t, 3> src;
    int64_t mem;

    bool
    operator<(const ExprKey &o) const
    {
        if (op != o.op)
            return op < o.op;
        if (src != o.src)
            return src < o.src;
        return mem < o.mem;
    }
};

ExprKey
exprKey(const Operation &op)
{
    uint64_t ka = packOperand(op.src[0]), kb = packOperand(op.src[1]);
    if (commutative(op.op) && kb < ka)
        std::swap(ka, kb);
    ExprKey key;
    key.op = static_cast<uint32_t>(op.op);
    key.src = {ka, kb, packOperand(op.src[2])};
    key.mem = op.info().isMemory ? aliasClass(op) : INT64_MIN;
    return key;
}

/** The reference: std::map tables, rebuilt for every block. */
bool
oracleCseBlock(BlockNode &block)
{
    struct Entry
    {
        Vreg value;
        uint32_t stamp;
    };
    std::map<ExprKey, Entry> table;
    uint32_t tick = 0;
    std::vector<uint32_t> reg_gen;
    std::map<int64_t, uint32_t> store_gen;
    auto gen_of = [&reg_gen](Vreg r) -> uint32_t {
        return r < reg_gen.size() ? reg_gen[r] : 0;
    };
    auto invalidate_reg = [&reg_gen, &tick](Vreg r) {
        if (r >= reg_gen.size())
            reg_gen.resize(static_cast<size_t>(r) + 1, 0);
        reg_gen[r] = ++tick;
    };
    auto live = [&](const ExprKey &key, const Entry &e) {
        if (gen_of(e.value) > e.stamp)
            return false;
        for (uint64_t s : key.src) {
            if ((s >> 32) == 1 &&
                gen_of(static_cast<Vreg>(s & 0xffffffffu)) > e.stamp) {
                return false;
            }
        }
        if (key.mem >= 0) {
            auto it = store_gen.find(key.mem);
            if (it != store_gen.end() && it->second > e.stamp)
                return false;
        }
        return true;
    };

    bool changed = false;
    for (auto &op : block.ops) {
        if (op.op == Opcode::Store) {
            store_gen[aliasClass(op)] = ++tick;
            continue;
        }
        if (!eligible(op)) {
            if (op.info().hasDst && op.dst != kNoVreg)
                invalidate_reg(op.dst);
            continue;
        }
        ExprKey key = exprKey(op);
        auto it = table.find(key);
        if (it != table.end() && !live(key, it->second))
            it = table.end();
        if (it != table.end() && it->second.value != op.dst) {
            Vreg value = it->second.value;
            op.op = Opcode::Mov;
            op.src = {Operand::ofReg(value), Operand::none(),
                      Operand::none()};
            op.buffer = -1;
            invalidate_reg(op.dst);
            changed = true;
            continue;
        }
        invalidate_reg(op.dst);
        if (!op.isPredicated())
            table[key] = Entry{op.dst, tick};
    }
    return changed;
}

/** A random block: few registers, so operands are redefined often. */
std::unique_ptr<BlockNode>
randomBlock(Rng &rng, int regs)
{
    auto pick = [&rng](int k) {
        return static_cast<int>(rng.next() % static_cast<uint64_t>(k));
    };
    auto reg = [&] { return Operand::ofReg(static_cast<Vreg>(pick(regs))); };
    // Immediates 3 and 65539 pack equal (mod 2^16), as do -1 and 65535.
    const int32_t imms[] = {0, 1, 3, 65539, -1, 65535};
    auto src = [&] {
        return pick(3) == 0 ? Operand::ofImm(imms[pick(6)]) : reg();
    };
    const Opcode alu[] = {Opcode::Add,   Opcode::Sub,   Opcode::And,
                          Opcode::Xor,   Opcode::Min,   Opcode::CmpEq,
                          Opcode::CmpLt, Opcode::Mul8,  Opcode::MulU8,
                          Opcode::Shl,   Opcode::AbsDiff};
    auto block = std::make_unique<BlockNode>();
    const int n = 1 + pick(80);
    for (int i = 0; i < n; ++i) {
        Operation op;
        op.dst = static_cast<Vreg>(pick(regs));
        switch (pick(12)) {
          case 0:
            op.op = Opcode::Load;
            op.src = {src(), src(), Operand::none()};
            op.buffer = pick(3);
            op.aliasToken = pick(2);
            break;
          case 1:
            op.op = Opcode::Store;
            op.dst = kNoVreg;
            op.src = {reg(), src(), src()};
            op.buffer = pick(3);
            op.aliasToken = pick(2);
            break;
          case 2:
            op.op = Opcode::Mov;
            op.src = {src(), Operand::none(), Operand::none()};
            break;
          case 3:
            op.op = Opcode::Select;
            op.src = {reg(), src(), src()};
            break;
          case 4:
            op.op = Opcode::Neg;
            op.src = {reg(), Operand::none(), Operand::none()};
            break;
          case 5:
            op.op = pick(2) ? Opcode::Xfer : Opcode::Nop;
            if (op.op == Opcode::Xfer)
                op.src = {reg(), Operand::none(), Operand::none()};
            else
                op.dst = kNoVreg;
            break;
          default:
            op.op = alu[pick(11)];
            op.src = {src(), src(), Operand::none()};
            break;
        }
        if (op.op != Opcode::Nop && pick(6) == 0) {
            op.pred = reg();
            op.predSense = pick(2) == 0;
        }
        op.id = i;
        block->ops.push_back(op);
    }
    return block;
}

/** Several blocks, one inside an If, and a loose vreg counter. */
Function
randomFunction(Rng &rng)
{
    auto pick = [&rng](int k) {
        return static_cast<int>(rng.next() % static_cast<uint64_t>(k));
    };
    Function fn;
    fn.name = "cse";
    const int regs = 2 + pick(14);
    // Sometimes the counter covers every register, sometimes none:
    // the pass must size its generation table either way.
    if (pick(2)) {
        for (int r = 0; r < regs; ++r)
            fn.newVreg();
    }
    const int blocks = 1 + pick(4);
    for (int b = 0; b < blocks; ++b)
        fn.body.push_back(randomBlock(rng, regs));
    if (pick(2)) {
        auto iff = std::make_unique<IfNode>();
        iff->cond = Operand::ofReg(0);
        iff->thenBody.push_back(randomBlock(rng, regs));
        fn.body.insert(fn.body.begin() + pick(blocks + 1), std::move(iff));
    }
    return fn;
}

void
expectSameOps(const Function &want, const Function &got,
              const std::string &what)
{
    std::vector<const Operation *> a, b;
    forEachNode(want.body, [&a](const Node &n) {
        if (n.kind() == NodeKind::Block) {
            for (const auto &op : static_cast<const BlockNode &>(n).ops)
                a.push_back(&op);
        }
    });
    forEachNode(got.body, [&b](const Node &n) {
        if (n.kind() == NodeKind::Block) {
            for (const auto &op : static_cast<const BlockNode &>(n).ops)
                b.push_back(&op);
        }
    });
    ASSERT_EQ(a.size(), b.size()) << what;
    auto same = [](const Operand &x, const Operand &y) {
        return x.kind == y.kind && x.reg == y.reg && x.imm == y.imm;
    };
    for (size_t i = 0; i < a.size(); ++i) {
        const Operation &x = *a[i], &y = *b[i];
        std::string at = what + ", op " + std::to_string(i) + ": " +
                         x.str() + " vs " + y.str();
        ASSERT_EQ(x.op, y.op) << at;
        ASSERT_EQ(x.dst, y.dst) << at;
        for (size_t s = 0; s < 3; ++s)
            ASSERT_TRUE(same(x.src[s], y.src[s])) << at;
        ASSERT_TRUE(same(x.pred, y.pred)) << at;
        ASSERT_EQ(x.predSense, y.predSense) << at;
        ASSERT_EQ(x.buffer, y.buffer) << at;
        ASSERT_EQ(x.aliasToken, y.aliasToken) << at;
        ASSERT_EQ(x.id, y.id) << at;
    }
}

TEST(CseOracle, RandomFunctionsMatchTheMapReference)
{
    Rng rng(20261018);
    int rewritten = 0;
    for (int f = 0; f < 400; ++f) {
        Function fn = randomFunction(rng);
        Function want = fn.clone();
        bool want_changed = false;
        passes::forEachBlock(want, [&want_changed](BlockNode &block) {
            want_changed |= oracleCseBlock(block);
        });
        bool got_changed = passes::localCse(fn);
        const std::string what = "function " + std::to_string(f);
        EXPECT_EQ(want_changed, got_changed) << what;
        expectSameOps(want, fn, what);
        if (::testing::Test::HasFatalFailure())
            return;
        rewritten += want_changed;
    }
    // The mix must actually exercise rewriting, and not everywhere.
    EXPECT_GT(rewritten, 100);
    EXPECT_LT(rewritten, 400);
}

TEST(CseOracle, OneLargeBlock)
{
    // A block large enough to grow the hashed table well past its
    // initial size, followed by a small one that reuses it.
    Rng rng(99);
    Function fn;
    for (int b = 0; b < 40; ++b)
        fn.body.push_back(randomBlock(rng, 40));
    auto *first = static_cast<BlockNode *>(fn.body[0].get());
    for (int b = 1; b < 40; ++b) {
        auto &ops = static_cast<BlockNode &>(*fn.body[b]).ops;
        first->ops.insert(first->ops.end(), ops.begin(), ops.end());
    }
    fn.body.resize(2);
    Function want = fn.clone();
    passes::forEachBlock(want, [](BlockNode &block) {
        oracleCseBlock(block);
    });
    passes::localCse(fn);
    expectSameOps(want, fn, "large block");
}

} // namespace
} // namespace vvsp
