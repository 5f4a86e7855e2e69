/**
 * @file
 * The shared FNV-1a accumulator (support/fnv.hh) and the persisted or
 * cache-keying hashes built on it. The ISA ops hash is stored in
 * `.bin` sections and the disk cache's filenames are hashes of their
 * keys, so these values must never move; the vectors below were
 * captured from the implementations that predate the shared
 * accumulator.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/disk_cache.hh"
#include "ir/builder.hh"
#include "isa/encoder.hh"
#include "sim/bytecode.hh"
#include "support/fnv.hh"

namespace vvsp
{
namespace
{

/** A small function touching every node kind, cluster and op field. */
Function
hashFixture()
{
    IRBuilder b("hash_fixture");
    int in = b.buffer("in", 64, 0, 255);
    b.setCluster(1);
    int out = b.buffer("out", 32);
    b.setCluster(0);
    Vreg acc = b.movi(-7);
    LoopNode &loop = b.beginLoop(8, "rows", 2);
    Vreg x = b.load(in, IRBuilder::reg(loop.inductionVar),
                    IRBuilder::imm(3), /*alias_token=*/1,
                    /*no_carried_alias=*/true);
    Vreg c = b.cmpLt(IRBuilder::reg(x), IRBuilder::imm(100));
    b.beginIf(IRBuilder::reg(c));
    b.emitTo(acc, Opcode::Add, IRBuilder::reg(acc), IRBuilder::reg(x));
    b.beginElse();
    b.emitTo(acc, Opcode::Sub, IRBuilder::reg(acc),
             IRBuilder::imm(70000));
    b.endIf();
    b.breakIf(IRBuilder::reg(c), false);
    Operation guarded;
    guarded.op = Opcode::Max;
    guarded.dst = acc;
    guarded.src = {IRBuilder::reg(acc), IRBuilder::imm(-3),
                   Operand::none()};
    guarded.pred = IRBuilder::reg(c);
    guarded.predSense = false;
    b.emitOp(guarded);
    b.endLoop();
    Operation xfer;
    xfer.op = Opcode::Xfer;
    xfer.dst = b.movi(0);
    xfer.src = {IRBuilder::reg(acc), Operand::none(), Operand::none()};
    xfer.dstCluster = 1;
    b.emitOp(xfer);
    b.setCluster(1);
    b.store(out, IRBuilder::reg(xfer.dst), IRBuilder::imm(5));
    return b.finish();
}

/** Every op of a region tree, in tree order. */
void
collectOps(const NodeList &list, std::vector<Operation> &ops)
{
    for (const auto &n : list) {
        switch (n->kind()) {
          case NodeKind::Block: {
            const auto &blk = static_cast<const BlockNode &>(*n);
            ops.insert(ops.end(), blk.ops.begin(), blk.ops.end());
            break;
          }
          case NodeKind::Loop:
            collectOps(static_cast<const LoopNode &>(*n).body, ops);
            break;
          case NodeKind::If: {
            const auto &iff = static_cast<const IfNode &>(*n);
            collectOps(iff.thenBody, ops);
            collectOps(iff.elseBody, ops);
            break;
          }
          case NodeKind::Break:
            break;
        }
    }
}

TEST(FnvVectors, AccumulatorMatchesTheFnv1aDefinition)
{
    // Published FNV-1a 64 vectors.
    Fnv1a64 empty;
    EXPECT_EQ(empty.value(), 0xcbf29ce484222325ull);
    Fnv1a64 a;
    a.chars("a");
    EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cull);
    Fnv1a64 foobar;
    foobar.chars("foobar");
    EXPECT_EQ(foobar.value(), 0x85944171f73967e8ull);

    // Byte orders feed the same bytes, reversed.
    Fnv1a64 big, little, bytes;
    big.bigEndian(0x0102030405060708ull, 8);
    little.littleEndian(0x0807060504030201ull, 8);
    for (uint8_t b = 1; b <= 8; ++b)
        bytes.byte(b);
    EXPECT_EQ(big.value(), bytes.value());
    EXPECT_EQ(little.value(), bytes.value());
    Fnv1a64 low;
    low.bigEndian(0xffff0102u, 2);
    Fnv1a64 two;
    two.byte(1);
    two.byte(2);
    EXPECT_EQ(low.value(), two.value());
}

TEST(FnvVectors, PersistedHashesKeepTheirValues)
{
    Function fn = hashFixture();
    std::vector<Operation> ops;
    collectOps(fn.body, ops);
    ASSERT_EQ(ops.size(), 9u);
    EXPECT_EQ(functionFingerprint(fn), 0xf28ee65d34da9b00ull);
    EXPECT_EQ(isaOpsHash(ops), 0xea0a695a77f09673ull);
    EXPECT_EQ(isaOpsHash({}), 0x4d25767f9dce13f5ull);
    EXPECT_EQ(DiskCache::hashedStem(""), "14650fb0739d0383");
    EXPECT_EQ(DiskCache::hashedStem("Color Conversion|List-scheduled|"
                                    "{\"a\":1}|720x480|4|1|1"),
              "1fdde8de5ecdc101");
}

} // namespace
} // namespace vvsp
