/**
 * @file
 * Local common-subexpression elimination by value numbering within
 * each block. Redundant computations are rewritten into Mov from the
 * first occurrence; copy propagation then dissolves the Movs.
 *
 * The value-number table is keyed on a packed integer form of
 * (opcode, canonicalized operands, alias class) and invalidated
 * lazily through generation stamps: defining a register bumps its
 * generation, and an entry is live only while every register it
 * involves (operands and the holding vreg) is older than the entry.
 * That makes each operation one hashed lookup instead of the
 * historical scan-the-table-per-definition, which was quadratic in
 * block size and dominated lowering on fully-unrolled kernels.
 */

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "xform/passes.hh"

namespace vvsp
{
namespace passes
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

/**
 * Packed operand identity. Two operands pack equal exactly when the
 * historical string keys ("_", "v<reg>", "#<imm mod 2^16>") compared
 * equal; the *order* the packing induces differs from string order,
 * which is harmless - canonicalization of a commutative pair only
 * needs any consistent total order.
 */
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

/** Expressions eligible for value numbering. */
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

/** (buffer, aliasToken) packed injectively; never INT64_MIN. */
int64_t
aliasClass(const Operation &op)
{
    return (static_cast<int64_t>(op.buffer) << 32) |
           static_cast<uint32_t>(op.aliasToken);
}

/** (opcode, canonical operands, alias class) as a flat hash key. */
struct ExprKey
{
    uint32_t op;
    std::array<uint64_t, 3> src;
    int64_t mem; ///< alias class for memory ops; INT64_MIN else.

    bool operator==(const ExprKey &) const = default;
};

uint64_t
mix(uint64_t h, uint64_t v)
{
    h = (h ^ v) * 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 29);
}

struct ExprKeyHash
{
    uint64_t
    operator()(const ExprKey &k) const
    {
        uint64_t h = mix(k.op, k.src[0]);
        h = mix(h, k.src[1]);
        h = mix(h, k.src[2]);
        return mix(h, static_cast<uint64_t>(k.mem));
    }
};

struct AliasHash
{
    uint64_t
    operator()(int64_t k) const
    {
        return mix(0, static_cast<uint64_t>(k));
    }
};

ExprKey
exprKey(const Operation &op)
{
    Operand a = op.src[0], b = op.src[1];
    uint64_t ka = packOperand(a), kb = packOperand(b);
    if (commutative(op.op) && kb < ka)
        std::swap(ka, kb);
    ExprKey key;
    key.op = static_cast<uint32_t>(op.op);
    key.src = {ka, kb, packOperand(op.src[2])};
    key.mem = op.info().isMemory ? aliasClass(op) : INT64_MIN;
    return key;
}

/**
 * Open-addressing hash table with only lookup and insert-or-assign
 * (CSE never iterates or erases). Slots hold an index into a dense
 * entry array, so the probed array stays small. A slot is occupied
 * only while its epoch is the table's, so reset() forgets every
 * entry in O(1) and one table serves every block of a function
 * without reallocating. reset(n) makes at least 2n slots available;
 * at most n insertions follow, so the load factor stays at most 1/2
 * and linear probing always reaches an empty slot.
 */
template <typename Key, typename Value, typename Hash>
class StampedTable
{
  public:
    void
    reset(size_t n)
    {
        size_t want = 16;
        while (want < 2 * n)
            want *= 2;
        if (want > slots_.size()) {
            slots_.assign(want, Slot{});
            epoch_ = 0;
        }
        mask_ = want - 1;
        ++epoch_;
        entries_.clear();
    }

    /** The value stored for k, or null. */
    Value *
    find(const Key &k)
    {
        for (size_t i = Hash{}(k) & mask_;; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.epoch != epoch_)
                return nullptr;
            Entry &e = entries_[s.index];
            if (e.key == k)
                return &e.value;
        }
    }

    void
    put(const Key &k, const Value &v)
    {
        for (size_t i = Hash{}(k) & mask_;; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.epoch != epoch_) {
                s = Slot{epoch_, static_cast<uint32_t>(entries_.size())};
                entries_.push_back(Entry{k, v});
                return;
            }
            Entry &e = entries_[s.index];
            if (e.key == k) {
                e.value = v;
                return;
            }
        }
    }

  private:
    struct Slot
    {
        uint32_t epoch = 0;
        uint32_t index = 0;
    };
    struct Entry
    {
        Key key;
        Value value;
    };
    std::vector<Slot> slots_;
    std::vector<Entry> entries_;
    size_t mask_ = 0;
    uint32_t epoch_ = 0;
};

/**
 * Value numbering over every block of one function. The tables are
 * cleared per block; the generation stamps are not, because `tick_`
 * runs on across blocks: a generation left over from an earlier block
 * is older than every entry of the current one, exactly like the
 * never-defined generation 0.
 */
class BlockCse
{
  public:
    explicit BlockCse(const Function &fn)
        : regGen_(fn.numVregs(), 0)
    {
    }

    /** Value-number one block; true if any op was rewritten. */
    bool run(BlockNode &block);

  private:
    // expression key -> (holding vreg, insertion stamp).
    struct Entry
    {
        Vreg value;
        uint32_t stamp;
    };

    uint32_t
    genOf(Vreg r) const
    {
        return r < regGen_.size() ? regGen_[r] : 0;
    }

    void
    invalidateReg(Vreg r)
    {
        if (r >= regGen_.size())
            regGen_.resize(static_cast<size_t>(r) + 1, 0);
        regGen_[r] = ++tick_;
    }

    bool live(const ExprKey &key, const Entry &e);

    // Generation stamps. regGen_[r] is the tick at which r was last
    // (re)defined; storeGen_[(buffer, token)] the tick of the last
    // store into that alias class. An entry is live iff it was
    // inserted after every such event it depends on - precisely the
    // set the historical eager table scan erased on.
    uint32_t tick_ = 0;
    std::vector<uint32_t> regGen_;
    StampedTable<ExprKey, Entry, ExprKeyHash> table_;
    StampedTable<int64_t, uint32_t, AliasHash> storeGen_;
};

bool
BlockCse::live(const ExprKey &key, const Entry &e)
{
    if (genOf(e.value) > e.stamp)
        return false;
    for (uint64_t s : key.src) {
        if ((s >> 32) == 1 &&
            genOf(static_cast<Vreg>(s & 0xffffffffu)) > e.stamp) {
            return false;
        }
    }
    if (key.mem >= 0) {
        const uint32_t *gen = storeGen_.find(key.mem);
        if (gen != nullptr && *gen > e.stamp)
            return false;
    }
    return true;
}

bool
BlockCse::run(BlockNode &block)
{
    // Size the tables for the insertions this block can make.
    size_t inserts = 0, stores = 0;
    for (const auto &op : block.ops) {
        stores += op.op == Opcode::Store;
        inserts += eligible(op) && !op.isPredicated();
    }
    table_.reset(inserts);
    storeGen_.reset(stores);
    bool changed = false;
    for (auto &op : block.ops) {
        if (op.op == Opcode::Store) {
            // Kill loads that may alias this store.
            storeGen_.put(aliasClass(op), ++tick_);
            continue;
        }
        if (!eligible(op)) {
            if (op.info().hasDst && op.dst != kNoVreg)
                invalidateReg(op.dst);
            continue;
        }

        ExprKey key = exprKey(op);
        const Entry *e = table_.find(key);
        if (e != nullptr && !live(key, *e))
            e = nullptr; // stale: the scan would have erased it.
        if (e != nullptr && e->value != op.dst) {
            Vreg value = e->value;
            op.op = Opcode::Mov;
            op.src = {Operand::ofReg(value), Operand::none(),
                      Operand::none()};
            op.buffer = -1;
            invalidateReg(op.dst);
            changed = true;
            continue;
        }

        invalidateReg(op.dst);
        if (!op.isPredicated())
            table_.put(key, Entry{op.dst, tick_});
    }
    return changed;
}

} // anonymous namespace

bool
localCse(Function &fn)
{
    BlockCse cse(fn);
    bool changed = false;
    forEachBlock(fn, [&](BlockNode &block) { changed |= cse.run(block); });
    return changed;
}

} // namespace passes
} // namespace vvsp
