#include "sched/reservation_table.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sched/simd_bits.hh"
#include "support/logging.hh"

namespace vvsp
{

namespace
{

/** Alternate units on a slot; ALU ops avoid specialized slots. */
int
specialization(const SlotCaps &caps)
{
    return (caps.mult ? 1 : 0) + (caps.shift ? 1 : 0) +
           (caps.memBank != -1 ? 1 : 0);
}

} // anonymous namespace

ReservationTable::ReservationTable(const MachineModel &machine, int ii,
                                   BankOfFn bank_of, bool width1)
    : machine_(machine), bank_of_(std::move(bank_of)), ii_(ii),
      width1_(width1)
{
    clusters_ = machine_.clusters();
    slots_ = machine_.slotsPerCluster();
    stride_ = clusters_ * slots_;
    ports_ = machine_.crossbarPortsPerCluster();

    const auto &caps = machine_.slotCaps();
    // ALU selection: least-specialized free slot, ties by index -
    // walking a (specialization, index)-sorted list and taking the
    // first free slot reproduces the historical scan exactly.
    for (int s = 0; s < slots_; ++s) {
        const SlotCaps &c = caps[static_cast<size_t>(s)];
        if (c.alu)
            aluOrder_.push_back(s);
        if (c.absDiff)
            absDiffOrder_.push_back(s);
        if (c.shift)
            shiftOrder_.push_back(s);
        if (c.mult)
            multOrder_.push_back(s);
        anySlotOrder_.push_back(s);
    }
    auto by_specialization = [&caps](int a, int b) {
        int sa = specialization(caps[static_cast<size_t>(a)]);
        int sb = specialization(caps[static_cast<size_t>(b)]);
        if (sa != sb)
            return sa < sb;
        return a < b;
    };
    std::sort(aluOrder_.begin(), aluOrder_.end(), by_specialization);
    std::sort(absDiffOrder_.begin(), absDiffOrder_.end(),
              by_specialization);

    memOrder_.resize(static_cast<size_t>(
        std::max(1, machine_.memBanks())));
    for (size_t bank = 0; bank < memOrder_.size(); ++bank) {
        for (int s = 0; s < slots_; ++s) {
            int mb = caps[static_cast<size_t>(s)].memBank;
            if (mb == -2 || mb == static_cast<int>(bank))
                memOrder_[bank].push_back(s);
        }
    }
    for (int s = 0; s < slots_; ++s) {
        if (caps[static_cast<size_t>(s)].memBank == -2)
            anyBankMemOrder_.push_back(s);
    }

    // Enumerate the candidate-slot classes; ids must match
    // opClassId(). The aliased vectors are never resized after this
    // point, so the pointers stay valid for the table's lifetime.
    classOrders_ = {&aluOrder_, &absDiffOrder_, &shiftOrder_,
                    &multOrder_};
    for (const auto &bank_order : memOrder_)
        classOrders_.push_back(&bank_order);
    classOrders_.push_back(&anyBankMemOrder_);
    classOrders_.push_back(&anySlotOrder_);
    numClasses_ = static_cast<int>(classOrders_.size());
    slotClasses_.resize(static_cast<size_t>(slots_));
    for (int c = 0; c < numClasses_; ++c) {
        for (int s : *classOrders_[static_cast<size_t>(c)])
            slotClasses_[static_cast<size_t>(s)].push_back(c);
    }

    // Size the flat state once; acyclic tables grow geometrically.
    int initial_rows = ii_ > 0 ? ii_ : 64;
    ensureRows(initial_rows);
    if (ii_ > 0)
        rowsTouched_ = ii_;
    resetModuloBits();
}

void
ReservationTable::resetModuloBits()
{
    if (ii_ <= 0) {
        rowWords_ = 0;
        return;
    }
    rowWords_ = (ii_ + 63) / 64;
    size_t words = static_cast<size_t>(rowWords_);
    branchBits_.assign(words, 0);
    sendFullBits_.assign(static_cast<size_t>(clusters_) * words, 0);
    recvFullBits_.assign(static_cast<size_t>(clusters_) * words, 0);
    classBusyBits_.assign(static_cast<size_t>(numClasses_) *
                              static_cast<size_t>(clusters_) * words,
                          0);
    classFreeCnt_.assign(static_cast<size_t>(numClasses_) *
                             static_cast<size_t>(clusters_) *
                             static_cast<size_t>(ii_),
                         0);
    for (int c = 0; c < numClasses_; ++c) {
        size_t class_size = classOrders_[static_cast<size_t>(c)]->size();
        if (class_size == 0) {
            // No candidate slots: every row is permanently blocked
            // (rows past ii are masked off by the scan tail anyway).
            std::fill(classBusyBits_.begin() +
                          static_cast<ptrdiff_t>(
                              static_cast<size_t>(c) *
                              static_cast<size_t>(clusters_) * words),
                      classBusyBits_.begin() +
                          static_cast<ptrdiff_t>(
                              static_cast<size_t>(c + 1) *
                              static_cast<size_t>(clusters_) * words),
                      ~uint64_t{0});
            continue;
        }
        size_t base = static_cast<size_t>(c) *
                      static_cast<size_t>(clusters_) *
                      static_cast<size_t>(ii_);
        std::fill(classFreeCnt_.begin() + static_cast<ptrdiff_t>(base),
                  classFreeCnt_.begin() +
                      static_cast<ptrdiff_t>(
                          base + static_cast<size_t>(clusters_) *
                                     static_cast<size_t>(ii_)),
                  static_cast<uint8_t>(class_size));
    }
    scanScratch_.resize(words);
}

void
ReservationTable::reset(int ii, bool width1)
{
    ii_ = ii;
    width1_ = width1;
    if (rowsTouched_ > 0) {
        size_t r = static_cast<size_t>(rowsTouched_);
        std::memset(slotBusy_.data(), 0,
                    r * static_cast<size_t>(stride_));
        std::memset(sends_.data(), 0,
                    r * static_cast<size_t>(clusters_));
        std::memset(receives_.data(), 0,
                    r * static_cast<size_t>(clusters_));
        std::memset(branchBusy_.data(), 0, r);
        std::memset(totalOps_.data(), 0, r * sizeof(int32_t));
    }
    rowsTouched_ = 0;
    if (ii_ > 0) {
        // Every modulo row is live from the start, so the row API
        // keeps no per-reservation high-water mark.
        ensureRows(ii_);
        rowsTouched_ = ii_;
    }
    resetModuloBits();
}

void
ReservationTable::ensureRows(int rows)
{
    if (rows <= rows_)
        return;
    int grown = std::max({rows, 2 * rows_, 64});
    slotBusy_.resize(static_cast<size_t>(grown) *
                         static_cast<size_t>(stride_),
                     0);
    sends_.resize(static_cast<size_t>(grown) *
                      static_cast<size_t>(clusters_),
                  0);
    receives_.resize(static_cast<size_t>(grown) *
                         static_cast<size_t>(clusters_),
                     0);
    branchBusy_.resize(static_cast<size_t>(grown), 0);
    totalOps_.resize(static_cast<size_t>(grown), 0);
    rows_ = grown;
}

int
ReservationTable::row(int cycle) const
{
    vvsp_assert(cycle >= 0, "negative cycle %d", cycle);
    return ii_ > 0 ? cycle % ii_ : cycle;
}

int
ReservationTable::opClassId(const Operation &op) const
{
    const int banks = static_cast<int>(memOrder_.size());
    switch (op.info().fuClass) {
      case FuClass::Alu:
        return op.op == Opcode::AbsDiff ? 1 : 0;
      case FuClass::Shift:
        return 2;
      case FuClass::Mult:
        return 3;
      case FuClass::Mem: {
        int bank = bank_of_ ? bank_of_(op.buffer) : 0;
        // Out-of-range banks are served only by any-bank LSU slots.
        if (bank < 0 || bank >= banks)
            return 4 + banks;
        return 4 + bank;
      }
      case FuClass::Xbar:
      case FuClass::Branch:
      case FuClass::None:
        break; // any slot can push to its port.
    }
    return numClasses_ - 1; // anySlotOrder_.
}

ReservationTable::OpKey
ReservationTable::keyOf(const Operation &op) const
{
    vvsp_assert(op.cluster >= 0 && op.cluster < clusters_,
                "op on cluster %d of %d", op.cluster, clusters_);
    OpKey key;
    key.cls = static_cast<int16_t>(opClassId(op));
    key.cluster = static_cast<int16_t>(op.cluster);
    key.dstCluster = static_cast<int16_t>(op.dstCluster);
    key.kind = op.info().isBranch     ? OpKey::Kind::Branch
               : op.op == Opcode::Xfer ? OpKey::Kind::Xfer
                                       : OpKey::Kind::Slot;
    return key;
}

bool
ReservationTable::tryReserve(const Operation &op, int cycle,
                             int *slot_out)
{
    int r = row(cycle);
    ensureRows(r + 1);
    rowsTouched_ = std::max(rowsTouched_, r + 1);
    return reserveRow(keyOf(op), r, slot_out);
}

bool
ReservationTable::reserveRow(const OpKey &key, int r, int *slot_out)
{
    vvsp_assert(static_cast<unsigned>(r) <
                    static_cast<unsigned>(rowsTouched_),
                "reserve in row %d of %d", r, rowsTouched_);
    int32_t &total = totalOps_[static_cast<size_t>(r)];
    if (width1_ && total >= 1)
        return false;

    if (key.kind == OpKey::Kind::Branch) {
        uint8_t &busy = branchBusy_[static_cast<size_t>(r)];
        if (busy)
            return false;
        busy = 1;
        total++;
        if (rowWords_ > 0)
            branchBits_[static_cast<size_t>(r) / 64] |=
                uint64_t{1} << (r % 64);
        *slot_out = -1;
        return true;
    }

    const size_t cluster = static_cast<size_t>(key.cluster);
    const size_t dst = static_cast<size_t>(key.dstCluster);
    const bool xfer = key.kind == OpKey::Kind::Xfer;
    uint8_t *send_row =
        sends_.data() + static_cast<size_t>(r) *
                            static_cast<size_t>(clusters_);
    uint8_t *recv_row =
        receives_.data() + static_cast<size_t>(r) *
                               static_cast<size_t>(clusters_);
    if (xfer) {
        if (send_row[cluster] >= ports_)
            return false;
        if (recv_row[dst] >= ports_)
            return false;
    }

    uint8_t *busy_row =
        slotBusy_.data() + static_cast<size_t>(r) *
                               static_cast<size_t>(stride_) +
        cluster * static_cast<size_t>(slots_);
    int chosen = -1;
    for (int s : *classOrders_[static_cast<size_t>(key.cls)]) {
        if (!busy_row[static_cast<size_t>(s)]) {
            chosen = s;
            break;
        }
    }
    if (chosen < 0)
        return false;

    busy_row[static_cast<size_t>(chosen)] = 1;
    total++;
    if (xfer) {
        send_row[cluster]++;
        recv_row[dst]++;
    }
    if (rowWords_ > 0) {
        uint64_t bit = uint64_t{1} << (r % 64);
        size_t w = static_cast<size_t>(r) / 64;
        size_t words = static_cast<size_t>(rowWords_);
        for (int32_t c : slotClasses_[static_cast<size_t>(chosen)]) {
            size_t cc = static_cast<size_t>(c) *
                            static_cast<size_t>(clusters_) +
                        cluster;
            uint8_t &cnt = classFreeCnt_[cc * static_cast<size_t>(ii_) +
                                         static_cast<size_t>(r)];
            if (--cnt == 0)
                classBusyBits_[cc * words + w] |= bit;
        }
        if (xfer) {
            if (send_row[cluster] >= ports_)
                sendFullBits_[cluster * words + w] |= bit;
            if (recv_row[dst] >= ports_)
                recvFullBits_[dst * words + w] |= bit;
        }
    }
    *slot_out = chosen;
    return true;
}

int
ReservationTable::findFirstFit(const Operation &op, int estart,
                               int *slot_out)
{
    vvsp_assert(ii_ > 0 && rowWords_ > 0,
                "findFirstFit needs a modulo table");
    vvsp_assert(estart >= 0, "negative estart %d", estart);
    // Probing cycles t = estart, estart+1, ... visits rows circularly
    // from estart's row, which is the order firstFitRow scans.
    const int r0 = row(estart);
    int r = firstFitRow(keyOf(op), r0, slot_out);
    if (r < 0)
        return -1;
    return estart + (r >= r0 ? r - r0 : r - r0 + ii_);
}

int
ReservationTable::firstFitRow(const OpKey &key, int r0, int *slot_out)
{
    vvsp_assert(ii_ > 0 && rowWords_ > 0,
                "firstFitRow needs a modulo table");
    vvsp_assert(r0 >= 0 && r0 < ii_, "start row %d of %d", r0, ii_);
    if (width1_) {
        // width-1 gating is per-row op totals, not tracked in the
        // bitmaps; keep the exact probing scan for this rare mode.
        for (int k = 0; k < ii_; ++k) {
            int r = r0 + k < ii_ ? r0 + k : r0 + k - ii_;
            if (reserveRow(key, r, slot_out))
                return r;
        }
        return -1;
    }

    // Bitmap of modulo rows that cannot take the op: the
    // incrementally maintained per-class mask (all candidate slots
    // busy), plus for transfers the rows where either crossbar side
    // is saturated. Bits past ii in the last word are never read:
    // the scan below stops at row ii.
    const size_t words = static_cast<size_t>(rowWords_);
    const uint64_t *busy;
    if (key.kind == OpKey::Kind::Branch) {
        busy = branchBits_.data();
    } else {
        const size_t cluster = static_cast<size_t>(key.cluster);
        const uint64_t *cls =
            classBusyBits_.data() +
            (static_cast<size_t>(key.cls) *
                 static_cast<size_t>(clusters_) +
             cluster) *
                words;
        if (key.kind == OpKey::Kind::Xfer) {
            const uint64_t *snd = sendFullBits_.data() + cluster * words;
            const uint64_t *rcv =
                recvFullBits_.data() +
                static_cast<size_t>(key.dstCluster) * words;
            simdbits::or3(scanScratch_.data(), cls, snd, rcv, words);
            busy = scanScratch_.data();
        } else {
            busy = cls;
        }
    }

    auto first_free = [busy](int lo, int hi) -> int { // rows [lo, hi).
        for (int w = lo / 64; w <= (hi - 1) / 64; ++w) {
            uint64_t free = ~busy[w];
            if (w == lo / 64 && lo % 64)
                free &= ~uint64_t{0} << (lo % 64);
            int end = hi - w * 64;
            if (end < 64)
                free &= (uint64_t{1} << end) - 1;
            if (free)
                return w * 64 + std::countr_zero(free);
        }
        return -1;
    };
    int r = first_free(r0, ii_);
    if (r < 0 && r0 > 0)
        r = first_free(0, r0);
    if (r < 0)
        return -1;
    bool ok = reserveRow(key, r, slot_out);
    vvsp_assert(ok, "free row %d rejected op, ii=%d", r, ii_);
    return r;
}

void
ReservationTable::release(const Operation &op, int cycle, int slot)
{
    releaseRow(keyOf(op), row(cycle), slot);
}

void
ReservationTable::releaseRow(const OpKey &key, int r, int slot)
{
    vvsp_assert(static_cast<unsigned>(r) <
                    static_cast<unsigned>(rowsTouched_),
                "release of untouched row %d", r);
    totalOps_[static_cast<size_t>(r)]--;
    uint64_t bit = uint64_t{1} << (r % 64);
    size_t w = static_cast<size_t>(r) / 64;
    size_t words = static_cast<size_t>(rowWords_);
    if (key.kind == OpKey::Kind::Branch) {
        branchBusy_[static_cast<size_t>(r)] = 0;
        if (rowWords_ > 0)
            branchBits_[w] &= ~bit;
        return;
    }
    const size_t cluster = static_cast<size_t>(key.cluster);
    slotBusy_[static_cast<size_t>(r) * static_cast<size_t>(stride_) +
              cluster * static_cast<size_t>(slots_) +
              static_cast<size_t>(slot)] = 0;
    if (rowWords_ > 0) {
        for (int32_t c : slotClasses_[static_cast<size_t>(slot)]) {
            size_t cc = static_cast<size_t>(c) *
                            static_cast<size_t>(clusters_) +
                        cluster;
            uint8_t &cnt = classFreeCnt_[cc * static_cast<size_t>(ii_) +
                                         static_cast<size_t>(r)];
            if (cnt++ == 0)
                classBusyBits_[cc * words + w] &= ~bit;
        }
    }
    if (key.kind == OpKey::Kind::Xfer) {
        const size_t dst = static_cast<size_t>(key.dstCluster);
        sends_[static_cast<size_t>(r) * static_cast<size_t>(clusters_) +
               cluster]--;
        receives_[static_cast<size_t>(r) *
                      static_cast<size_t>(clusters_) +
                  dst]--;
        // The decrement leaves the count below ports_, so the
        // saturation bits always clear.
        if (rowWords_ > 0) {
            sendFullBits_[cluster * words + w] &= ~bit;
            recvFullBits_[dst * words + w] &= ~bit;
        }
    }
}

int
ReservationTable::opsAt(int cycle) const
{
    int r = row(cycle);
    if (r >= rowsTouched_)
        return 0;
    return totalOps_[static_cast<size_t>(r)];
}

} // namespace vvsp
