/**
 * @file
 * Cycle-by-cycle resource bookkeeping for the schedulers.
 *
 * Tracks, per cycle: issue-slot occupancy per cluster (with slot
 * capability matching), the machine-wide control slot for branches,
 * crossbar send/receive ports per cluster, and an optional global
 * width-1 constraint used for the paper's sequential baselines
 * ("limited to one operation per instruction"). For modulo
 * scheduling the table wraps modulo the initiation interval.
 *
 * The table is built for reuse on the scheduler hot path: all
 * per-cycle state lives in flat arrays whose strides are fixed once
 * from the MachineModel (no per-row allocation when the backtracking
 * modulo search touches a fresh cycle), the slot-selection policy is
 * precomputed into per-operation-class candidate orders, and reset()
 * rewinds the table for the next scheduling attempt without
 * releasing storage. Schedulers therefore keep one pooled table per
 * instance instead of constructing one per attempt.
 */

#ifndef VVSP_SCHED_RESERVATION_TABLE_HH
#define VVSP_SCHED_RESERVATION_TABLE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/machine_model.hh"

namespace vvsp
{

/** Maps a buffer id to its memory bank (from the function). */
using BankOfFn = std::function<int(int buffer)>;

/** Per-cycle resource reservations. */
class ReservationTable
{
  public:
    /**
     * An operation's reservation needs, resolved once: the candidate
     * slot class (which folds in the op's memory bank), its cluster,
     * and whether it also holds the control slot or a crossbar
     * route. The row API below takes keys, so a caller that places
     * the same ops many times (the modulo scheduler's II attempts)
     * pays for opcode lookups and bank resolution once per op, not
     * once per probe.
     */
    struct OpKey
    {
        enum class Kind : uint8_t
        {
            Slot,   ///< one issue slot of its class.
            Xfer,   ///< a slot plus a send and a receive port.
            Branch, ///< the machine-wide control slot.
        };
        int16_t cls = 0;
        int16_t cluster = 0;
        int16_t dstCluster = 0; ///< Xfer only.
        Kind kind = Kind::Slot;
    };

    /**
     * @param machine the target datapath.
     * @param ii      initiation interval; 0 for acyclic scheduling.
     * @param bank_of resolves memory ops' buffers to banks.
     * @param width1  global one-operation-per-cycle mode.
     */
    ReservationTable(const MachineModel &machine, int ii,
                     BankOfFn bank_of, bool width1 = false);

    /**
     * Rewind every reservation and switch to a new interval/width
     * mode, keeping the allocated storage (the pooled-reuse path).
     */
    void reset(int ii, bool width1 = false);

    /**
     * Try to reserve resources for op at the given cycle; on success
     * records the reservation and returns the chosen slot in
     * *slot_out (-1 for control-slot ops). The op's cluster field
     * selects the cluster; Xfer ops also charge the destination
     * cluster's receive port.
     */
    bool tryReserve(const Operation &op, int cycle, int *slot_out);

    /** tryReserve with the op's key resolved by the caller. */
    bool tryReserve(const OpKey &key, int cycle, int *slot_out);

    /**
     * Modulo tables only (ii > 0): earliest cycle in
     * [estart, estart + ii) where op fits, reserving it there and
     * returning the cycle (slot in *slot_out), or -1 when no modulo
     * row can take it. Exactly equivalent to probing tryReserve at
     * estart, estart+1, ... — each modulo row's availability is read
     * from per-resource row bitmaps, so the scan is a handful of
     * word operations instead of ii slot walks.
     */
    int findFirstFit(const Operation &op, int estart, int *slot_out);

    /** Release a previous reservation (modulo-scheduler eviction). */
    void release(const Operation &op, int cycle, int slot);

    /** The reservation key of an op on this table's machine. */
    OpKey keyOf(const Operation &op) const;

    /**
     * Dense index of a key in [0, keySpace()). Two keys share an
     * index exactly when the table decides them alike (a slot op's
     * dstCluster and a branch's class and cluster are ignored), so a
     * caller can keep per-key facts in a flat array.
     */
    int keyIndex(const OpKey &key) const;
    int keySpace() const;

    /**
     * Row API for modulo tables (ii > 0): the cycle-based calls above
     * with the row (cycle mod ii) and the op key resolved by the
     * caller. reserveRow(k, r) decides exactly as tryReserve(op, c)
     * for any c with c mod ii == r, and releaseRow matches release.
     */
    bool reserveRow(const OpKey &key, int row, int *slot_out);
    void releaseRow(const OpKey &key, int row, int slot);

    /**
     * First row in circular order row0, row0+1, ..., ii-1, 0, ...,
     * row0-1 that can take the op, reserved there (slot in
     * *slot_out); -1 when none can. findFirstFit(op, estart) is this
     * from row0 = estart mod ii, mapped back to a cycle.
     */
    int firstFitRow(const OpKey &key, int row0, int *slot_out);

    /** Number of operations currently reserved at a cycle. */
    int opsAt(int cycle) const;

  private:
    int row(int cycle) const;
    void ensureRows(int rows);
    void resetModuloBits();

    /** Dense id of the op's candidate-slot class (classOrders_). */
    int opClassId(const Operation &op) const;

    const MachineModel &machine_;
    BankOfFn bank_of_;
    int ii_;
    bool width1_;

    int clusters_ = 0;
    int slots_ = 0;  ///< issue slots per cluster.
    int stride_ = 0; ///< clusters * slots.
    int ports_ = 0;  ///< crossbar ports per cluster.

    /**
     * Precomputed slot orders. ALU ops prefer the least-specialized
     * free slot (so alternate-unit slots stay available); alternate
     * units take the first capable slot in index order.
     */
    std::vector<int> aluOrder_;
    std::vector<int> absDiffOrder_;
    std::vector<int> shiftOrder_;
    std::vector<int> multOrder_;
    std::vector<std::vector<int>> memOrder_; ///< by bank.
    std::vector<int> anyBankMemOrder_;       ///< memBank == -2 only.
    std::vector<int> anySlotOrder_;          ///< Xfer & friends.

    /**
     * The candidate-slot lists above, enumerated as dense classes:
     * classOrders_[c] aliases one of the order vectors, and
     * slotClasses_[s] lists every class whose order contains slot s.
     * findFirstFit masks are kept per class, not per slot.
     */
    int numClasses_ = 0;
    std::vector<const std::vector<int> *> classOrders_;
    std::vector<std::vector<int32_t>> slotClasses_;

    /** Flat per-row state; row r occupies [r*stride, (r+1)*stride). */
    std::vector<uint8_t> slotBusy_;  ///< rows x stride.
    std::vector<uint8_t> sends_;     ///< rows x clusters.
    std::vector<uint8_t> receives_;  ///< rows x clusters.
    std::vector<uint8_t> branchBusy_;///< rows.
    std::vector<int32_t> totalOps_;  ///< rows.
    int rows_ = 0;       ///< allocated row capacity.
    int rowsTouched_ = 0;///< high-water mark, bounds reset() work.

    /**
     * Modulo-mode row bitmaps, mirrored by tryReserve()/release()
     * when ii > 0: bit r set means modulo row r cannot supply the
     * resource. findFirstFit() reads the per-class combined mask
     * directly (ORing in crossbar saturation for transfers) instead
     * of probing rows one by one or re-ANDing per-slot maps.
     *
     * classBusyBits_ bit r is set for (class, cluster) exactly when
     * every candidate slot of that class is busy in modulo row r;
     * classFreeCnt_ holds the matching free-slot counts so the bit
     * can be maintained in O(classes-of-slot) on reserve/release.
     */
    int rowWords_ = 0; ///< 64-bit words per bitmap; 0 when ii == 0.
    std::vector<uint64_t> branchBits_;     ///< words.
    std::vector<uint64_t> sendFullBits_;   ///< clusters x words.
    std::vector<uint64_t> recvFullBits_;   ///< clusters x words.
    std::vector<uint64_t> classBusyBits_;  ///< (class,cluster) x words.
    std::vector<uint8_t> classFreeCnt_;    ///< (class,cluster) x ii.
    std::vector<uint64_t> scanScratch_;    ///< Xfer busy-row mask.
};

} // namespace vvsp

#endif // VVSP_SCHED_RESERVATION_TABLE_HH
