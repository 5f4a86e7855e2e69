/**
 * @file
 * Data-dependence graph over the operations of one block.
 *
 * Built for both acyclic (list) scheduling and modulo scheduling:
 * every edge carries a latency and an iteration distance (0 for
 * intra-iteration, >= 1 for loop-carried). Register dependences are
 * exact; memory dependences are conservative within a
 * (buffer, aliasToken) class, with kernel-declared streaming
 * accesses (noCarriedAlias) exempt from loop-carried edges.
 *
 * The graph is stored structure-of-arrays for the scheduler hot
 * path: adjacency is compressed-sparse-row (one flat edge-index
 * array per direction plus per-op offsets), operation latencies are
 * computed once per op instead of once per edge, and a graph object
 * can be rebuilt in place (`build()`), reusing every internal buffer
 * so a sweep's thousands of graph constructions do near-zero heap
 * churn.
 */

#ifndef VVSP_IR_DEPENDENCE_GRAPH_HH
#define VVSP_IR_DEPENDENCE_GRAPH_HH

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/operation.hh"

namespace vvsp
{

/** Dependence kinds. */
enum class DepKind : uint8_t
{
    True,   ///< read after write.
    Anti,   ///< write after read.
    Output, ///< write after write.
    Memory, ///< ordering between memory operations.
};

/** One dependence edge between operation indices within a block. */
struct DepEdge
{
    int from = -1;
    int to = -1;
    int latency = 0;  ///< min cycles from issue(from) to issue(to).
    int distance = 0; ///< iteration distance (modulo scheduling).
    DepKind kind = DepKind::True;
};

/** Returns the result latency of an operation on the target machine. */
using LatencyFn = std::function<int(const Operation &)>;

/**
 * Contiguous run of edge indices (one op's CSR adjacency row).
 * Iterates like the std::vector<int> it replaced.
 */
class EdgeIndexRange
{
  public:
    EdgeIndexRange(const int32_t *begin, const int32_t *end)
        : begin_(begin), end_(end)
    {
    }

    const int32_t *begin() const { return begin_; }
    const int32_t *end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }

  private:
    const int32_t *begin_;
    const int32_t *end_;
};

/** Dependence graph for one block of operations. */
class DependenceGraph
{
  public:
    /** An empty graph; call build() before use. */
    DependenceGraph() = default;

    /**
     * Build the graph. When loopCarried is set, cross-iteration
     * register and memory dependences (distance 1) are added for
     * values that are live around the back edge.
     */
    DependenceGraph(const std::vector<Operation> &ops,
                    const LatencyFn &latency, bool loop_carried);

    /**
     * Rebuild in place for a new block, reusing the previous build's
     * buffers (the pooled-reuse path for scheduler-owned graphs).
     */
    void build(const std::vector<Operation> &ops,
               const LatencyFn &latency, bool loop_carried);

    /**
     * Rebuild from an explicit edge list over `num_ops` operations
     * (synthetic graphs for property tests). Duplicate edge
     * identities merge at the larger latency, as in the
     * operation-driven build.
     */
    void build(size_t num_ops, const std::vector<DepEdge> &edges);

    size_t numOps() const { return num_ops_; }
    const std::vector<DepEdge> &edges() const { return edges_; }

    /** Edges into / out of an operation index. */
    EdgeIndexRange predEdges(int op) const;
    EdgeIndexRange succEdges(int op) const;

    /**
     * Length (in cycles) of the longest latency path from this op to
     * any graph sink, counting only distance-0 edges; the classic
     * list-scheduling height priority.
     */
    int height(int op) const;

    /** Longest distance-0 latency path in the graph (critical path). */
    int criticalPathLength() const;

    /**
     * Minimum initiation interval forced by dependence recurrences:
     * max over cycles of ceil(latency_sum / distance_sum)
     * (Rau's RecMII).
     */
    int recurrenceMii() const;

    /**
     * Relaxation sweeps the last recurrenceMii() call made over all
     * feasibility probes: a deterministic work count, independent of
     * host speed.
     */
    long recurrenceSweeps() const { return sweeps_; }

    std::string str() const;

  private:
    void addEdge(int from, int to, int latency, int distance,
                 DepKind kind);
    void buildCsr();
    void computeHeights();
    bool relaxationFeasible(int ii) const;
    bool parentCycle() const;

    size_t num_ops_ = 0;
    std::vector<DepEdge> edges_;
    /** (from, to, distance, kind) -> edge index, for O(1) dedup. */
    std::unordered_map<uint64_t, int> edge_index_;

    /**
     * CSR adjacency: op i's successor edge indices live in
     * succCsr_[succOff_[i] .. succOff_[i+1]), in edge-creation order
     * (identical to the per-op vectors they replaced); same for
     * predecessors.
     */
    std::vector<int32_t> succOff_;
    std::vector<int32_t> succCsr_;
    std::vector<int32_t> predOff_;
    std::vector<int32_t> predCsr_;

    std::vector<int> heights_;
    /** Per-op result latency, computed once per build. */
    std::vector<int> opLatency_;
    /** recurrenceMii scratch (reused across feasibility probes). */
    mutable std::vector<int> bfDist_;
    mutable std::vector<int> bfParent_;
    mutable std::vector<int> bfStamp_;
    mutable long sweeps_ = 0;
};

} // namespace vvsp

#endif // VVSP_IR_DEPENDENCE_GRAPH_HH
