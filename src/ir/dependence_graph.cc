#include "ir/dependence_graph.hh"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "support/logging.hh"

namespace vvsp
{

namespace
{

/** True when two writes can commit in the same cycle (complementary
 *  predicates guarantee only one retires). */
bool
complementaryPreds(const Operation &a, const Operation &b)
{
    return a.isPredicated() && b.isPredicated() &&
           a.pred == b.pred && a.predSense != b.predSense;
}

/** Exact pack of an edge identity (from, to, distance, kind). */
uint64_t
edgeKey(int from, int to, int distance, DepKind kind)
{
    vvsp_assert(from >= 0 && from < (1 << 28) && to >= 0 &&
                    to < (1 << 28) && distance >= 0 && distance < 4,
                "edge key overflow (%d -> %d dist %d)", from, to,
                distance);
    return (static_cast<uint64_t>(from) << 34) |
           (static_cast<uint64_t>(to) << 6) |
           (static_cast<uint64_t>(distance) << 2) |
           static_cast<uint64_t>(kind);
}

/** Memory-ordering chain state for one (buffer, aliasToken) class. */
struct MemChain
{
    int buffer = 0;
    int aliasToken = 0;
    int lastStore = -1;
    std::vector<int> readersSinceStore;
    std::vector<int> allOps; ///< for the carried all-pairs pass.
};

} // anonymous namespace

DependenceGraph::DependenceGraph(const std::vector<Operation> &ops,
                                 const LatencyFn &latency,
                                 bool loop_carried)
{
    build(ops, latency, loop_carried);
}

void
DependenceGraph::build(const std::vector<Operation> &ops,
                       const LatencyFn &latency, bool loop_carried)
{
    num_ops_ = ops.size();
    edges_.clear();
    edge_index_.clear();
    edge_index_.reserve(ops.size() * 4);

    const int n = static_cast<int>(ops.size());
    opLatency_.resize(ops.size());
    for (int i = 0; i < n; ++i)
        opLatency_[static_cast<size_t>(i)] =
            latency(ops[static_cast<size_t>(i)]);

    Vreg max_reg = 0;
    for (const auto &op : ops) {
        if (op.info().hasDst)
            max_reg = std::max(max_reg, op.dst);
        for (const auto &s : op.src) {
            if (s.isReg())
                max_reg = std::max(max_reg, s.reg);
        }
        if (op.pred.isReg())
            max_reg = std::max(max_reg, op.pred.reg);
    }
    // Pooled per-vreg state: grown, never shrunk, and empty between
    // builds (the loop at the end clears what this build touched), so
    // a rebuild allocates nothing once the pool is large enough.
    if (regs_.size() <= max_reg)
        regs_.resize(static_cast<size_t>(max_reg) + 1);
    std::vector<RegState> &regs = regs_;

    auto reads = [&](const Operation &op, auto &&fn) {
        for (const auto &s : op.src) {
            if (s.isReg())
                fn(s.reg);
        }
        if (op.pred.isReg())
            fn(op.pred.reg);
    };

    for (int i = 0; i < n; ++i) {
        const Operation &op = ops[static_cast<size_t>(i)];

        reads(op, [&](Vreg r) {
            RegState &st = regs[r];
            for (int w : st.writers) {
                addEdge(w, i, opLatency_[static_cast<size_t>(w)], 0,
                        DepKind::True);
            }
            st.readers.push_back(i);
            st.all_readers.push_back(i);
        });

        if (op.info().hasDst) {
            RegState &st = regs[op.dst];
            for (int rd : st.readers) {
                if (rd != i)
                    addEdge(rd, i, 0, 0, DepKind::Anti);
            }
            for (int w : st.writers) {
                int lat = complementaryPreds(
                              ops[static_cast<size_t>(w)], op)
                              ? 0
                              : 1;
                addEdge(w, i, lat, 0, DepKind::Output);
            }
            if (op.isPredicated()) {
                st.writers.push_back(i);
            } else {
                st.writers = {i};
                st.readers.clear();
            }
        }
    }

    // Memory ordering per (buffer, aliasToken), chains discovered in
    // program order.
    std::vector<MemChain> chains;
    std::unordered_map<uint64_t, size_t> chain_of;
    for (int i = 0; i < n; ++i) {
        const Operation &op = ops[static_cast<size_t>(i)];
        if (!op.info().isMemory)
            continue;
        uint64_t key =
            (static_cast<uint64_t>(static_cast<uint32_t>(op.buffer))
             << 32) |
            static_cast<uint32_t>(op.aliasToken);
        auto [it, fresh] = chain_of.try_emplace(key, chains.size());
        if (fresh) {
            chains.emplace_back();
            chains.back().buffer = op.buffer;
            chains.back().aliasToken = op.aliasToken;
        }
        MemChain &chain = chains[it->second];
        chain.allOps.push_back(i);

        // Chained edges: store -> store (lat 1), store -> later loads
        // (lat 1), loads-since-store -> store (lat 0). Transitivity
        // through the chain dominates the dropped all-pairs edges, so
        // heights and scheduler timing are unchanged. Only safe for
        // acyclic scheduling: the modulo scheduler's backtracking
        // bounds estart by *placed* predecessors only, where indirect
        // edges are not interchangeable with direct ones.
        if (loop_carried)
            continue;
        if (op.op == Opcode::Store) {
            for (int rd : chain.readersSinceStore)
                addEdge(rd, i, 0, 0, DepKind::Memory);
            if (chain.lastStore >= 0)
                addEdge(chain.lastStore, i, 1, 0, DepKind::Memory);
            chain.lastStore = i;
            chain.readersSinceStore.clear();
        } else {
            if (chain.lastStore >= 0)
                addEdge(chain.lastStore, i, 1, 0, DepKind::Memory);
            chain.readersSinceStore.push_back(i);
        }
    }

    if (loop_carried) {
        // The modulo scheduler needs every direct ordering edge;
        // iterate classes in (buffer, aliasToken) order so the edge
        // list is reproducible independently of discovery order.
        std::vector<size_t> class_order(chains.size());
        for (size_t c = 0; c < chains.size(); ++c)
            class_order[c] = c;
        std::sort(class_order.begin(), class_order.end(),
                  [&chains](size_t a, size_t b) {
                      if (chains[a].buffer != chains[b].buffer)
                          return chains[a].buffer < chains[b].buffer;
                      return chains[a].aliasToken <
                             chains[b].aliasToken;
                  });
        for (size_t c : class_order) {
            const std::vector<int> &idxs = chains[c].allOps;
            for (size_t a = 0; a < idxs.size(); ++a) {
                for (size_t b = a + 1; b < idxs.size(); ++b) {
                    const Operation &oa =
                        ops[static_cast<size_t>(idxs[a])];
                    const Operation &ob =
                        ops[static_cast<size_t>(idxs[b])];
                    bool a_store = oa.op == Opcode::Store;
                    bool b_store = ob.op == Opcode::Store;
                    if (!a_store && !b_store)
                        continue; // load-load: no ordering needed.
                    int lat = a_store && !b_store ? 1 : (a_store ? 1 : 0);
                    addEdge(idxs[a], idxs[b], lat, 0, DepKind::Memory);
                }
            }
        }

        // Register values live around the back edge: a reader at or
        // before a writer consumes the previous iteration's value.
        for (Vreg r = 0; r <= max_reg; ++r) {
            const RegState &st = regs[static_cast<size_t>(r)];
            if (st.writers.empty() || st.all_readers.empty())
                continue;
            for (int w : st.writers) {
                for (int rd : st.all_readers) {
                    if (rd <= w) {
                        addEdge(w, rd,
                                opLatency_[static_cast<size_t>(w)], 1,
                                DepKind::True);
                    }
                }
            }
        }
        // Conservative carried memory dependences, unless both ends
        // are declared streaming.
        for (size_t c : class_order) {
            const std::vector<int> &idxs = chains[c].allOps;
            for (int a : idxs) {
                for (int b : idxs) {
                    const Operation &oa =
                        ops[static_cast<size_t>(a)];
                    const Operation &ob =
                        ops[static_cast<size_t>(b)];
                    bool a_store = oa.op == Opcode::Store;
                    bool b_store = ob.op == Opcode::Store;
                    if (!a_store && !b_store)
                        continue;
                    if (oa.noCarriedAlias && ob.noCarriedAlias)
                        continue;
                    addEdge(a, b, a_store ? 1 : 0, 1, DepKind::Memory);
                }
            }
        }
    }

    for (const auto &op : ops) {
        auto clear = [&regs](Vreg r) {
            RegState &st = regs[r];
            st.writers.clear();
            st.readers.clear();
            st.all_readers.clear();
        };
        if (op.info().hasDst)
            clear(op.dst);
        reads(op, clear);
    }

    buildCsr();
    computeHeights();
}

void
DependenceGraph::build(size_t num_ops, const std::vector<DepEdge> &edges)
{
    num_ops_ = num_ops;
    edges_.clear();
    edge_index_.clear();
    for (const DepEdge &e : edges)
        addEdge(e.from, e.to, e.latency, e.distance, e.kind);
    buildCsr();
    computeHeights();
}

void
DependenceGraph::addEdge(int from, int to, int latency, int distance,
                         DepKind kind)
{
    vvsp_assert(distance > 0 || from < to || (from == to && distance > 0),
                "distance-0 edge must run forward (%d -> %d)", from, to);
    // Each (from, to, distance, kind) identity keeps one edge at the
    // running-max latency; every producer of a given identity supplies
    // the same latency, so this reproduces the drop-duplicates scan.
    auto [it, fresh] = edge_index_.try_emplace(
        edgeKey(from, to, distance, kind),
        static_cast<int>(edges_.size()));
    if (!fresh) {
        DepEdge &existing = edges_[static_cast<size_t>(it->second)];
        existing.latency = std::max(existing.latency, latency);
        return;
    }
    edges_.push_back(DepEdge{from, to, latency, distance, kind});
}

void
DependenceGraph::buildCsr()
{
    const size_t n = num_ops_;
    const size_t num_edges = edges_.size();
    succOff_.assign(n + 1, 0);
    predOff_.assign(n + 1, 0);
    for (const DepEdge &e : edges_) {
        succOff_[static_cast<size_t>(e.from) + 1]++;
        predOff_[static_cast<size_t>(e.to) + 1]++;
    }
    for (size_t i = 0; i < n; ++i) {
        succOff_[i + 1] += succOff_[i];
        predOff_[i + 1] += predOff_[i];
    }
    succCsr_.resize(num_edges);
    predCsr_.resize(num_edges);
    // Fill cursors start at each row's offset; iterating edges in
    // index order reproduces the per-op push_back order of the old
    // vector-of-vectors adjacency exactly.
    std::vector<int32_t> succ_cur(succOff_.begin(),
                                  succOff_.end() - 1);
    std::vector<int32_t> pred_cur(predOff_.begin(),
                                  predOff_.end() - 1);
    for (size_t e = 0; e < num_edges; ++e) {
        const DepEdge &edge = edges_[e];
        succCsr_[static_cast<size_t>(
            succ_cur[static_cast<size_t>(edge.from)]++)] =
            static_cast<int32_t>(e);
        predCsr_[static_cast<size_t>(
            pred_cur[static_cast<size_t>(edge.to)]++)] =
            static_cast<int32_t>(e);
    }
}

EdgeIndexRange
DependenceGraph::predEdges(int op) const
{
    const int32_t *base = predCsr_.data();
    return {base + predOff_[static_cast<size_t>(op)],
            base + predOff_[static_cast<size_t>(op) + 1]};
}

EdgeIndexRange
DependenceGraph::succEdges(int op) const
{
    const int32_t *base = succCsr_.data();
    return {base + succOff_[static_cast<size_t>(op)],
            base + succOff_[static_cast<size_t>(op) + 1]};
}

void
DependenceGraph::computeHeights()
{
    // Distance-0 edges always run forward in index order, so reverse
    // index order is a reverse topological order.
    heights_.assign(num_ops_, 1);
    for (int i = static_cast<int>(num_ops_) - 1; i >= 0; --i) {
        for (int e : succEdges(i)) {
            const DepEdge &edge = edges_[static_cast<size_t>(e)];
            if (edge.distance != 0)
                continue;
            heights_[static_cast<size_t>(i)] = std::max(
                heights_[static_cast<size_t>(i)],
                edge.latency + heights_[static_cast<size_t>(edge.to)]);
        }
    }
}

int
DependenceGraph::height(int op) const
{
    return heights_[static_cast<size_t>(op)];
}

int
DependenceGraph::criticalPathLength() const
{
    int best = 0;
    for (int h : heights_)
        best = std::max(best, h);
    return best;
}

bool
DependenceGraph::relaxationFeasible(int ii) const
{
    // II is feasible iff no cycle has positive weight
    // latency - II*distance: longest-path Bellman-Ford from an
    // implicit zero source, over the reused scratch vectors.
    // Gauss-Seidel order: each op relaxes its predecessor row in op
    // index order, so distance-0 edges (always forward) settle in one
    // sweep and only loop-carried edges need more.
    const size_t n = num_ops_;
    bfDist_.assign(n, 0);
    bfParent_.assign(n, -1);
    int *dist = bfDist_.data();
    int *parent = bfParent_.data();
    // n+1 sweeps bound the search exactly as plain Bellman-Ford does;
    // the parent check below ends infeasible probes long before.
    for (size_t sweep = 0; sweep <= n; ++sweep) {
        ++sweeps_;
        bool changed = false;
        for (size_t v = 0; v < n; ++v) {
            for (int e : predEdges(static_cast<int>(v))) {
                const DepEdge &edge = edges_[static_cast<size_t>(e)];
                int cand = dist[edge.from] + edge.latency -
                           ii * edge.distance;
                if (cand > dist[v]) {
                    dist[v] = cand;
                    parent[v] = edge.from;
                    changed = true;
                }
            }
        }
        if (!changed)
            return true;
        if (parentCycle())
            return false;
    }
    return false;
}

bool
DependenceGraph::parentCycle() const
{
    // Every op's parent is the predecessor that last strictly raised
    // its distance. A cycle among parent pointers has positive weight
    // (the Bellman-Ford predecessor-graph lemma), so finding one
    // proves the probe infeasible. Each walk stamps the ops it
    // visits; reaching an op stamped by the same walk closes a cycle.
    const size_t n = num_ops_;
    bfStamp_.assign(n, 0);
    int walk = 0;
    for (size_t v = 0; v < n; ++v) {
        if (bfStamp_[v] != 0)
            continue;
        ++walk;
        int u = static_cast<int>(v);
        while (u >= 0 && bfStamp_[static_cast<size_t>(u)] == 0) {
            bfStamp_[static_cast<size_t>(u)] = walk;
            u = bfParent_[static_cast<size_t>(u)];
        }
        if (u >= 0 && bfStamp_[static_cast<size_t>(u)] == walk)
            return true;
    }
    return false;
}

int
DependenceGraph::recurrenceMii() const
{
    sweeps_ = 0;
    if (num_ops_ == 0)
        return 1;
    // A cycle in a valid graph needs at least one carried edge; with
    // none, II = 1 is trivially feasible.
    bool any_carried = false;
    int max_lat_sum = 1;
    for (const auto &e : edges_) {
        max_lat_sum += e.latency;
        any_carried |= e.distance > 0;
    }
    if (!any_carried)
        return 1;

    // Every cycle carries distance >= 1, so its weight
    // latSum - II*distSum strictly decreases with II: feasibility is
    // monotone and the smallest feasible II can be binary searched.
    if (relaxationFeasible(1))
        return 1;
    // Invariant: lo infeasible; hi = the answer if any II in range
    // is feasible, else max_lat_sum (the historical fallback).
    int lo = 1, hi = max_lat_sum;
    while (hi - lo > 1) {
        int mid = lo + (hi - lo) / 2;
        if (relaxationFeasible(mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

std::string
DependenceGraph::str() const
{
    std::ostringstream os;
    static const char *names[] = {"true", "anti", "out", "mem"};
    for (const auto &e : edges_) {
        os << e.from << " -> " << e.to << " ["
           << names[static_cast<size_t>(e.kind)] << " lat=" << e.latency
           << " dist=" << e.distance << "]\n";
    }
    return os.str();
}

} // namespace vvsp
