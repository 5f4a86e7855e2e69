/**
 * @file
 * Test helper: the software-pipelined loop bodies of a lowered
 * function, assembled exactly as the composer and the cycle
 * simulator hand them to the modulo scheduler (body blocks, then the
 * materialized loop-control ops).
 */

#ifndef VVSP_TESTS_SWP_BODIES_HH
#define VVSP_TESTS_SWP_BODIES_HH

#include <vector>

#include "ir/function.hh"
#include "ir/region.hh"
#include "kernels/composer.hh"

namespace vvsp
{

inline std::vector<std::vector<Operation>>
swpLoopBodies(Function &fn, ScheduleMode mode)
{
    std::vector<const LoopNode *> loops;
    forEachNode(fn.body, [&](const Node &n) {
        if (n.kind() != NodeKind::Loop)
            return;
        const auto &loop = static_cast<const LoopNode &>(n);
        if (swpEligibleLoop(loop, mode))
            loops.push_back(&loop);
    });
    std::vector<std::vector<Operation>> bodies;
    for (const LoopNode *loop : loops) {
        std::vector<Operation> ops;
        for (const auto &n : loop->body) {
            const auto &block = static_cast<const BlockNode &>(*n);
            ops.insert(ops.end(), block.ops.begin(), block.ops.end());
        }
        auto ctrl = loopControlOps(fn, *loop);
        ops.insert(ops.end(), ctrl.begin(), ctrl.end());
        bodies.push_back(std::move(ops));
    }
    return bodies;
}

} // namespace vvsp

#endif // VVSP_TESTS_SWP_BODIES_HH
