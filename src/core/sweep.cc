#include "core/sweep.hh"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>

#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "sched/modulo_scheduler.hh"

namespace vvsp
{

SweepRunner::SweepRunner(SweepOptions opts)
    : pool_(opts.threads),
      cache_(opts.useCache
                 ? (opts.cache ? opts.cache : &ExperimentCache::global())
                 : nullptr),
      stats_(opts.stats), trace_(opts.trace),
      tracePid_(opts.tracePid)
{
}

std::vector<ExperimentResult>
SweepRunner::run(const std::vector<ExperimentRequest> &requests)
{
    // Install the batch's registry so the pipeline's global
    // instrumentation sites record into it; restored after the
    // barrier, before results are returned.
    obs::StatsRegistry *prev = obs::globalStats();
    if (stats_)
        obs::setGlobalStats(stats_);

    if (trace_) {
        trace_->processName(tracePid_, "sweep");
        for (int w = 0; w < pool_.threadCount(); ++w) {
            trace_->threadName(tracePid_, w,
                               "worker" + std::to_string(w));
        }
    }
    const auto batchStart = std::chrono::steady_clock::now();
    const ExperimentCacheStats before =
        cache_ ? cache_->stats() : ExperimentCacheStats{};

    // Let modulo schedulers borrow idle workers for speculative II
    // attempts. Bit-identical schedules at any thread count (see
    // ModuloScheduler::setIiSearch); cleared before the pool can
    // outlive the batch's use of it.
    ModuloScheduler::setIiSearch(&pool_, pool_.threadCount());

    // Cells parked on another cell's result key (ExperimentCache::
    // claimResult) get their results delivered by its owner. Owners
    // of this batch deliver before pool_.wait() returns; the wait
    // below is for an owner from another batch sharing the cache.
    struct Parking
    {
        std::vector<ExperimentResult> results;
        std::mutex mutex;
        std::condition_variable delivered_cv;
        size_t parked = 0, delivered = 0;
    } batch;
    std::vector<ExperimentResult> &results = batch.results;
    results.resize(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        pool_.submit([&, batchStart, i] {
            const ExperimentRequest &req = requests[i];
            const auto t0 = std::chrono::steady_clock::now();
            const obs::OwnTimer own;
            const ThreadPool::ForeignTime f0 = ThreadPool::foreignTime();
            if (cache_) {
                // Two captured words: std::function keeps them inline.
                std::optional<ExperimentResult> res = runOrPark(
                    req, *cache_, [&batch, i](ExperimentResult r) {
                        batch.results[i] = std::move(r);
                        std::lock_guard<std::mutex> lock(batch.mutex);
                        ++batch.delivered;
                        batch.delivered_cv.notify_all();
                    });
                if (res) {
                    results[i] = std::move(*res);
                } else {
                    std::lock_guard<std::mutex> lock(batch.mutex);
                    ++batch.parked;
                }
            } else {
                results[i] = runExperiment(req, nullptr);
            }
            if (trace_) {
                const auto t1 = std::chrono::steady_clock::now();
                auto us = [&batchStart](
                              std::chrono::steady_clock::time_point
                                  t) {
                    return static_cast<uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::microseconds>(t - batchStart)
                            .count());
                };
                int tid = ThreadPool::currentWorkerIndex();
                trace_->slice(
                    req.kernel->name + " / " + req.variant->name,
                    "cell", us(t0), std::max<uint64_t>(
                        1, us(t1) - us(t0)),
                    tracePid_, tid < 0 ? 0 : tid,
                    {{"model", req.model.name},
                     {"kernel", req.kernel->name},
                     {"variant", req.variant->name}});
            }
            if (stats_) {
                // The cell's own wall time, and apart from it the
                // time it slept on single-flight keys and the time it
                // spent running other cells while waiting.
                const ThreadPool::ForeignTime &f1 =
                    ThreadPool::foreignTime();
                obs::StatsScope sweep = stats_->scope("sweep");
                sweep.bump("cells");
                sweep.sample("cell_wall_us", own.wallUs());
                sweep.sample("waited_us",
                             (f1.waitedNs - f0.waitedNs) / 1000);
                sweep.sample("helped_us",
                             (f1.helpedWallNs - f0.helpedWallNs) / 1000);
            }
        });
    }
    pool_.wait();
    {
        std::unique_lock<std::mutex> lock(batch.mutex);
        batch.delivered_cv.wait(
            lock, [&batch] { return batch.delivered == batch.parked; });
    }
    ModuloScheduler::setIiSearch(nullptr, 1);
    if (stats_ && cache_) {
        // This batch's contribution to the shared cache's counters.
        const ExperimentCacheStats after = cache_->stats();
        obs::StatsScope cs = stats_->scope("cache");
        cs.bump("lowered_hits", after.loweredHits - before.loweredHits);
        cs.bump("lowered_misses",
                after.loweredMisses - before.loweredMisses);
        cs.bump("result_hits", after.resultHits - before.resultHits);
        cs.bump("result_misses",
                after.resultMisses - before.resultMisses);
        cs.bump("disk_hits", after.diskHits - before.diskHits);
        cs.bump("disk_misses", after.diskMisses - before.diskMisses);
        cs.bump("disk_stores", after.diskStores - before.diskStores);
        cs.bump("swp_memo_hits", after.moduleHits - before.moduleHits);
        cs.bump("swp_memo_misses",
                after.moduleMisses - before.moduleMisses);
    }
    if (stats_)
        obs::setGlobalStats(prev);
    return std::move(batch.results);
}

} // namespace vvsp
