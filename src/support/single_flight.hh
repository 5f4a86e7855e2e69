/**
 * @file
 * Single-flight memo: a string-keyed table whose missing entries are
 * computed once, however many threads ask for them at the same time.
 *
 * The first caller of a missing key computes its value outside the
 * lock; callers of the same key that arrive meanwhile wait until the
 * value lands and then read it, instead of computing it again. So
 * the number of computations - and the hit and miss counts - is the
 * same at every thread count.
 *
 * A waiter on a pool worker does not sleep while the pool has queued
 * work: it runs queued tasks one at a time (ThreadPool::helpOne)
 * until its key lands, and sleeps only when the queue is empty.
 *
 * A computation must not wait on another key, of this memo or any
 * other: a thread owns at most one key in flight and never waits
 * while owning one (asserted with a per-thread owned-key count), so
 * every wait ends. That is also what makes helping safe: a helped
 * task runs on a thread that owns no key, so whatever keys it needs
 * are owned by threads that are computing, not waiting on it.
 */

#ifndef VVSP_SUPPORT_SINGLE_FLIGHT_HH
#define VVSP_SUPPORT_SINGLE_FLIGHT_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace vvsp
{

namespace single_flight_detail
{
/** Keys the calling thread is computing, over every SingleFlight. */
inline thread_local int tls_owned_keys = 0;
} // namespace single_flight_detail

/** Thread-safe, single-flight memo of Values by string key. */
template <typename Value>
class SingleFlight
{
  public:
    SingleFlight() = default;
    SingleFlight(const SingleFlight &) = delete;
    SingleFlight &operator=(const SingleFlight &) = delete;

    /**
     * The value stored under `key`, else the one `compute()` returns.
     * A result is stored only when `keep(result)` is true; a rejected
     * result goes back to its own caller, and the key stays missing,
     * so the next caller (one woken waiter, say) computes it again.
     * A throwing `compute` releases the key the same way.
     */
    template <typename Compute, typename Keep>
    Value
    get(const std::string &key, Compute &&compute, Keep &&keep)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            for (;;) {
                auto it = done_.find(key);
                if (it != done_.end()) {
                    ++hits_;
                    return it->second;
                }
                if (flying_.insert(key).second)
                    break;
                vvsp_assert(ownedKeys() == 0,
                            "single-flight wait while owning a key");
                // Another thread computes the key: run queued pool
                // work meanwhile, and sleep only when there is none.
                lock.unlock();
                const bool helped = ThreadPool::helpOne();
                lock.lock();
                if (!helped)
                    sleepWhileFlying(lock, key);
            }
            ++misses_;
        }
        ++single_flight_detail::tls_owned_keys;
        std::optional<Value> value;
        try {
            value.emplace(compute());
        } catch (...) {
            land(key, nullptr);
            throw;
        }
        land(key, keep(*value) ? &*value : nullptr);
        return std::move(*value);
    }

    /** get() that keeps every result. */
    template <typename Compute>
    Value
    get(const std::string &key, Compute &&compute)
    {
        return get(key, std::forward<Compute>(compute),
                   [](const Value &) { return true; });
    }

    /** Keys the calling thread is computing right now, over every
     *  SingleFlight (0 whenever it may wait or help). */
    static int ownedKeys() { return single_flight_detail::tls_owned_keys; }

    /** Lookups answered from a stored value. */
    uint64_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hits_;
    }

    /** Lookups that computed (each computation counts once). */
    uint64_t
    misses() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return misses_;
    }

    /** Drop every stored value and zero the counts (not while a
     *  computation is in flight). */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        done_.clear();
        hits_ = 0;
        misses_ = 0;
    }

  private:
    /** Block until `key` is no longer in flight (timed as waiting). */
    void
    sleepWhileFlying(std::unique_lock<std::mutex> &lock,
                     const std::string &key)
    {
        const auto t0 = std::chrono::steady_clock::now();
        landed_.wait(lock, [&] { return flying_.count(key) == 0; });
        ThreadPool::noteWaited(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
    }

    /** End a computation: store `value` when non-null, wake waiters. */
    void
    land(const std::string &key, const Value *value)
    {
        --single_flight_detail::tls_owned_keys;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (value)
                done_.try_emplace(key, *value);
            flying_.erase(key);
        }
        landed_.notify_all();
    }

    mutable std::mutex mutex_;
    std::condition_variable landed_;
    std::unordered_map<std::string, Value> done_;
    std::unordered_set<std::string> flying_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace vvsp

#endif // VVSP_SUPPORT_SINGLE_FLIGHT_HH
