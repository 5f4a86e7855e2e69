/**
 * @file
 * Fixed-size worker pool with a FIFO work queue.
 *
 * The sweep engine's execution substrate: a small, dependency-free
 * pool that runs submitted tasks on a fixed set of worker threads
 * and lets the producer block until the queue has fully drained. A
 * worker waiting on a single-flight key can run queued tasks itself
 * (helpOne) instead of sleeping.
 * Tasks must not throw (the library reports errors through
 * panic/fatal, which terminate the process).
 */

#ifndef VVSP_SUPPORT_THREAD_POOL_HH
#define VVSP_SUPPORT_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace vvsp
{

/** Fixed-size thread pool with a shared FIFO queue. */
class ThreadPool
{
  public:
    /**
     * Start `threads` workers; `threads <= 0` uses the hardware
     * concurrency (at least one worker either way).
     */
    explicit ThreadPool(int threads = 0);

    /** Drains the queue, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    int threadCount() const { return static_cast<int>(workers_.size()); }

    /** Enqueue a task; runs on some worker in FIFO dispatch order. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    /** Detected hardware concurrency (at least 1). */
    static int hardwareThreads();

    /**
     * Index of the pool worker running the calling thread, or -1
     * when called off-pool. Lets instrumentation (the sweep's trace
     * timeline) attribute work to a stable per-worker track.
     */
    static int currentWorkerIndex();

    /**
     * Help from a wait: run one task from the queue of the pool the
     * calling worker belongs to, on the calling thread. Returns false
     * without running anything off-pool, inside a helped task
     * (helped tasks never help again, so a thread runs at most one
     * at a time), or when the queue is empty. Only a caller that owns
     * no single-flight key may help (support/single_flight.hh): a
     * helped cell could need the very key the caller computes.
     */
    static bool helpOne();

    /** Whether the calling thread is running a helped task. */
    static bool helping();

    /**
     * Time the calling thread has spent, since it started, outside
     * its own work: running helped tasks (wall and thread-CPU), and
     * blocked in its own single-flight waits (a helped task's waits
     * are that task's, and are not added). Timers subtract the
     * helped part so a phase's time stays the phase's own
     * (obs::OwnTimer); only differences of these counts mean
     * anything.
     */
    struct ForeignTime
    {
        uint64_t helpedWallNs = 0;
        uint64_t helpedCpuNs = 0;
        uint64_t waitedNs = 0;
    };
    static const ForeignTime &foreignTime();

    /** Add `ns` of blocked waiting to the calling thread's account. */
    static void noteWaited(uint64_t ns);

    /** CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), ns. */
    static uint64_t threadCpuNs();

  private:
    void workerLoop(int index);
    /** Pop the front task (queue non-empty, `lock` held) and run it
     *  unlocked; returns with `lock` held again. */
    void runFront(std::unique_lock<std::mutex> &lock);

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allIdle_;
    size_t running_ = 0;
    bool stopping_ = false;
};

/**
 * A joinable batch of tasks with a caller-runs-tasks wait.
 *
 * Unlike ThreadPool::wait() (which waits for the *whole* queue and
 * blocks the caller idle), a TaskGroup tracks only its own tasks, and
 * the waiting caller claims and executes unstarted group tasks
 * itself. That makes nested parallelism deadlock-free: a pool worker
 * may open a group on the same pool it runs on - if every other
 * worker is busy, the caller simply executes its own tasks inline and
 * wait() still terminates. With a null pool the group degrades to
 * plain deferred sequential execution in wait().
 *
 * The group hands each task to at most one executor (pool worker or
 * the waiting caller); helpers that find the task already claimed
 * return without running anything.
 */
class TaskGroup
{
  public:
    /** Tasks will be offered to `pool` (may be null: run in wait()). */
    explicit TaskGroup(ThreadPool *pool);

    /** wait() must have been called (and returned) before destruction
     *  if any task was submitted. */
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Enqueue a task belonging to this group. */
    void submit(std::function<void()> task);

    /** Run/await every submitted task; the caller helps execute. */
    void wait();

  private:
    struct State;
    ThreadPool *pool_;
    std::shared_ptr<State> state_;
};

} // namespace vvsp

#endif // VVSP_SUPPORT_THREAD_POOL_HH
