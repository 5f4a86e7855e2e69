#include "support/thread_pool.hh"

#include <chrono>
#include <ctime>

#include "support/logging.hh"

namespace vvsp
{

namespace
{

thread_local int tls_worker_index = -1;
/** The pool the calling worker belongs to (null off-pool). */
thread_local ThreadPool *tls_pool = nullptr;
thread_local bool tls_helping = false;
thread_local ThreadPool::ForeignTime tls_foreign;

uint64_t
steadyNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // anonymous namespace

uint64_t
ThreadPool::threadCpuNs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000u +
           static_cast<uint64_t>(ts.tv_nsec);
}

bool
ThreadPool::helping()
{
    return tls_helping;
}

const ThreadPool::ForeignTime &
ThreadPool::foreignTime()
{
    return tls_foreign;
}

void
ThreadPool::noteWaited(uint64_t ns)
{
    tls_foreign.waitedNs += ns;
}

bool
ThreadPool::helpOne()
{
    if (tls_pool == nullptr || tls_helping)
        return false;
    const uint64_t wall0 = steadyNs();
    const uint64_t cpu0 = threadCpuNs();
    // The helped task's own waits are its own, not the helper's.
    const uint64_t waited0 = tls_foreign.waitedNs;
    bool ran = false;
    tls_helping = true;
    {
        std::unique_lock<std::mutex> lock(tls_pool->mutex_);
        if (!tls_pool->queue_.empty()) {
            tls_pool->runFront(lock);
            ran = true;
        }
    }
    tls_helping = false;
    tls_foreign.waitedNs = waited0;
    if (ran) {
        tls_foreign.helpedWallNs += steadyNs() - wall0;
        tls_foreign.helpedCpuNs += threadCpuNs() - cpu0;
    }
    return ran;
}

void
ThreadPool::runFront(std::unique_lock<std::mutex> &lock)
{
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++running_;
    lock.unlock();
    task();
    lock.lock();
    --running_;
    if (queue_.empty() && running_ == 0)
        allIdle_.notify_all();
}

int
ThreadPool::hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

int
ThreadPool::currentWorkerIndex()
{
    return tls_worker_index;
}

ThreadPool::ThreadPool(int threads)
{
    int n = threads > 0 ? threads : hardwareThreads();
    workers_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    vvsp_assert(task != nullptr, "null task submitted to pool");
    {
        std::unique_lock<std::mutex> lock(mutex_);
        vvsp_assert(!stopping_, "submit() on a stopping pool");
        queue_.push_back(std::move(task));
    }
    workReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allIdle_.wait(lock,
                  [this] { return queue_.empty() && running_ == 0; });
}

void
ThreadPool::workerLoop(int index)
{
    tls_worker_index = index;
    tls_pool = this;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workReady_.wait(lock,
                        [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stopping and drained.
        runFront(lock);
    }
}

struct TaskGroup::State
{
    std::mutex mutex;
    std::condition_variable done;
    std::deque<std::function<void()>> tasks;
    size_t unfinished = 0; ///< submitted tasks not yet completed.

    /** Claim and run one unstarted task; false when none remain. */
    static bool runOne(const std::shared_ptr<State> &st)
    {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(st->mutex);
            if (st->tasks.empty())
                return false;
            task = std::move(st->tasks.front());
            st->tasks.pop_front();
        }
        task();
        {
            std::unique_lock<std::mutex> lock(st->mutex);
            if (--st->unfinished == 0)
                st->done.notify_all();
        }
        return true;
    }
};

TaskGroup::TaskGroup(ThreadPool *pool)
    : pool_(pool), state_(std::make_shared<State>())
{
}

TaskGroup::~TaskGroup()
{
    // Safety net for early exits; normal use calls wait() explicitly.
    wait();
}

void
TaskGroup::submit(std::function<void()> task)
{
    vvsp_assert(task != nullptr, "null task submitted to group");
    {
        std::unique_lock<std::mutex> lock(state_->mutex);
        state_->tasks.push_back(std::move(task));
        state_->unfinished++;
    }
    if (pool_) {
        // The helper may find the caller already ran the task; it
        // then returns without touching the group.
        std::shared_ptr<State> st = state_;
        pool_->submit([st] { State::runOne(st); });
    }
}

void
TaskGroup::wait()
{
    while (State::runOne(state_)) {
    }
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->done.wait(lock,
                      [this] { return state_->unfinished == 0; });
}

} // namespace vvsp
