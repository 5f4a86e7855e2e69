/**
 * @file
 * SingleFlight's help-while-waiting (support/single_flight.hh): a
 * waiter on a pool worker runs queued pool tasks until its key lands,
 * a helped task never helps again, waiting while owning a key
 * asserts, and a stress of nested cells on 8 threads neither
 * deadlocks nor computes a key twice.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <vector>

#include "support/random.hh"
#include "support/single_flight.hh"
#include "support/thread_pool.hh"

namespace vvsp
{
namespace
{

using namespace std::chrono_literals;

TEST(SingleFlightHelp, WaiterRunsAQueuedTaskWhileItsKeyIsInFlight)
{
    SingleFlight<int> memo;
    std::promise<void> owner_started, release;
    std::shared_future<void> released = release.get_future().share();
    std::atomic<int> helper_worker{-2}, waiter_worker{-1};
    std::atomic<bool> ran_as_helped{false};
    int got = 0;
    {
        ThreadPool pool(2);
        pool.submit([&] {
            memo.get("k", [&] {
                owner_started.set_value();
                released.wait();
                return 7;
            });
        });
        pool.submit([&] {
            owner_started.get_future().wait();
            waiter_worker = ThreadPool::currentWorkerIndex();
            // Both workers are busy, so only a helping waiter can run
            // this task - and it is the task that lets the key land.
            pool.submit([&] {
                helper_worker = ThreadPool::currentWorkerIndex();
                ran_as_helped = ThreadPool::helping();
                release.set_value();
            });
            got = memo.get("k", [] { return -1; });
        });
        pool.wait();
    }
    EXPECT_EQ(got, 7);
    EXPECT_EQ(helper_worker.load(), waiter_worker.load());
    EXPECT_TRUE(ran_as_helped.load());
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.hits(), 1u);
}

TEST(SingleFlightHelp, HelpedTaskNeverHelpsAgain)
{
    SingleFlight<int> memo;
    std::promise<void> k1_started, k2_started, release_k1, release_k2;
    std::shared_future<void> k1_released =
        release_k1.get_future().share();
    std::shared_future<void> k2_released =
        release_k2.get_future().share();
    std::atomic<bool> k2_landed{false}, outer_helped{false};
    std::atomic<bool> inner_ran_early{false}, inner_ran{false};

    // k2 is computed off-pool, until the test releases it.
    std::thread k2_owner([&] {
        memo.get("k2", [&] {
            k2_started.set_value();
            k2_released.wait();
            k2_landed = true;
            return 2;
        });
    });
    k2_started.get_future().wait();
    {
        ThreadPool pool(2);
        pool.submit([&] {
            memo.get("k1", [&] {
                k1_started.set_value();
                k1_released.wait();
                return 1;
            });
        });
        pool.submit([&] {
            k1_started.get_future().wait();
            pool.submit([&] {
                // Helped by the k1 waiter. Its own wait on k2 must
                // sleep, not run the task queued behind it.
                outer_helped = ThreadPool::helping();
                pool.submit([&] {
                    inner_ran_early = !k2_landed.load();
                    inner_ran = true;
                    release_k1.set_value();
                });
                EXPECT_EQ(memo.get("k2", [] { return -1; }), 2);
            });
            EXPECT_EQ(memo.get("k1", [] { return -1; }), 1);
        });
        std::this_thread::sleep_for(50ms);
        release_k2.set_value();
        pool.wait();
    }
    k2_owner.join();
    EXPECT_TRUE(outer_helped.load());
    EXPECT_TRUE(inner_ran.load());
    EXPECT_FALSE(inner_ran_early.load());
    EXPECT_EQ(memo.misses(), 2u);
}

/** Wait on a key another thread computes, from inside a computation. */
void
waitWhileOwningAKey()
{
    SingleFlight<int> outer;
    SingleFlight<int> inner;
    std::promise<void> started;
    std::thread owner([&] {
        inner.get("b", [&] {
            started.set_value();
            std::this_thread::sleep_for(10s);
            return 0;
        });
    });
    started.get_future().wait();
    outer.get("a", [&] { return inner.get("b", [] { return 1; }); });
    owner.join();
}

TEST(SingleFlightHelpDeathTest, WaitingWhileOwningAKeyAsserts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(waitWhileOwningAKey(),
                 "single-flight wait while owning a key");
}

TEST(SingleFlightHelp, NestedCellStressNeitherDeadlocksNorRecomputes)
{
    // Cells look up a "profile" key, then a "schedule" key whose
    // computation fans out into a TaskGroup (the II search's shape);
    // some cells spawn child cells. Durations are random, so waiters
    // help with every kind of queued task.
    constexpr int kThreads = 8;
    constexpr int kCells = 1500;
    constexpr int kKeys = 80;
    SingleFlight<int> profiles, schedules;
    std::atomic<int> cells_done{0}, children{0};
    std::atomic<int> profile_computes{0}, schedule_computes{0};
    std::atomic<bool> wrong{false};

    std::promise<void> finished;
    std::future<void> finished_future = finished.get_future();
    std::thread runner([&] {
        ThreadPool pool(kThreads);
        std::function<void(uint64_t, int)> cell =
            [&](uint64_t seed, int depth) {
                Rng rng(seed);
                const int pk = static_cast<int>(rng.next() % kKeys);
                const int sk = static_cast<int>(rng.next() % kKeys);
                const auto pause = std::chrono::microseconds(
                    rng.next() % 400);
                std::this_thread::sleep_for(pause / 8);
                if (depth == 0 && rng.next() % 4 == 0) {
                    children.fetch_add(1);
                    pool.submit([&cell, seed] { cell(seed * 31 + 7, 1); });
                }
                int p = profiles.get("p" + std::to_string(pk), [&] {
                    profile_computes.fetch_add(1);
                    std::this_thread::sleep_for(pause);
                    return pk * 3;
                });
                int s = schedules.get("s" + std::to_string(sk), [&] {
                    schedule_computes.fetch_add(1);
                    std::atomic<int> parts{0};
                    TaskGroup group(&pool);
                    for (int t = 0; t < 3; ++t) {
                        group.submit([&parts, pause] {
                            std::this_thread::sleep_for(pause / 3);
                            parts.fetch_add(1);
                        });
                    }
                    group.wait();
                    return sk * 5 + parts.load() - 3;
                });
                if (p != pk * 3 || s != sk * 5)
                    wrong = true;
                cells_done.fetch_add(1);
            };
        for (int i = 0; i < kCells; ++i)
            pool.submit([&cell, i] { cell(1000 + i, 0); });
        pool.wait();
        finished.set_value();
    });
    if (finished_future.wait_for(120s) != std::future_status::ready) {
        std::fprintf(stderr, "deadlock: %d of %d cells done\n",
                     cells_done.load(), kCells + children.load());
        std::abort();
    }
    runner.join();
    EXPECT_FALSE(wrong.load());
    EXPECT_EQ(cells_done.load(), kCells + children.load());
    EXPECT_EQ(static_cast<uint64_t>(profile_computes.load()),
              profiles.misses());
    EXPECT_EQ(static_cast<uint64_t>(schedule_computes.load()),
              schedules.misses());
    EXPECT_LE(profiles.misses(), static_cast<uint64_t>(kKeys));
    EXPECT_LE(schedules.misses(), static_cast<uint64_t>(kKeys));
    EXPECT_EQ(profiles.hits() + profiles.misses(),
              static_cast<uint64_t>(cells_done.load()));
}

} // namespace
} // namespace vvsp
