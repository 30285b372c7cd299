#include "sync/tx_lock.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "sim_htm/htm.hpp"
#include "sync/spinlock.hpp"
#include "util/backoff.hpp"
#include "util/thread_id.hpp"

namespace hcf::sync {
namespace {

template <typename L>
class ElidableLockTest : public ::testing::Test {};

using LockTypes = ::testing::Types<TxLock, FairTxLock>;
TYPED_TEST_SUITE(ElidableLockTest, LockTypes);

TYPED_TEST(ElidableLockTest, MutualExclusionCounter) {
  TypeParam lock;
  std::uint64_t counter = 0;  // deliberately non-atomic
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(lock.acquisition_count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TYPED_TEST(ElidableLockTest, TryLockRespectsHolder) {
  // try_lock results feed plain `if`s rather than EXPECT_* so the
  // thread-safety analysis can see which branch holds the lock.
  TypeParam lock;
  EXPECT_FALSE(lock.is_locked());
  if (!lock.try_lock()) FAIL() << "try_lock on a free lock must succeed";
  EXPECT_TRUE(lock.is_locked());
  std::thread t([&] {
    if (lock.try_lock()) {
      ADD_FAILURE() << "try_lock must fail while another thread holds it";
      lock.unlock();
    }
  });
  t.join();
  lock.unlock();
  EXPECT_FALSE(lock.is_locked());
  if (!lock.try_lock()) FAIL() << "try_lock after unlock must succeed";
  lock.unlock();
}

TYPED_TEST(ElidableLockTest, SubscribeAbortsWhenHeld) {
  TypeParam lock;
  lock.lock();
  EXPECT_FALSE(htm::attempt([&] { lock.subscribe(); }));
  EXPECT_EQ(htm::last_abort_code(), htm::AbortCode::LockBusy);
  lock.unlock();
  EXPECT_TRUE(htm::attempt([&] { lock.subscribe(); }));
}

// A subscriber still running when a holder takes the lock must stop at its
// next read. The holder's writes are uninstrumented and leave no orec
// evidence; only the strong-clock move at acquisition (in the write-back
// drain) makes the read revalidate, meet the lock word's new version, and
// abort before it returns the holder's value.
TYPED_TEST(ElidableLockTest, RunningSubscriberNeverReadsHolderWrite) {
  TypeParam lock;
  static std::uint64_t x;
  x = 0;
  auto holder = [&] {
    lock.lock();
    htm::write(&x, std::uint64_t{1});  // outside a transaction: plain store
    lock.unlock();
  };
  bool read_returned = false;
  const bool ok = htm::attempt([&] {
    lock.subscribe();
    std::thread t(holder);
    t.join();  // lint:allow(tx-blocking-call) — the holder never waits on us
    const std::uint64_t seen = htm::read(&x);
    read_returned = true;
    EXPECT_EQ(seen, 0u) << "subscriber ingested the lock holder's write";
  });
  EXPECT_FALSE(ok);
  EXPECT_FALSE(read_returned);
  EXPECT_EQ(htm::last_abort_code(), htm::AbortCode::Conflict);
  EXPECT_EQ(x, 1u);
}

// Release is a plain exchange that draws the word no new orec version. A
// transaction that read the lock free before an acquire/write/unlock
// cycle must still fail at commit: the acquisition's strong store left the
// word a version newer than the one in its read set, and the release keeps
// it. A transaction that subscribes after the release commits.
TYPED_TEST(ElidableLockTest, SubscriberFromBeforeACycleAbortsAfterRelease) {
  for (const LockRole role :
       {LockRole::kStopsSubscribers, LockRole::kDrainOnly}) {
    TypeParam lock(role);
    static std::uint64_t x;
    static std::uint64_t y;
    x = 0;
    y = 0;
    auto holder = [&] {
      lock.lock();
      htm::write(&x, std::uint64_t{1});  // outside a transaction: plain
      lock.unlock();
    };
    const bool ok = htm::attempt([&] {
      lock.subscribe();
      std::thread t(holder);
      t.join();  // lint:allow(tx-blocking-call) — the holder never waits on us
      htm::write(&y, std::uint64_t{1});
    });
    EXPECT_FALSE(ok) << "role " << static_cast<int>(role);
    EXPECT_EQ(htm::last_abort_code(), htm::AbortCode::Conflict);
    EXPECT_EQ(y, 0u);
    EXPECT_EQ(x, 1u);
    EXPECT_FALSE(lock.is_locked());
    EXPECT_TRUE(htm::attempt([&] { lock.subscribe(); }));
  }
}

// A drain-only lock (a Multi engine's selection lock) does all an
// acquisition does except move the strong clock: it still waits out a
// raised in-write-back flag, and a transaction that subscribed before it
// still aborts (at commit, not at its next read).
TYPED_TEST(ElidableLockTest, DrainOnlyAcquisitionDrainsWithoutMovingClock) {
  const auto& clock = htm::detail::strong_clock();
  const std::uint64_t before = clock.load();
  TypeParam lock(LockRole::kDrainOnly);
  lock.lock();
  lock.unlock();
  if (!lock.try_lock()) FAIL() << "try_lock on a free lock must succeed";
  lock.unlock();
  EXPECT_EQ(clock.load(), before) << "drain-only acquisitions";

  // A committer between its pre-validation fence and the end of its
  // write-back holds the acquirer in the drain.
  std::atomic<int> stage{0};
  std::atomic<bool> acquired{false};
  std::thread committer([&] {
    auto& flag = htm::detail::writeback_flag(util::this_thread_id());
    flag.store(1);
    stage.store(1);
    while (stage.load() != 2) util::cpu_relax();
    flag.store(0);
  });
  while (stage.load() != 1) util::cpu_relax();
  std::thread acquirer([&] {
    lock.lock();
    acquired.store(true);
    lock.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load()) << "acquisition skipped a raised flag";
  stage.store(2);
  committer.join();
  acquirer.join();
  EXPECT_TRUE(acquired.load());

  static std::uint64_t y;
  y = 0;
  auto cycle = [&] {
    lock.lock();
    lock.unlock();
  };
  const bool ok = htm::attempt([&] {
    lock.subscribe();
    std::thread t(cycle);
    t.join();  // lint:allow(tx-blocking-call) — the holder never waits on us
    htm::write(&y, std::uint64_t{1});
  });
  EXPECT_FALSE(ok);
  EXPECT_EQ(htm::last_abort_code(), htm::AbortCode::Conflict);
  EXPECT_EQ(y, 0u);
  EXPECT_EQ(clock.load(), before) << "drain-only acquisitions";
}

TYPED_TEST(ElidableLockTest, WaitUntilFreeReturnsAfterUnlock) {
  TypeParam lock;
  lock.lock();
  std::atomic<bool> released{false};
  std::thread t([&] {
    lock.wait_until_free();
    EXPECT_TRUE(released.load());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  released = true;
  lock.unlock();
  t.join();
}

TYPED_TEST(ElidableLockTest, GuardReleasesOnScopeExit) {
  TypeParam lock;
  {
    LockGuard<TypeParam> guard(lock);
    EXPECT_TRUE(lock.is_locked());
  }
  EXPECT_FALSE(lock.is_locked());
}

TEST(FairTxLock, FifoOrderUnderContention) {
  // While the main thread holds the lock, spawn contenders one at a time
  // and wait (via pending()) until each has taken its ticket — enqueue
  // order is then deterministic, and grants must follow it exactly.
  FairTxLock lock;
  std::vector<int> grant_order;
  constexpr int kThreads = 6;

  lock.lock();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    const std::uint64_t before = lock.pending();
    threads.emplace_back([&, t] {
      lock.lock();
      grant_order.push_back(t);  // protected by the lock itself
      lock.unlock();
    });
    while (lock.pending() == before) std::this_thread::yield();
  }
  lock.unlock();
  for (auto& th : threads) th.join();
  ASSERT_EQ(grant_order.size(), static_cast<std::size_t>(kThreads));
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(grant_order[i], i);
}

TEST(SpinLock, MutualExclusion) {
  SpinLock lock;
  std::uint64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

// tsa: deliberately re-try-locks a lock this thread already holds — the
// exact misuse the analysis exists to reject — to pin down the failure
// return path of try_lock.
NO_THREAD_SAFETY_ANALYSIS
void spinlock_try_lock_roundtrip() {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(SpinLock, TryLock) { spinlock_try_lock_roundtrip(); }

TEST(TxLock, AcquisitionCountResets) {
  TxLock lock;
  lock.lock();
  lock.unlock();
  EXPECT_EQ(lock.acquisition_count(), 1u);
  lock.reset_stats();
  EXPECT_EQ(lock.acquisition_count(), 0u);
}

}  // namespace
}  // namespace hcf::sync
