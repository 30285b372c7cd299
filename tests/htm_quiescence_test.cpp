// The write-back quiescence gate: a thread that acquires an elidable lock
// must never observe a *partial* transactional write-back, and committed
// transactions must never overlap under-lock plain access. These tests
// hammer the exact interleavings the gate exists for.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "sim_htm/htm.hpp"
#include "sim_htm/txcell.hpp"
#include "sync/tx_lock.hpp"
#include "util/backoff.hpp"
#include "util/thread_id.hpp"

namespace hcf::htm {
namespace {

TEST(Quiescence, LockHolderNeverSeesPartialWriteback) {
  // Transactions write a multi-word record (all words must carry the same
  // round value); lock holders read it plainly. Any mixed-round read is a
  // quiescence violation (a torn write-back).
  constexpr int kWords = 16;
  struct Record {
    std::uint64_t words[kWords] = {};
  };
  alignas(64) static Record record;
  record = {};
  sync::TxLock lock;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> checks{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      util::Xoshiro256 rng(w + 1);
      util::ExpBackoff backoff(77 + w);
      std::uint64_t round = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t value = (round++ << 8) | static_cast<unsigned>(w);
        const bool ok = attempt([&] {
          lock.subscribe();
          for (auto& word : record.words) write(&word, value);
        });
        if (!ok) backoff.pause();
      }
    });
  }
  std::vector<std::thread> lockers;
  for (int l = 0; l < 2; ++l) {
    lockers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        lock.lock();
        // Plain, uninstrumented reads — exactly what CombineUnderLock does.
        const std::uint64_t first = record.words[0];
        for (const auto& word : record.words) {
          if (word != first) torn.fetch_add(1);
        }
        checks.fetch_add(1);
        lock.unlock();
        util::spin_for(64);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop = true;
  for (auto& t : writers) t.join();
  for (auto& t : lockers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(checks.load(), 0u);
}

TEST(Quiescence, LockHolderPlainWritesNeverLost) {
  // Mixed increments again (like HtmConflict.TransactionsAndLockHoldersExclude)
  // but with a multi-word counter so a broken gate shows up as a torn or
  // lost update rather than an off-by-n.
  struct Pair {
    std::uint64_t a = 0;
    std::uint64_t b = 0;  // must always equal a
  };
  alignas(64) static Pair pair;
  pair = {};
  sync::TxLock lock;
  constexpr int kThreads = 4;
  constexpr int kIters = 8000;
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::ExpBackoff backoff(t);
      for (int i = 0; i < kIters; ++i) {
        if ((i + t) % 3 == 0) {
          lock.lock();
          // Uninstrumented lock-holder access: outside a txn, read/write
          // lower to plain atomic loads/stores (TxField's fast path). The
          // stores must be atomic at the C++ level because doomed
          // subscribers may still be executing speculative read()s of the
          // same words; the quiescence property under test is unchanged.
          const auto la = read(&pair.a);
          const auto lb = read(&pair.b);
          if (la != lb) mismatches.fetch_add(1);
          write(&pair.a, la + 1);
          write(&pair.b, lb + 1);
          lock.unlock();
        } else {
          for (;;) {
            lock.wait_until_free();
            const bool ok = attempt([&] {
              lock.subscribe();
              const auto a = read(&pair.a);
              const auto b = read(&pair.b);
              if (a != b) abort_tx();  // would be a torn observation
              write(&pair.a, a + 1);
              write(&pair.b, b + 1);
            });
            if (ok) break;
            backoff.pause();
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(pair.a, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(pair.b, pair.a);
}

TEST(Quiescence, DrainReturnsPromptlyWhenIdle) {
  wait_writeback_drain();  // no writers: must not block
  SUCCEED();
}

TEST(Quiescence, DrainCoversCommitterRegisteredAfterFirstDrain) {
  // The drain scans flags only below the thread registry's high-water
  // mark. A committer whose id is above every id in use at the drainer's
  // first drain must still be waited for: the mark is re-read per drain.
  auto& reg = util::ThreadRegistry::instance();
  (void)util::this_thread_id();
  std::atomic<int> stage{0};
  std::atomic<bool> second_drain_done{false};
  std::thread drainer([&] {
    (void)util::this_thread_id();  // lock acquirers are registered threads
    wait_writeback_drain();  // first drain: the committer does not exist
    stage.store(1);
    while (stage.load() != 2) util::cpu_relax();
    wait_writeback_drain();
    second_drain_done.store(true);
  });
  while (stage.load() != 1) util::cpu_relax();
  // Occupy every free id below the mark the first drain read, so the
  // committer registers above all of them.
  const std::size_t first_mark = reg.high_water();
  std::vector<std::size_t> held;
  for (;;) {
    const std::size_t id = reg.acquire();
    if (id >= first_mark) {
      reg.release(id);
      break;
    }
    held.push_back(id);
  }
  std::atomic<std::size_t> committer_id{0};
  std::atomic<bool> release{false};
  std::thread committer([&] {
    // Stands in for a committer between its pre-validation fence and the
    // end of its write-back.
    const std::size_t tid = util::this_thread_id();
    committer_id.store(tid);
    auto& flag = detail::writeback_flag(tid);
    flag.store(1);
    stage.store(2);
    while (!release.load()) util::cpu_relax();
    flag.store(0);
  });
  while (stage.load() != 2) util::cpu_relax();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GE(committer_id.load(), first_mark);
  EXPECT_FALSE(second_drain_done.load()) << "drain skipped a live flag";
  release.store(true);
  committer.join();
  drainer.join();
  EXPECT_TRUE(second_drain_done.load());
  for (const std::size_t id : held) reg.release(id);
}

TEST(Quiescence, FairLockAlsoGates) {
  // Same torn-record check through the ticket lock.
  constexpr int kWords = 8;
  struct Record {
    std::uint64_t words[kWords] = {};
  };
  alignas(64) static Record record;
  record = {};
  sync::FairTxLock lock;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread writer([&] {
    util::ExpBackoff backoff(3);
    std::uint64_t round = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t value = round++;
      const bool ok = attempt([&] {
        lock.subscribe();
        for (auto& word : record.words) write(&word, value);
      });
      if (!ok) backoff.pause();
    }
  });
  std::thread locker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      lock.lock();
      const std::uint64_t first = record.words[0];
      for (const auto& word : record.words) {
        if (word != first) torn.fetch_add(1);
      }
      lock.unlock();
      util::spin_for(32);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop = true;
  writer.join();
  locker.join();
  EXPECT_EQ(torn.load(), 0u);
}

}  // namespace
}  // namespace hcf::htm
