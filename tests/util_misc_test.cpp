#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "util/backoff.hpp"
#include "util/barrier.hpp"
#include "util/cacheline.hpp"
#include "util/counters.hpp"
#include "util/table.hpp"
#include "util/thread_id.hpp"

namespace hcf::util {
namespace {

TEST(CacheAligned, SizeAndAlignment) {
  CacheAligned<char> c;
  EXPECT_EQ(sizeof(c), kCacheLineSize);
  CacheAligned<std::uint64_t> arr[4];
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&arr[1]) -
                reinterpret_cast<std::uintptr_t>(&arr[0]),
            kCacheLineSize);
}

TEST(Backoff, WindowGrowsAndCaps) {
  ExpBackoff b(1, 4, 64);
  EXPECT_EQ(b.window(), 4u);
  for (int i = 0; i < 10; ++i) b.pause();
  EXPECT_EQ(b.window(), 64u);
  b.reset();
  EXPECT_EQ(b.window(), 4u);
}

TEST(ThreadId, StableWithinThread) {
  const std::size_t id1 = this_thread_id();
  const std::size_t id2 = this_thread_id();
  EXPECT_EQ(id1, id2);
  EXPECT_LT(id1, kMaxThreads);
}

TEST(ThreadId, DistinctAcrossLiveThreads) {
  const std::size_t main_id = this_thread_id();
  std::atomic<std::size_t> other{kMaxThreads};
  std::thread t([&] { other = this_thread_id(); });
  t.join();
  EXPECT_NE(other.load(), main_id);
}

TEST(ThreadId, RecycledAfterThreadExit) {
  // Spawn many more sequential threads than kMaxThreads; ids must recycle.
  for (int i = 0; i < static_cast<int>(kMaxThreads) + 20; ++i) {
    std::thread t([] {
      EXPECT_LT(this_thread_id(), kMaxThreads);
    });
    t.join();
  }
}

TEST(ThreadId, HighWaterMarkIsMonotoneAndCoversRecycledIds) {
  auto& reg = ThreadRegistry::instance();
  const std::size_t main_id = this_thread_id();
  std::size_t mark = reg.high_water();
  EXPECT_GT(mark, main_id);
  // Sequential threads reuse ids; each must still sit below the mark.
  for (int i = 0; i < 2 * static_cast<int>(kMaxThreads); ++i) {
    std::size_t id = kMaxThreads;
    std::size_t seen = 0;
    std::thread t([&] {
      id = this_thread_id();
      seen = reg.high_water();
    });
    t.join();
    EXPECT_LT(id, seen);
    EXPECT_GE(reg.high_water(), mark);
    mark = reg.high_water();
  }
  // Releasing never lowers the mark, and a recycled id stays covered.
  const std::size_t a = reg.acquire();
  const std::size_t b = reg.acquire();
  const std::size_t top = reg.high_water();
  EXPECT_GT(top, std::max(a, b));
  reg.release(a);
  reg.release(b);
  EXPECT_EQ(reg.high_water(), top);
  const std::size_t c = reg.acquire();
  EXPECT_EQ(c, std::min(a, b));  // lowest free id is handed out again
  EXPECT_LT(c, reg.high_water());
  EXPECT_EQ(reg.high_water(), top);
  reg.release(c);
}

TEST(ThreadIdDeathTest, ExhaustionAbortsInEveryBuild) {
  // More claims than ids: the registry must abort, not spin or assert
  // only in debug builds.
  EXPECT_DEATH(
      {
        for (std::size_t i = 0; i <= kMaxThreads; ++i) {
          (void)ThreadRegistry::instance().acquire();
        }
      },
      "thread id space exhausted");
}

TEST(Counter, PerThreadAggregation) {
  Counter c;
  c.add(5);
  std::thread t([&] { c.add(7); });
  t.join();
  EXPECT_EQ(c.total(), 12u);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(Barrier, ReleasesAllParties) {
  constexpr int kThreads = 4;
  SpinBarrier barrier(kThreads);
  std::atomic<int> before{0}, after{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      before.fetch_add(1);
      barrier.arrive_and_wait();
      EXPECT_EQ(before.load(), kThreads);  // nobody passes early
      after.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(after.load(), kThreads);
}

TEST(Barrier, Reusable) {
  SpinBarrier barrier(2);
  std::atomic<int> round{0};
  std::thread t([&] {
    for (int i = 0; i < 100; ++i) {
      barrier.arrive_and_wait();
      round.fetch_add(1);
      barrier.arrive_and_wait();
    }
  });
  for (int i = 0; i < 100; ++i) {
    barrier.arrive_and_wait();
    barrier.arrive_and_wait();
    EXPECT_EQ(round.load(), i + 1);
  }
  t.join();
}

TEST(TextTable, FormatsAlignedColumns) {
  TextTable table({"engine", "threads", "mops"});
  table.add_row({"HCF", "16", "12.34"});
  table.add_row({"TLE", "1", "3.50"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("engine"), std::string::npos);
  EXPECT_NE(out.find("12.34"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // All rows have equal width.
  std::istringstream is(out);
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(std::uint64_t{42}), "42");
}

}  // namespace
}  // namespace hcf::util
